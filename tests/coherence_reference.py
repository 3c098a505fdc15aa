"""The coherence pass as first written, over every pair, for tests to compare against.

DenseMatrix.sorted_coherences keeps only the leading entries of these
arrays; kept_count says how many.
"""

import numpy as np

from sparkcert.matrix import TOP_COHERENCES_SHOWN, coherence_rounding, gram_matrix


def full_coherence_pass(m):
    """Every pair's coherence in non-increasing order, and the running sums.

    The whole symmetrized Gram, read through index arrays and sorted in full.
    """
    vals = -np.sort(-np.minimum(np.abs(gram_matrix(m)[np.triu_indices(m.cols, 1)]), 1.0))
    return vals, np.cumsum(vals)


def kept_count(m, full_prefix):
    """K = min(pairs, max(rows, TOP_COHERENCES_SHOWN)), or every pair when those K fall short.

    They fall short when their sum plus K * coherence_rounding(rows) is
    below 1: then some prefix test may need an entry past K.
    """
    pairs = full_prefix.size
    keep = min(pairs, max(m.rows, TOP_COHERENCES_SHOWN))
    if keep < pairs and full_prefix[keep - 1] + keep * coherence_rounding(m.rows) < 1.0:
        return pairs
    return keep
