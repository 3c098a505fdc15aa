"""Tests of the benchmark's own logic: reference checks, statistics and spans.

Run from the source tree root: python3 -m pytest perfbench/tests
"""

import json
import os
import statistics
import sys
import time

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.dirname(HERE), os.path.join(os.path.dirname(os.path.dirname(HERE)), "src")]

import sparkcert as sc  # noqa: E402
from reference import (  # noqa: E402
    BorderlineInstance,
    SparkRef,
    check_bounds,
    check_certificate,
    check_spark,
    expected_verdicts,
    parse_matrix_text,
    reference_bounds,
    reference_spark,
    text_report_tree,
)
from stats import (  # noqa: E402
    per_op_medians,
    percentile,
    quartile_spread,
    samples_beyond,
    tail_percentile,
)
from traced import gathered_bytes  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import planted_dependency  # noqa: E402

# 6x10 dyadic matrix whose column 2 is an exact integer mix of columns 0 and 1
PLANTED = planted_dependency(np.random.Generator(np.random.PCG64(3)), 6, 10, (0, 1, 2))


def report_tree(data, x=None, exact=True, text=False):
    matrix = sc.build_matrix(data)
    spark = sc.analyze_spark(matrix, compute_exact=exact)
    cert = None
    if x is not None:
        cert = sc.certify(matrix, x, matrix.data @ x, exact=spark.exact)
    report = sc.build_report(matrix, "m", spark, certificate=cert)
    if text:
        return text_report_tree(sc.render_text(report))
    return json.loads(sc.report_to_json(report))


def test_reference_spark_matches_known_cases():
    assert reference_spark(np.array([[1.0, 0, 1], [0, 1, 1]])) == SparkRef(3, (0, 1, 2))
    assert reference_spark(np.array([[1.0, 2, 0], [1, 2, 1]])) == SparkRef(2, (0, 1))
    assert reference_spark(np.eye(3)) == SparkRef(None, None)
    assert reference_spark(PLANTED) == SparkRef(3, (0, 1, 2))


def test_reference_spark_refuses_borderline_instance():
    # sigma_min of this 3x3 sits at the rank cutoff eps * sigma_max * 3
    data = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0], [0.0, 0.0, 2.7e-15]])
    with pytest.raises(BorderlineInstance):
        reference_spark(data)


def test_correct_answers_pass_every_check():
    x = np.zeros(10)
    x[[4, 7]] = (1.5, -2.0)
    tree = report_tree(PLANTED, x)
    bounds, spark = reference_bounds(PLANTED), reference_spark(PLANTED)
    assert check_bounds(tree, bounds) == []
    assert check_spark(tree["spark"], spark) == ([], True)
    allowed = expected_verdicts(2, spark, bounds)
    assert check_certificate(tree["certificate"], 2, allowed) == []


def test_check_spark_catches_wrong_spark_and_witness():
    ref = reference_spark(PLANTED)
    good = report_tree(PLANTED)["spark"]
    wrong_value = dict(good, exact={"kind": "finite", "value": ref.spark + 1})
    assert check_spark(wrong_value, ref)[0]
    wrong_witness = dict(good, witness=[0, 1, 3])
    assert check_spark(wrong_witness, ref)[0]
    claims_infinite = dict(good, exact={"kind": "infinite"}, witness=None)
    assert check_spark(claims_infinite, ref)[0]
    unsound_bound = dict(good, coherence_index_bound=ref.spark + 1)
    assert check_spark(unsound_bound, ref)[0]


def test_check_spark_budget_hit_is_unsettled_not_failed():
    ref = reference_spark(PLANTED)
    good = report_tree(PLANTED)["spark"]
    stopped = dict(good, exact=None, witness=None, search_budget_hit=True)
    assert check_spark(stopped, ref) == ([], False)
    claims_anyway = dict(stopped, exact={"kind": "finite", "value": 3})
    assert check_spark(claims_anyway, ref)[0]


@pytest.mark.parametrize(
    "block, key, value",
    [
        ("coherence", "mutual_coherence", lambda v: v * (1 + 1e-6)),
        ("coherence", "coherence_index", lambda v: v + 1),
        ("spark", "mutual_coherence_bound", lambda v: v + 1e-3),
        ("spark", "coherence_index_bound", lambda v: v + 1),
        ("coherence", "top_coherence_sum", lambda v: v * 1.01),
    ],
)
def test_check_bounds_catches_each_wrong_bound(block, key, value):
    tree = report_tree(PLANTED, exact=False)
    tree[block][key] = value(tree[block][key])
    assert check_bounds(tree, reference_bounds(PLANTED))


def test_reference_index_accepts_both_sides_of_a_rounding_tie():
    # spiked identity n = 10: 0.8 + 0.6/3 sums to 1 up to rounding
    data = sc.spiked_identity(10).data
    assert reference_bounds(data).index_choices >= {2}
    assert check_bounds(report_tree(data, exact=False), reference_bounds(data)) == []


def test_check_certificate_catches_unsound_unique_verdict():
    # x on columns 0 and 1 of the planted dependency: solutions on {0, 2}
    # and {1, 2} are as sparse, so UNIQUE is wrong
    x = np.zeros(10)
    x[[0, 1]] = (1.0, 2.0)
    b = PLANTED @ x
    oracle = sc.sparsest_oracle(sc.build_matrix(PLANTED), b, 2)
    cert = report_tree(PLANTED, x)["certificate"]
    allowed = expected_verdicts(2, reference_spark(PLANTED), reference_bounds(PLANTED))
    assert cert["verdict"] == "inconclusive"
    assert check_certificate(cert, 2, allowed, oracle, (0, 1)) == []
    forged = dict(cert, verdict="unique_by_coherence_index")
    assert check_certificate(forged, 2, allowed, oracle, (0, 1))
    # the oracle alone catches it even when the expected set were too lax
    lax = frozenset({"unique_by_coherence_index", "inconclusive"})
    assert check_certificate(forged, 2, lax, oracle, (0, 1))


def test_check_certificate_catches_wrong_verdict_and_l0():
    x = np.zeros(10)
    x[[4, 7]] = (1.5, -2.0)
    cert = report_tree(PLANTED, x)["certificate"]
    allowed = expected_verdicts(2, reference_spark(PLANTED), reference_bounds(PLANTED))
    assert check_certificate(dict(cert, verdict="unique_by_spark"), 2, allowed)
    assert check_certificate(dict(cert, l0=3), 2, allowed)


def test_text_report_reads_like_json_report():
    x = np.zeros(10)
    x[[4, 7]] = (1.5, -2.0)
    from_text = report_tree(PLANTED, x, text=True)
    from_json = report_tree(PLANTED, x)
    for block, fields in {
        "coherence": ("mutual_coherence", "coherence_index", "top_coherence_sum"),
        "spark": ("mutual_coherence_bound", "coherence_index_bound", "exact", "witness"),
        "certificate": ("l0", "verdict"),
    }.items():
        for field in fields:
            assert from_text[block][field] == from_json[block][field], (block, field)


def test_independent_parsers_read_sparkcert_writers():
    data = np.random.Generator(np.random.PCG64(1)).standard_normal((3, 4))
    assert np.array_equal(parse_matrix_text(sc.write_csv(data)), data)
    assert np.array_equal(parse_matrix_text(sc.write_matrix_market(data)), data)


def test_percentile_interpolates_between_ranks():
    values = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert percentile(values, 50) == 3.0
    assert percentile(values, 0) == 1.0
    assert percentile(values, 100) == 5.0
    assert percentile(values, 90) == pytest.approx(4.6)
    assert percentile([2.0], 90) == 2.0
    assert percentile([1.0, 2.0], 50) == 1.5


def test_per_op_medians_follow_each_op_across_cycles():
    cycles = [[1.0, 5.0, 2.0], [2.0, 3.0, 2.5], [9.0, 4.0, 2.0]]
    assert per_op_medians(cycles) == [2.0, 4.0, 2.0]
    assert per_op_medians([[4.0, 1.0], [2.0, 3.0]]) == [3.0, 2.0]


def test_samples_beyond_and_tail_percentile():
    assert samples_beyond(100, 90) == 10
    assert samples_beyond(99, 90) == 9
    assert samples_beyond(110, 90) == 11
    assert samples_beyond(1000, 99) == 10
    assert tail_percentile(99) is None
    assert tail_percentile(100) == 90
    assert tail_percentile(999) == 90
    assert tail_percentile(1000) == 99


def test_quartile_spread_uses_statistics_quantiles():
    values = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert quartile_spread(values) == pytest.approx((q3 - q1) / 5.5)
    assert quartile_spread([2.0] * 10) == 0.0


def test_run_cycles_gives_each_runner_the_same_number_of_cycles():
    import run

    order = []

    def runner(name):
        def run_op(op, cycle, tally):
            order.append(name)
            time.sleep(0.002)
            return op

        return run_op

    assert run.run_cycles([1], 0.0, [runner("a"), runner("b")], run.Tally()) == [[[1]], [[1]]]
    order.clear()
    first, second = run.run_cycles([1, 2], 0.03, [runner("a"), runner("b")], run.Tally())
    assert len(first) == len(second) >= 1
    assert first[0] == second[-1] == [1, 2]
    assert order[:4] == ["a", "a", "b", "b"]


def test_self_time_subtracts_children():
    tracer = Tracer()
    with tracer.span("op.analyze", "a"):
        with tracer.span("formats.parse_csv", "a"):
            pass
        with tracer.span("spark.exact_spark", "a"):
            pass
    outer, parse, search = tracer.spans
    assert parse.parent == 0 and search.parent == 0 and outer.parent is None
    totals = tracer.self_times()
    children = (parse.end - parse.start) + (search.end - search.start)
    assert totals["op"] == pytest.approx(outer.end - outer.start - children)
    assert totals["formats"] == pytest.approx(parse.end - parse.start)
    disabled = Tracer(enabled=False)
    with disabled.span("op.analyze", "a"):
        pass
    assert disabled.spans == []


def test_gathered_bytes_counts_sizes_in_order():
    # 3 columns: three 1-subsets, then one 2-subset, of 2 rows of doubles
    assert gathered_bytes(2, 3, 4) == 3 * 2 * 1 * 8 + 1 * 2 * 2 * 8
    assert gathered_bytes(2, 3, 0) == 0
