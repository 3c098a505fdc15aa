"""Acceptance suite.

Each test exercises one acceptance criterion end to end at its stated
tolerance and prints a single PASS/FAIL line on the live terminal. The
random sweeps are fully seeded, so failures reproduce deterministically.
"""

import math
from contextlib import contextmanager

import numpy as np
import pytest

from sparkcert import (
    Verdict,
    analyze_spark,
    build_matrix,
    build_report,
    certify,
    coherence_profile,
    exact_spark,
    gram_minor,
    is_diagonally_dominant,
    numerical_rank,
    parse_csv,
    parse_matrix_market,
    random_matrix,
    report_from_json,
    report_to_json,
    sparsest_oracle,
    spiked_identity,
    top_coherence_sum,
    write_csv,
    write_matrix_market,
)
from sparkcert.cli import main


@contextmanager
def criterion(capsys, number, name):
    ok = False
    try:
        yield
        ok = True
    finally:
        with capsys.disabled():
            print(f"ACCEPTANCE {number} ({name}): {'PASS' if ok else 'FAIL'}")


GOLDEN_NS = (2, 5, 10, 17)


def closed_form_index_bound(n):
    return 2 + math.ceil(math.sqrt(n - 1) / 3)


def test_criterion_1_golden_suite(capsys):
    """Benchmark family: exact spark, both bounds, via the bench subcommand."""
    with criterion(capsys, 1, "golden benchmark family"):
        code = main(["bench", "example31", "--n-list", ",".join(map(str, GOLDEN_NS))])
        out = capsys.readouterr().out
        assert code == 0
        rows = [
            line.split()
            for line in out.splitlines()
            if line and not line.startswith("#") and line.split()[0].isdigit()
        ]
        assert [int(r[0]) for r in rows] == list(GOLDEN_NS)
        for r in rows:
            n = int(r[0])
            exact = int(r[3])
            index_bound = int(r[4])
            coherence_bound = float(r[5])
            assert exact == n + 1
            assert index_bound == closed_form_index_bound(n)
            assert index_bound == {2: 3, 5: 3, 10: 3, 17: 4}[n]
            assert abs(coherence_bound - 2.25) <= 1e-12


def test_criterion_2_top_sum_property(capsys):
    """500 seeded wide matrices all have top-rows coherence sum >= 1."""
    with criterion(capsys, 2, "top coherence sum >= 1 on 500 matrices"):
        dims = ((2, 4), (4, 8), (6, 10), (8, 12))
        failures = 0
        for seed in range(500):
            rows, cols = dims[seed % len(dims)]
            m = random_matrix(rows, cols, seed=seed)
            if not top_coherence_sum(m) >= 1.0 - 1e-12:
                failures += 1
        assert failures == 0


BOUND_CHAIN_DIMS = (
    (2, 6), (3, 7), (4, 8), (5, 9), (6, 10), (2, 10), (4, 10), (6, 8),
)


@pytest.fixture(scope="module")
def bound_chain_cases():
    cases = []
    for seed in range(200):
        rows, cols = BOUND_CHAIN_DIMS[seed % len(BOUND_CHAIN_DIMS)]
        m = random_matrix(rows, cols, seed=10_000 + seed)
        cases.append((m, analyze_spark(m, compute_exact=True)))
    return cases


def test_criterion_3_bound_chain(capsys, bound_chain_cases):
    """exact >= index bound >= coherence bound, plus the proof-strength form."""
    with criterion(capsys, 3, "bound chain on 200 matrices"):
        failures = 0
        for m, report in bound_chain_cases:
            profile = coherence_profile(m)
            exact = report.exact
            if exact is None or exact == math.inf:
                failures += 1
                continue
            if not exact >= report.coherence_index_bound:
                failures += 1
            if not report.coherence_index_bound >= report.mutual_coherence_bound:
                failures += 1
            if not profile.coherence_index >= math.ceil(1.0 / profile.mutual_coherence):
                failures += 1
        assert failures == 0


def test_criterion_4_gershgorin_mechanism(capsys, bound_chain_cases):
    """Diagonally dominant Gram minors always come from full-rank subsets."""
    with criterion(capsys, 4, "Gershgorin dominance implies full rank"):
        failures = 0
        dominant = 0
        for trial in range(1000):
            m, _ = bound_chain_cases[trial % len(bound_chain_cases)]
            rng = np.random.Generator(np.random.PCG64(50_000 + trial))
            size = int(rng.integers(2, min(m.rows, m.cols) + 1))
            indices = tuple(
                sorted(int(j) for j in rng.choice(m.cols, size=size, replace=False))
            )
            minor = gram_minor(m, indices)
            if is_diagonally_dominant(minor):
                dominant += 1
                sub = m.data[:, list(indices)]
                if numerical_rank(sub) != size:
                    failures += 1
        assert dominant > 0
        assert failures == 0


def test_criterion_5_uniqueness_soundness(capsys):
    """Certified verdicts are confirmed by the brute-force oracle."""
    with criterion(capsys, 5, "uniqueness soundness + discriminating case"):
        unique_verdicts = 0
        for seed in range(100):
            m = random_matrix(6, 10, seed=70_000 + seed)
            rng = np.random.Generator(np.random.PCG64(80_000 + seed))
            x = np.zeros(10)
            pos = int(rng.integers(0, 10))
            x[pos] = float(rng.uniform(1.0, 2.0)) * (1.0 if seed % 2 else -1.0)
            b = m.data @ x
            cert = certify(m, x, b)
            if cert.verdict in (
                Verdict.UNIQUE_BY_SPARK,
                Verdict.UNIQUE_BY_INDEX,
                Verdict.UNIQUE_BY_COHERENCE,
            ):
                unique_verdicts += 1
                result = sparsest_oracle(m, b, k_max=2)
                assert result.sparsity == 1
                assert len(result.solutions) == 1
                assert np.allclose(result.solutions[0].to_vector(10), x, atol=1e-9)
        assert unique_verdicts > 0

        # 2-sparse candidate where only the index criterion certifies
        m = spiked_identity(50)
        x = np.zeros(51)
        x[0] = 1.0
        x[7] = -1.0
        b = m.data @ x
        cert = certify(m, x, b)
        assert cert.l0 == 2
        assert cert.index_threshold == 2.5
        assert abs(cert.coherence_threshold - 1.125) <= 1e-12
        assert cert.verdict is Verdict.UNIQUE_BY_INDEX
        assert "mutual_coherence" not in cert.criteria_passed


def test_criterion_6_general_matrix_extension(capsys):
    """Orthonormal squares: infinite bound and spark; duplicates flip both."""
    with criterion(capsys, 6, "orthonormal and duplicate-column cases"):
        failures = 0
        for seed in range(25):
            size = 2 + seed % 7
            rng = np.random.Generator(np.random.PCG64(90_000 + seed))
            q, _ = np.linalg.qr(rng.standard_normal((size, size)))
            m = build_matrix(q)
            report = analyze_spark(m, compute_exact=True)
            if report.coherence_index_bound != math.inf:
                failures += 1
            if report.exact != math.inf:
                failures += 1
            dup = build_matrix(np.column_stack([q, q[:, 0]]))
            dup_report = analyze_spark(dup, compute_exact=True)
            if dup_report.exact != 2:
                failures += 1
            if coherence_profile(dup).mutual_coherence != 1.0:
                failures += 1
        assert failures == 0


def test_criterion_7_determinism_and_io(capsys):
    """Serial/parallel agreement, JSON bit-exact round trip, CSV == MM."""
    with criterion(capsys, 7, "determinism and IO round trips"):
        # serial vs parallel on 20 seeded instances, including chunked scans
        for seed in range(20):
            if seed % 2:
                m = random_matrix(4, 24, seed=60_000 + seed)
            else:
                m = random_matrix(5, 9, seed=60_000 + seed)
            serial = exact_spark(m, workers=1)
            parallel = exact_spark(m, workers=4)
            assert serial == parallel

        # JSON round trip, bit-exact, with and without infinite fields
        matrices = [
            (spiked_identity(6), True),
            (build_matrix(np.eye(4)), False),
            (random_matrix(5, 8, seed=61_000), False),
        ]
        for m, with_cert in matrices:
            spark_report = analyze_spark(m, compute_exact=True)
            cert = None
            if with_cert:
                x = np.zeros(m.cols)
                x[0] = 1.0
                cert = certify(m, x, m.data @ x, exact=spark_report.exact)
            report = build_report(m, "acceptance", spark_report, certificate=cert, seed=3)
            text = report_to_json(report)
            parsed = report_from_json(text)
            assert parsed == report
            assert report_to_json(parsed) == text

        # CSV and Matrix Market ingestion produce identical reports
        for seed in range(5):
            m = random_matrix(4, 7, seed=62_000 + seed)
            from_csv = parse_csv(write_csv(m.data))
            from_mm = parse_matrix_market(write_matrix_market(m.data))
            assert np.array_equal(from_csv.data, from_mm.data)
            report_csv = build_report(
                from_csv, "same-source", analyze_spark(from_csv, compute_exact=True)
            )
            report_mm = build_report(
                from_mm, "same-source", analyze_spark(from_mm, compute_exact=True)
            )
            assert report_csv == report_mm
            assert report_to_json(report_csv) == report_to_json(report_mm)
