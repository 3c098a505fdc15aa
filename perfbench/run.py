"""Seeded benchmark for sparkcert: end-to-end CLI runs, or a traced run per layer.

Run from the root of a sparkcert source tree:

    python3 perfbench/run.py --workload exact-search --seed 1 --seconds 30 --trace 0

Workloads (see workloads.py): exact-search, bounds-large, cli-small. Each
is a closed loop with one client. Operations drive the CLI's argv
contract: exact-search and bounds-large call ``sparkcert.cli.main(argv)``
in one long-lived process (worker.py); cli-small starts one ``python -m
sparkcert.cli`` process per step. Operations run in whole passes over a
fixed cycle, so every run measures the same mix; after one untimed op
to warm up, another round of cycles starts only while the last one
still fits in ``--seconds``.

``--trace 0`` times the CLI in alternating cycles with ``--workers 1`` and
``--workers 2``. Each op is timed in refs: the CPU seconds (user plus
system, all threads) that the sparkcert process spends on it, divided by
the CPU seconds of a fixed reference (calibrate.py) run on the same core
just before and just after it. The reference is a loop inside the
worker, or for cli-small a process of its own. On a small VM of a shared
host the same code runs up to 1.7x slower in spells of seconds, in CPU
time as in wall time; the ratio cancels that. CPU and wall-clock rates
are printed and recorded beside the metrics. ops_per_kref is the rate,
per 1000 refs, of one cycle with each op at its median; latency_p50_ref
is the median over all ``--workers 1`` ops, and the highest percentile
with at least ten samples beyond it is printed when there are enough.
``--trace 1`` instead calls each layer's public functions directly
(traced.py), in alternating untraced and traced cycles, and reports
per-layer wall time, self time, exact counts and the tracing overhead.
Metric names and units come from BENCHMARK.json.

Every answer is checked against reference.py. An op with a wrong answer
or an unexpected exit code counts as failed, and so does a work count
that differs between cycles or from an earlier run of the same seed and
sources; any failure makes the exit code 1. The last line of stdout is
one JSON object with correct, attempted, failed and metrics. Set-up
(inputs, files, program start) runs SETUP_REPEATS times and setup_s is
the median. Records and spans go to ``.bench_work/`` in the source tree.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.util
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

# One BLAS thread per process keeps scan threads plus BLAS threads within
# two cores when the search runs with --workers 2. Set before numpy loads.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS
for _var in ("SPARK_CERT_BUDGET", "SPARK_CERT_BACKEND"):
    os.environ.pop(_var, None)

import numpy as np  # noqa: E402

import reference as ref  # noqa: E402
from stats import MIN_TAIL_SAMPLES, per_op_medians, percentile, tail_percentile  # noqa: E402
from tracing import Tracer  # noqa: E402

# Modules that import sparkcert (workloads, traced) load inside functions,
# after main() has checked that this tree's src/ comes first on sys.path.

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
HERE = os.path.dirname(os.path.abspath(__file__))
WORK = os.path.join(ROOT, ".bench_work")

SETUP_REPEATS = 9
# Shares of --seconds in the traced run: untraced and traced library calls in
# alternating cycles, then traced --workers 2; in-process main() gets one cycle.
TRACE_SHARES = (0.6, 0.2)
PROBE_REPEATS = 5
PROC_TIMEOUT = 120

TIMED_SPANS = (
    "formats.parse_csv", "formats.parse_matrix_market",
    "matrix.build_matrix", "matrix.gram_matrix",
    "coherence.pairwise_coherences", "coherence.coherence_profile",
    "spark.exact_spark", "uniqueness.certify",
    "report.build_report", "report.report_to_json", "report.render_text",
    "report.report_from_json",
)
# Work counts that must repeat exactly, per cycle, across cycles and runs.
COUNTS = ("formats.input_bytes", "coherence.pairs", "spark.exact_spark.subsets",
          "spark.exact_spark.gathered_bytes")
LAYERS = ("formats", "matrix", "coherence", "spark", "uniqueness", "report", "generators", "op")


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    return env


class Worker:
    """A worker.py process that runs CLI command lines in-process."""

    def __init__(self, workdir: str) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "worker.py")],
            cwd=workdir, env=child_env(), stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            text=True,
        )
        ready = self._receive()
        if not ready.get("ready") or not ready["file"].startswith(SRC + os.sep):
            self.close()
            raise RuntimeError(f"worker imported sparkcert from {ready.get('file')}")

    def _receive(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("worker exited")
        return json.loads(line)

    def request(self, message: dict) -> dict:
        self.proc.stdin.write(json.dumps(message) + "\n")
        self.proc.stdin.flush()
        return self._receive()

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def run_cli_process(argv: list[str], workdir: str) -> dict:
    """One sparkcert process; ``cpu`` is its user plus system CPU seconds."""
    start = children_cpu()
    done = subprocess.run(
        [sys.executable, "-m", "sparkcert.cli", *argv], cwd=workdir, env=child_env(),
        capture_output=True, text=True, timeout=PROC_TIMEOUT,
    )
    return {"rc": done.returncode, "out": done.stdout, "err": done.stderr,
            "cpu": children_cpu() - start}


class CalibratedProcesses:
    """Runs each command line as a sparkcert process, with a reference
    process (calibrate.py) before the first and after each one.

    ``ref`` in a result is the mean CPU seconds of the reference processes
    just before and just after it.
    """

    def __init__(self, workdir: str) -> None:
        self.workdir = workdir
        self.last_ref: float | None = None

    def reference(self) -> float:
        start = children_cpu()
        subprocess.run([sys.executable, os.path.join(HERE, "calibrate.py")], cwd=self.workdir,
                       env=child_env(), timeout=PROC_TIMEOUT, check=True)
        return children_cpu() - start

    def __call__(self, argv: list[str]) -> dict:
        before = self.reference() if self.last_ref is None else self.last_ref
        result = run_cli_process(argv, self.workdir)
        self.last_ref = self.reference()
        result["ref"] = (before + self.last_ref) / 2.0
        return result


def run_cli_inprocess(argv: list[str], workdir: str) -> dict:
    from sparkcert.cli import main as cli_main

    out, err = io.StringIO(), io.StringIO()
    here = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli_main(argv)
    finally:
        os.chdir(here)
    return {"rc": rc, "out": out.getvalue(), "err": err.getvalue()}


# ---------------------------------------------------------------- set-up


def setup_once(build, seed: int, workdir: str, launch: str, tracer, op: str):
    """Make the inputs, write them and start the program.

    Returns (seconds, inputs, file texts by path, worker or None).
    """
    from workloads import render

    start = time.perf_counter()
    inputs = build(seed)
    files = render(inputs, tracer, op)
    os.makedirs(workdir, exist_ok=True)
    for path, text in files.items():
        with open(os.path.join(workdir, path), "w", encoding="utf-8") as handle:
            handle.write(text)
    worker = None
    if launch == "worker":
        worker = Worker(workdir)
    else:
        probe = run_cli_process(["--version"], workdir)
        if probe["rc"] != 0:
            raise RuntimeError(f"sparkcert --version failed: {probe['err']}")
    return time.perf_counter() - start, inputs, files, worker


class References:
    """Reference answers for every input of a workload, computed once."""

    def __init__(self, inputs, files: dict[str, str]) -> None:
        import sparkcert as sc

        self.bounds, self.spark, self.oracle = {}, {}, {}
        exact_paths = {s.path for op in inputs.ops for s in op.steps if s.exact}
        data = {}
        for path, (_, fmt) in inputs.arrays.items():
            if fmt != "vector":
                data[path] = ref.parse_matrix_text(files[path])
                self.bounds[path] = ref.reference_bounds(data[path])
        for path in exact_paths:
            self.spark[path] = ref.reference_spark(data[path])
        for op in inputs.ops:
            for step in op.steps:
                if step.command == "certify" and step.exact:
                    b = np.array([float(v) for v in files[step.b_path].split()])
                    l0 = len(inputs.supports[step.path])
                    self.oracle[step.path] = sc.sparsest_oracle(
                        sc.build_matrix(data[step.path]), b, l0
                    )
        self.supports = inputs.supports


def check_step(step, result: dict, refs: References) -> tuple[list[str], bool]:
    """Problems with one step's output, and whether it settled its question."""
    rc, out = result["rc"], result["out"]
    try:
        if step.command == "gen":
            if rc != 0:
                return [f"gen exit code {rc}: {result['err'].strip()}"], True
            flags = dict(zip(step.gen[1::2], step.gen[2::2]))
            rng = np.random.Generator(np.random.PCG64(int(flags["--seed"])))
            want = rng.standard_normal((int(flags["--n"]), int(flags["--m"])))
            is_mm = out.startswith("%%MatrixMarket")
            if is_mm != (flags.get("--format") == "mm"):
                return ["gen wrote the wrong format"], True
            got = ref.parse_matrix_text(out)
            return ([] if np.array_equal(got, want) else ["gen output differs"]), True
        if step.command == "certify" and rc == 2:
            return [], False
        if rc not in (0, 2) or (rc == 2 and step.command != "analyze"):
            return [f"{step.command} exit code {rc}: {result['err'].strip()[-300:]}"], True
        tree = ref.text_report_tree(out) if step.text else json.loads(out)
        problems = ref.check_bounds(tree, refs.bounds[step.path])
        settled = True
        if step.exact:
            found, settled = ref.check_spark(tree["spark"], refs.spark[step.path])
            problems += found
        if (rc == 2) != (not settled):
            problems.append(f"exit code {rc} does not match the search outcome")
        if step.command == "certify":
            support = refs.supports[step.path]
            allowed = ref.expected_verdicts(
                len(support), refs.spark[step.path] if step.exact else None,
                refs.bounds[step.path],
            )
            problems += ref.check_certificate(
                tree["certificate"], len(support), allowed, refs.oracle.get(step.path), support
            )
        return problems, settled
    except (KeyError, ValueError, TypeError, IndexError) as exc:
        return [f"unreadable {step.command} output: {exc!r}"], True


def subsets_of(step, result: dict) -> int | None:
    if step.command != "analyze" or step.text or not step.exact:
        return None
    try:
        return json.loads(result["out"])["spark"]["subsets_examined"]
    except (ValueError, KeyError, TypeError):
        return None


# ---------------------------------------------------------------- phases


class Tally:
    """Ops attempted, failures with their reasons, and unsettled searches."""

    def __init__(self) -> None:
        self.attempted = 0
        self.unsettled = 0
        self.problems: list[str] = []
        self.examined: dict[str, int] = {}

    def record(self, op_name: str, problems: list[str], settled: bool) -> None:
        self.attempted += 1
        if problems:
            self.problems.append(f"{op_name}: " + "; ".join(problems))
        elif not settled:
            self.unsettled += 1

    def same_count(self, key: str, value) -> list[str]:
        """Flag a work count that differs from the one seen before under `key`."""
        if value is None:
            return []
        seen = self.examined.setdefault(key, value)
        return [] if seen == value else [f"{key} varies: {seen} then {value}"]


def run_cycles(ops, seconds: float, runners, tally: Tally) -> list[list[list]]:
    """Rounds of one cycle over `ops` per runner, in turn, while another round fits.

    Returns, per runner, what each op of each of its cycles returned. Every
    runner gets the same number of cycles, at least one; alternating spreads
    slow spells of the machine over all runners.
    """
    per_runner: list[list[list]] = [[] for _ in runners]
    start, k = time.perf_counter(), 0
    while True:
        if k % len(runners) == 0:
            round_start = time.perf_counter()
        which = k % len(runners)
        per_runner[which].append([runners[which](op, k // len(runners), tally) for op in ops])
        k += 1
        now = time.perf_counter()
        if k % len(runners) == 0 and now - start + (now - round_start) > seconds:
            return per_runner


def op_runner(do_step, refs: References):
    """An op for run_cycles: each step goes through do_step(step, op_id, cycle), timed and checked.

    The op returns (wall seconds, CPU seconds, refs), each summed over its
    steps. CPU seconds are those the program reports with a step's result,
    and refs are each step's CPU seconds divided by the CPU seconds of the
    reference (calibrate.py) reported with it; both are None when a result
    has none.
    """

    def run_op(op, cycle: int, tally: Tally) -> tuple[float, float | None, float | None]:
        elapsed, cpu, units, problems, settled = 0.0, 0.0, 0.0, [], True
        for k, step in enumerate(op.steps):
            start = time.perf_counter()
            result = do_step(step, f"{op.name}#{cycle}.{k}", cycle)
            elapsed += time.perf_counter() - start
            if cpu is None or "cpu" not in result:
                cpu = units = None
            else:
                cpu += result["cpu"]
                units += result["cpu"] / result["ref"]
            found, step_settled = check_step(step, result, refs)
            problems += found + tally.same_count(
                f"{op.name}.subsets_examined", subsets_of(step, result)
            )
            settled = settled and step_settled
        tally.record(op.name, problems, settled)
        return elapsed, cpu, units

    return run_op


def cli_steps(call, workers: int):
    """Steps as CLI command lines, handed to call(argv)."""
    return lambda step, op_id, cycle: call(step.argv(workers))


def library_steps(workdir: str, workers: int, tracer: Tracer, cycle_counts: list):
    """Steps as traced.py library calls; cycle_counts[c] collects the Counts of cycle c."""
    from traced import Counts, run_step

    def do_step(step, op_id: str, cycle: int) -> dict:
        while len(cycle_counts) <= cycle:
            cycle_counts.append(Counts())
        rc, out = run_step(step, workdir, workers, tracer, op_id, cycle_counts[cycle])
        return {"rc": rc, "out": out, "err": ""}

    return do_step


WALL, CPU, REFS = 0, 1, 2


def timings(cycles: list[list[tuple]], which: int) -> list[list[float]]:
    """One timing out of each op's (wall, cpu, refs): WALL, CPU or REFS."""
    return [[op[which] for op in cycle] for cycle in cycles]


def ops_per_s(cycles: list[list[float]]) -> float:
    """Closed loop, one client: ops per second of one cycle, each op at its median time."""
    typical = per_op_medians(cycles)
    return len(typical) / sum(typical)


# ---------------------------------------------------------------- records


def source_digest() -> str:
    """Hash of sparkcert's and this benchmark's Python sources."""
    digest = hashlib.sha256()
    for package in (os.path.join(SRC, "sparkcert"), HERE):
        for name in sorted(os.listdir(package)):
            if name.endswith(".py"):
                with open(os.path.join(package, name), "rb") as handle:
                    digest.update(name.encode() + b"\0" + handle.read())
    return digest.hexdigest()[:16]


def git_commit() -> str | None:
    """HEAD of the source tree, read from .git without running git; None outside a repository."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD"), encoding="utf-8") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        branch = head[5:]
        branch_path = os.path.join(ROOT, ".git", branch)
        if os.path.exists(branch_path):
            with open(branch_path, encoding="utf-8") as handle:
                return handle.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs"), encoding="utf-8") as handle:
            for line in handle:
                if line.rstrip().endswith(" " + branch):
                    return line.split()[0]
    except OSError:
        pass
    return None


def machine_record(workload: str, seed: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas_name = "unknown"
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    return {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": int(BLAS_THREADS),
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
    }


def check_counts_across_runs(key: str, counts: dict) -> list[str]:
    """Compare this run's exact counts with an earlier run of the same key, then store them."""
    path = os.path.join(WORK, "counts.json")
    try:
        with open(path, encoding="utf-8") as handle:
            known = json.load(handle)
    except (OSError, ValueError):
        known = {}
    before = known.setdefault(key, counts)
    problems = [
        f"{name} was {before.get(name)} in an earlier run, now {value}"
        for name, value in counts.items()
        if before.get(name) != value
    ]
    with open(path + ".tmp", "w", encoding="utf-8") as handle:
        json.dump(known, handle, indent=1)
    os.replace(path + ".tmp", path)
    return problems


# ---------------------------------------------------------------- modes


def measure_end_to_end(inputs, refs, worker, workdir, seconds, tally) -> tuple[dict, dict]:
    if worker is not None:
        call = lambda argv: worker.request({"argv": argv})  # noqa: E731
    else:
        call = CalibratedProcesses(workdir)
    # sparkcert and reference processes inherit this process's single core;
    # the worker runs its reference loop itself, on the core it runs on
    cpus = os.sched_getaffinity(0)
    if worker is None:
        os.sched_setaffinity(0, {min(cpus)})
    try:
        run_cycles(inputs.ops[:1], 0.0, [op_runner(cli_steps(call, 1), refs)], tally)  # warm-up
        warm_attempted, warm_unsettled = tally.attempted, tally.unsettled
        w1, w2 = run_cycles(inputs.ops, seconds, [
            op_runner(cli_steps(call, 1), refs), op_runner(cli_steps(call, 2), refs)
        ], tally)
    finally:
        os.sched_setaffinity(0, cpus)
    if worker is not None:
        rss = worker.request({"rss": True})["rss_mb"]
    else:
        rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    refs1, refs2 = timings(w1, REFS), timings(w2, REFS)
    lat1 = [latency for cycle in refs1 for latency in cycle]
    metrics = {
        "ops_per_kref": 1000.0 * ops_per_s(refs1),
        "latency_p50_ref": percentile(lat1, 50),
        "ops_per_kref_w2": 1000.0 * ops_per_s(refs2),
        "peak_rss_mb": rss,
        "settled_ratio": 1.0 - (tally.unsettled - warm_unsettled)
        / (tally.attempted - warm_attempted),
    }
    cpu1, wall1 = timings(w1, CPU), timings(w1, WALL)
    q = tail_percentile(len(lat1))
    extra = {
        "cycles_w1": len(w1), "cycles_w2": len(w2), "ops_per_cycle": len(inputs.ops),
        "tail_percentile": q,
        "latency_tail_ref": None if q is None else percentile(lat1, q),
        "ref_cpu_s": statistics.median(op[CPU] / op[REFS] for cycle in w1 for op in cycle),
        "cpu_ops_per_s": ops_per_s(cpu1),
        "wall_ops_per_s": ops_per_s(wall1),
        "wall_ops_per_s_w2": ops_per_s(timings(w2, WALL)),
        "wall_latency_p50_s": percentile([t for cycle in wall1 for t in cycle], 50),
        "ops_w1": w1, "ops_w2": w2,
    }
    return metrics, extra


def mean_span(tracers, name: str) -> float:
    durations = [d for tracer in tracers for d in tracer.durations(name)]
    return sum(durations) / len(durations) if durations else 0.0


def probe_seconds(argv: list[str], workdir: str, printed: bool) -> float:
    """Median wall time of a fresh interpreter, or of the time it prints."""
    times = []
    for _ in range(PROBE_REPEATS):
        start = time.perf_counter()
        done = subprocess.run([sys.executable, *argv], cwd=workdir, env=child_env(),
                              capture_output=True, text=True, timeout=PROC_TIMEOUT, check=True)
        wall = time.perf_counter() - start
        times.append(float(done.stdout) if printed else wall)
    return statistics.median(times)


def measure_layers(inputs, refs, workdir, seconds, tally, setup_tracer) -> tuple[dict, dict]:
    untraced, traced, traced_w2, main_tracer = (
        Tracer(enabled=False), Tracer(), Tracer(), Tracer()
    )
    counts_a, counts_b = [], []
    warm_up = op_runner(library_steps(workdir, 1, untraced, []), refs)
    run_cycles(inputs.ops[:1], 0.0, [warm_up], tally)
    cycles_a, cycles_b = (timings(cycles, WALL) for cycles in run_cycles(
        inputs.ops, seconds * TRACE_SHARES[0], [
            op_runner(library_steps(workdir, 1, untraced, counts_a), refs),
            op_runner(library_steps(workdir, 1, traced, counts_b), refs),
        ], tally))
    exact_ops = [op for op in inputs.ops if any(step.exact for step in op.steps)]
    cycles_c = []
    if exact_ops:
        (cycles_c,) = run_cycles(exact_ops, seconds * TRACE_SHARES[1], [
            op_runner(library_steps(workdir, 2, traced_w2, []), refs)
        ], tally)

    def traced_main(argv: list[str]) -> dict:
        with main_tracer.span("cli.main", argv[0]):
            return run_cli_inprocess(argv, workdir)

    run_cycles(inputs.ops, 0.0, [op_runner(cli_steps(traced_main, 1), refs)], tally)

    first = counts_b[0]
    for k, counts in enumerate(counts_a + counts_b):
        if counts != first:
            tally.problems.append(f"work counts of cycle {k} differ: {counts} vs {first}")
    exact_b = sum(traced.durations("spark.exact_spark")) / len(cycles_b)
    exact_c = sum(traced_w2.durations("spark.exact_spark")) / len(cycles_c) if cycles_c else 0.0
    # per-op subsets are checked equal across passes and worker counts by
    # Tally.same_count, so the --workers 2 pass scanned first.subsets too

    metrics = {f"{name}.s": mean_span([traced], name) for name in TIMED_SPANS}
    metrics["formats.write_csv.s"] = mean_span([setup_tracer, traced], "formats.write_csv")
    bounds_s = mean_span([traced], "spark.analyze_spark")
    profile_s = metrics["coherence.coherence_profile.s"]
    ops_b = len(cycles_b) * len(inputs.ops)
    self_times = traced.self_times()
    metrics.update({
        "formats.input_bytes": first.input_bytes,
        "coherence.pairs": first.pairs,
        "spark.analyze_spark.bounds_s": bounds_s,
        "spark.analyze_spark.profile_ratio": bounds_s / profile_s if profile_s else 0.0,
        "spark.exact_spark.subsets": first.subsets,
        "spark.exact_spark.gathered_bytes": first.gathered_bytes,
        "spark.exact_spark.us_per_subset": 1e6 * exact_b / first.subsets if first.subsets else 0.0,
        "spark.exact_spark.us_per_subset_w2": 1e6 * exact_c / first.subsets if exact_c else 0.0,
        "spark.exact_spark.parallel_speedup": exact_b / exact_c if exact_c else 0.0,
        "cli.interpreter_s": probe_seconds(["-c", "pass"], workdir, printed=False),
        "cli.import_s": probe_seconds(
            ["-c", "import time; t = time.perf_counter(); import sparkcert.cli; "
                   "print(time.perf_counter() - t)"], workdir, printed=True),
        "cli.main_s": mean_span([main_tracer], "cli.main"),
        "trace.ops_per_s": ops_per_s(cycles_b),
        "trace.ops_per_s_untraced": ops_per_s(cycles_a),
        "trace.overhead_ratio": ops_per_s(cycles_a) / ops_per_s(cycles_b),
    })
    for layer in LAYERS:
        metrics[f"self.{layer}.s"] = self_times.get(layer, 0.0) / ops_b
    counts = {name: metrics[name] for name in COUNTS}
    spans = {"setup": setup_tracer, "traced": traced, "traced_w2": traced_w2, "main": main_tracer}
    return metrics, {"counts": counts, "spans": spans, "ops_traced": ops_b}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not os.path.isfile(os.path.join(SRC, "sparkcert", "cli.py")):
        print(f"perfbench: no sparkcert sources under {SRC}; run from the source tree root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import sparkcert

    if not os.path.abspath(sparkcert.__file__).startswith(SRC + os.sep):
        print(f"perfbench: sparkcert imported from {sparkcert.__file__}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        declared = json.load(handle)
    units = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}
    build, launch = WORKLOADS[args.workload]
    workdir = os.path.join(WORK, f"{args.workload}-{args.seed}")
    setup_tracer = Tracer(enabled=bool(args.trace))
    tally = Tally()
    setup_times, worker = [], None
    try:
        for k in range(SETUP_REPEATS):
            if worker is not None:
                worker.close()
            seconds, inputs, files, worker = setup_once(
                build, args.seed, workdir, launch, setup_tracer, f"setup#{k}"
            )
            setup_times.append(seconds)
        refs = References(inputs, files)
        if args.trace:
            if worker is not None:
                worker.close()
                worker = None
            metrics, extra = measure_layers(inputs, refs, workdir, args.seconds, tally,
                                            setup_tracer)
            key = f"{args.workload}|{args.seed}|{source_digest()}"
            tally.problems += check_counts_across_runs(key, extra["counts"])
        else:
            metrics, extra = measure_end_to_end(inputs, refs, worker, workdir, args.seconds,
                                                tally)
            metrics["setup_s"] = statistics.median(setup_times)
    finally:
        if worker is not None:
            worker.close()
        shutil.rmtree(workdir, ignore_errors=True)

    if set(metrics) != set(units):
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ set(units))}")
    metrics = {name: metrics[name] for name in units}
    failed = len(tally.problems)
    machine = machine_record(args.workload, args.seed)
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"seconds={args.seconds:g}")
    print("machine: " + json.dumps(machine))
    print(f"set-up: {SETUP_REPEATS} runs, " + ", ".join(f"{t:.4f}" for t in setup_times) + " s")
    for name, value in metrics.items():
        print(f"  {name:<40} {value:>14.6g} {units[name]}")
    if not args.trace:
        q = extra["tail_percentile"]
        tail = (f"latency_p{q}_ref {extra['latency_tail_ref']:.6g} ref" if q is not None
                else f"no tail percentile: fewer than {MIN_TAIL_SAMPLES} samples beyond p90")
        ops = extra["ops_per_cycle"]
        print(f"  workers 1: {ops * extra['cycles_w1']} ops in {extra['cycles_w1']} cycles; {tail}")
        print(f"  workers 2: {ops * extra['cycles_w2']} ops in {extra['cycles_w2']} cycles")
        print(f"  1 ref = {extra['ref_cpu_s']:.6g} CPU s here (median of this run); not metrics: "
              f"CPU ops_per_s {extra['cpu_ops_per_s']:.6g}, wall ops_per_s "
              f"{extra['wall_ops_per_s']:.6g}, wall ops_per_s_w2 {extra['wall_ops_per_s_w2']:.6g}, "
              f"wall latency_p50_s {extra['wall_latency_p50_s']:.6g}")
        print(f"  failed_ratio {failed / tally.attempted:.6g}, "
              f"unsettled_ratio {tally.unsettled / tally.attempted:.6g} "
              f"of {tally.attempted} ops")
    else:
        print("  exact counts per cycle: " + json.dumps(extra["counts"]))
    for problem in tally.problems[:20]:
        print(f"FAILED {problem}")

    os.makedirs(WORK, exist_ok=True)
    stem = os.path.join(WORK, f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}")
    if args.trace:
        with open(stem + "_spans.json", "w", encoding="utf-8") as handle:
            json.dump({name: [vars(s) for s in tracer.spans]
                       for name, tracer in extra.pop("spans").items()}, handle)
    result = {
        "correct": failed == 0,
        "attempted": tally.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    with open(stem + ".json", "w", encoding="utf-8") as handle:
        json.dump({"machine": machine, "setup_s": setup_times, "extra": extra,
                   "problems": tally.problems, **result}, handle, indent=1)
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
