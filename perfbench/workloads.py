"""Seeded inputs and operation lists for the three workloads.

Each workload is a closed loop with one client: the next operation is sent
when the last one has completed. One operation is one or more sparkcert
command lines (``Step``); the program receives only the generated CSV or
Matrix Market text, written under the run's work directory. Shapes are
fixed per workload and the seed only changes the entries, so every seed
costs about the same.

- exact-search: ``analyze --exact --json`` on a fixed mix, in one
  long-lived process. Spiked identities (n = 11, 12, 13) scan every size
  up to n; random 4x24 and 5x17 scan every size up to rows and hit at the
  first subset of size rows+1; a planted 7x18 dependency exits early in
  the middle of size 5; a tall full-rank 30x22 runs out of its budget.
  Over 95% of the time is in the subset search. No op takes much more
  than 0.3 s, so that the reference loop run around each op (calibrate.py)
  sees the speed the op ran at; n = 14 and 15 would take 0.6 and 1.3 s.
- bounds-large: ``analyze --json`` on one random 160x800 matrix, then
  ``certify --json`` with a planted 2-sparse solution on the other; one is
  CSV and one Matrix Market, and the two ops swap them. Parsing, Gram,
  0.3M coherence pairs, report and certificate do all the work; the exact
  search never runs. At 300x1500 one op takes 3-5 s on a shared 2-vCPU
  VM, and at 200x1000 1.4 s, too few ops per 30 s run for a steady
  median; the ratio of entries to coherence pairs is 0.4 at all three
  sizes.
- cli-small: one ``sparkcert`` process per step on 6x12 matrices (``gen``,
  ``analyze --exact --json``, ``certify --exact``), where interpreter
  start and import dominate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

import sparkcert as sc

TALL_BUDGET = 10_000


@dataclass(frozen=True)
class Step:
    """One sparkcert command line of an operation.

    ``path`` is the matrix file; ``x_path``/``b_path`` make it a certify
    step; ``gen`` holds the arguments of a gen step; ``text`` asks a
    certify step for the text report instead of JSON.
    """

    command: str
    path: str = ""
    exact: bool = False
    budget: int | None = None
    x_path: str = ""
    b_path: str = ""
    text: bool = False
    gen: tuple[str, ...] = ()

    def argv(self, workers: int) -> list[str]:
        if self.command == "gen":
            return ["gen", *self.gen]
        argv = [self.command, self.path]
        if self.command == "certify":
            argv += ["--x", self.x_path, "--b", self.b_path]
        if self.exact:
            argv.append("--exact")
        if self.budget is not None:
            argv += ["--budget", str(self.budget)]
        argv += ["--workers", str(workers)]
        argv.append("--text" if self.text else "--json")
        return argv


@dataclass(frozen=True)
class Op:
    name: str
    steps: tuple[Step, ...]


@dataclass
class Inputs:
    """What set-up produces: the arrays to write, by relative path and format
    ("csv", "mm" or "vector"), the op cycle, and the planted support of x
    for each certify step's matrix."""

    arrays: dict[str, tuple[np.ndarray, str]] = field(default_factory=dict)
    ops: list[Op] = field(default_factory=list)
    supports: dict[str, tuple[int, ...]] = field(default_factory=dict)

    def add_matrix(self, name: str, data: np.ndarray, fmt: str) -> str:
        path = f"{name}.{fmt}"
        self.arrays[path] = (data, fmt)
        return path


WRITERS = {
    "csv": ("formats.write_csv", sc.write_csv),
    "mm": ("formats.write_matrix_market", sc.write_matrix_market),
    "vector": ("formats.write_vector", sc.write_vector),
}


def render(inputs: Inputs, tracer, op: str) -> dict[str, str]:
    """File texts by path, written with sparkcert's writers under spans."""
    files = {}
    for path, (data, fmt) in inputs.arrays.items():
        name, writer = WRITERS[fmt]
        with tracer.span(name, op):
            files[path] = writer(data)
    return files


def _rng(seed: int, salt: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64([seed, salt]))


def _dyadic(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    # multiples of 1/256: sums with small integer weights are exact, so a
    # planted dependency holds exactly after the 17-digit text round trip
    return np.round(rng.standard_normal((rows, cols)) * 256.0) / 256.0


def _unrank(cols: int, size: int, rank: int) -> tuple[int, ...]:
    """The rank-th size-subset of range(cols) in lexicographic order."""
    out, x = [], 0
    for j in range(size):
        while math.comb(cols - 1 - x, size - 1 - j) <= rank:
            rank -= math.comb(cols - 1 - x, size - 1 - j)
            x += 1
        out.append(x)
        x += 1
    return tuple(out)


def planted_dependency(rng: np.random.Generator, rows: int, cols: int, support) -> np.ndarray:
    """Dyadic matrix whose last support column is an exact integer mix of the others."""
    data = _dyadic(rng, rows, cols)
    weights = rng.choice([-2.0, -1.0, 1.0, 2.0], size=len(support) - 1)
    data[:, support[-1]] = data[:, list(support[:-1])] @ weights
    return data


def _add_certify(inputs: Inputs, name: str, data: np.ndarray, support, rng, fmt: str,
                 exact: bool, text: bool) -> Step:
    x = np.zeros(data.shape[1])
    x[list(support)] = rng.uniform(1.0, 2.0, len(support)) * rng.choice([-1.0, 1.0], len(support))
    path = inputs.add_matrix(name, data, fmt)
    inputs.arrays[f"{name}.x"] = (x, "vector")
    inputs.arrays[f"{name}.b"] = (data @ x, "vector")
    inputs.supports[path] = tuple(int(j) for j in support)
    return Step("certify", path, exact=exact, x_path=f"{name}.x", b_path=f"{name}.b",
                text=text)


def exact_search(seed: int) -> Inputs:
    inputs = Inputs()
    mats: list[tuple[str, np.ndarray, int | None]] = []
    for n in (11, 12, 13):
        perm = _rng(seed, n).permutation(n + 1)
        mats.append((f"spiked-{n}", sc.spiked_identity(n).data[:, perm], None))
    mats.append(("random-4x24", sc.random_matrix(4, 24, seed * 10 + 1).data, None))
    mats.append(("random-5x17", sc.random_matrix(5, 17, seed * 10 + 2).data, None))
    rng = _rng(seed, 3)
    middle = math.comb(18, 5) // 2 + int(rng.integers(-64, 65))
    mats.append(("planted-7x18", planted_dependency(rng, 7, 18, _unrank(18, 5, middle)), None))
    mats.append(("tall-30x22", sc.random_matrix(30, 22, seed * 10 + 4).data, TALL_BUDGET))
    for name, data, budget in mats:
        path = inputs.add_matrix(name, data, "csv")
        inputs.ops.append(Op(name, (Step("analyze", path, exact=True, budget=budget),)))
    return inputs


def bounds_large(seed: int) -> Inputs:
    inputs = Inputs()
    certs = []
    for k, fmt in enumerate(("csv", "mm")):
        data = sc.random_matrix(160, 800, seed * 10 + 5 + k).data
        rng = _rng(seed, 5 + k)
        support = tuple(sorted(int(j) for j in rng.choice(800, 2, replace=False)))
        certs.append(_add_certify(inputs, f"wide-160x800-{k}", data, support, rng, fmt,
                                  exact=False, text=False))
    # every op parses one CSV and one Matrix Market file, so all ops cost the same
    for analyzed, certified in ((certs[0], certs[1]), (certs[1], certs[0])):
        inputs.ops.append(Op(f"{analyzed.path}+{certified.path}",
                             (Step("analyze", analyzed.path), certified)))
    return inputs


def cli_small(seed: int) -> Inputs:
    inputs = Inputs()
    rng = _rng(seed, 7)
    for fmt in ("csv", "mm"):
        gen = ("random", "--n", "6", "--m", "12", "--seed", str(seed * 10 + 6), "--format", fmt)
        inputs.ops.append(Op(f"gen-{fmt}", (Step("gen", gen=gen),)))
    generic = sc.random_matrix(6, 12, seed * 10 + 7).data
    triple = tuple(sorted(int(j) for j in rng.choice(12, 3, replace=False)))
    planted = planted_dependency(rng, 6, 12, triple)
    for name, data, fmt in (("generic-6x12", generic, "csv"), ("planted-6x12", planted, "mm")):
        path = inputs.add_matrix(name, data, fmt)
        inputs.ops.append(Op(f"analyze-{name}", (Step("analyze", path, exact=True),)))
    support = tuple(sorted(int(j) for j in rng.choice(12, 2, replace=False)))
    step = _add_certify(inputs, "certify-generic", generic, support, rng, "csv", True, True)
    inputs.ops.append(Op("certify-generic", (step,)))
    # x on two columns of the planted dependency: the third column gives
    # other solutions just as sparse, so no UNIQUE verdict is sound
    step = _add_certify(inputs, "certify-planted", planted, triple[:2], rng, "mm", True, True)
    inputs.ops.append(Op("certify-planted", (step,)))
    return inputs


WORKLOADS = {
    "exact-search": (exact_search, "worker"),
    "bounds-large": (bounds_large, "worker"),
    "cli-small": (cli_small, "subprocess"),
}
