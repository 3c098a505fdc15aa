"""The package's public surface: its exported names, what each command
loads, and the README's library example."""

import json
import os
import pathlib
import re
import subprocess
import sys

import numpy as np
import pytest

import sparkcert

# Runs `import sparkcert`, then main() on each command line in its argv
# (matrix, x and b files first), and prints, after each step, the step,
# its exit code, the sparkcert submodules loaded and whether numpy is.
LOAD_STEPS = """
import contextlib, io, json, sys

def step(name, rc):
    modules = sorted(m[len("sparkcert."):] for m in sys.modules if m.startswith("sparkcert."))
    steps.append([name, rc, modules, "numpy" in sys.modules])

steps = []
import sparkcert
step("import", None)
from sparkcert.cli import main
matrix, x, b = sys.argv[1:]
for argv in (
    ["--version"], ["--help"], ["analyze", matrix, "--exact", "--json"],
    ["certify", matrix, "--x", x, "--b", b, "--exact", "--json"],
):
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code
    step(argv[0], rc)
print(json.dumps(steps))
"""

README = pathlib.Path(__file__).parent.parent / "README.md"


def test_every_exported_name_resolves_once():
    names = sparkcert.__all__
    assert len(set(names)) == len(names)
    missing = [name for name in names if not hasattr(sparkcert, name)]
    assert missing == []


def test_each_command_loads_only_its_modules(tmp_path):
    # one process for every step: the loaded modules only grow
    m = sparkcert.random_matrix(6, 12, seed=7)
    x = np.zeros(12)
    x[[2, 9]] = (1.5, -0.5)
    paths = [tmp_path / name for name in ("m.csv", "x.txt", "b.txt")]
    for path, text in zip(paths, (
        sparkcert.write_csv(m.data), sparkcert.write_vector(x), sparkcert.write_vector(m.data @ x)
    )):
        path.write_text(text)
    env = dict(os.environ)
    package_root = str(pathlib.Path(sparkcert.__file__).parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (package_root, env.get("PYTHONPATH"))))
    done = subprocess.run(
        [sys.executable, "-c", LOAD_STEPS, *map(str, paths)],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    start = ["_version", "cli", "config", "errors"]
    analysis = sorted(start + ["coherence", "formats", "kernels", "matrix", "report", "spark"])
    assert json.loads(done.stdout) == [
        ["import", None, ["_version"], False],
        ["--version", 0, start, False],
        ["--help", 0, start, False],
        ["analyze", 0, analysis, True],
        ["certify", 0, sorted(analysis + ["uniqueness"]), True],
    ]


def test_star_import_and_dir_cover_every_exported_name():
    namespace = {}
    exec("from sparkcert import *", namespace)
    assert set(sparkcert.__all__) <= set(namespace)
    assert set(sparkcert.__all__) <= set(dir(sparkcert))


def test_names_and_submodules_resolve_on_first_use(monkeypatch):
    # drop what earlier imports bound, so each read goes through __getattr__
    for name in ("kernels", "certify"):
        monkeypatch.delattr(sparkcert, name, raising=False)
    assert sparkcert.kernels is sys.modules["sparkcert.kernels"]
    assert sparkcert.certify is sys.modules["sparkcert.uniqueness"].certify
    assert "certify" in vars(sparkcert)
    with pytest.raises(AttributeError, match="'no_such_name'"):
        sparkcert.no_such_name


def test_old_positional_arguments_raise_type_error():
    # the tolerances are the matrix's, and what follows the inputs is
    # keyword-only: a config, or a value, passed where a config used to go
    # binds to no parameter, rather than to compute_exact or budget
    m = sparkcert.spiked_identity(3)
    tolerances = sparkcert.ToleranceConfig(rank_tol_factor=1e-3)
    x, b = np.zeros(4), np.zeros(3)
    spark_report = sparkcert.analyze_spark(m)
    calls = [
        lambda: sparkcert.coherence_profile(m, tolerances),
        lambda: sparkcert.coherence_index_lower_bound(m, tolerances),
        lambda: sparkcert.exact_spark(m, tolerances),
        lambda: sparkcert.exact_spark(m, 100),
        lambda: sparkcert.analyze_spark(m, tolerances),
        lambda: sparkcert.analyze_spark(m, True),
        lambda: sparkcert.certify(m, x, b, tolerances),
        lambda: sparkcert.certify(m, x, b, 4),
        lambda: sparkcert.sparsest_oracle(m, b, 1, tolerances),
        lambda: sparkcert.sparsest_oracle(m, b, 1, 100),
        lambda: sparkcert.build_report(m, "m", spark_report, tolerances),
        lambda: sparkcert.build_report(m, "m", spark_report, None),
    ]
    for call in calls:
        with pytest.raises(TypeError, match="positional argument"):
            call()


def test_readme_library_example_runs(capsys):
    library = README.read_text().split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```python\n(.*?)```", library, re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})
    # it prints the index bound, 3, and the verdict the exact spark gives
    bound, verdict = capsys.readouterr().out.split()
    assert (bound, verdict.endswith("UNIQUE_BY_SPARK")) == ("3", True)
