"""The package's public surface: its exported names and the README's library example."""

import pathlib
import re

import sparkcert

README = pathlib.Path(__file__).parent.parent / "README.md"


def test_every_exported_name_resolves_once():
    names = sparkcert.__all__
    assert len(set(names)) == len(names)
    missing = [name for name in names if not hasattr(sparkcert, name)]
    assert missing == []


def test_readme_library_example_runs(capsys):
    library = README.read_text().split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```python\n(.*?)```", library, re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})
    # it prints the index bound, 3, and the verdict the exact spark gives
    bound, verdict = capsys.readouterr().out.split()
    assert (bound, verdict.endswith("UNIQUE_BY_SPARK")) == ("3", True)
