"""The README's Library section: its example runs, and it lists the whole top level."""

import inspect
import re
from pathlib import Path

import lsprune

_README = Path(__file__).resolve().parents[1] / "README.md"


def _library() -> str:
    text = _README.read_text(encoding="utf-8")
    return text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]


def test_readme_library_example_runs(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # the example writes a container
    (code,) = re.findall(r"```python\n(.*?)```", _library(), re.S)
    exec(compile(code, str(_README), "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    assert printed[1:] == ["before 99", f"after {printed[0].split()[1]}"]


def test_top_level_names_are_the_readme_list():
    listed = re.findall(r"`(\w+)`", _library().split("top level holds", 1)[1].split(".", 1)[0])
    public = {name for name in dir(lsprune)
              if name[0] != "_" and not inspect.ismodule(getattr(lsprune, name))}
    assert len(listed) == 10
    assert sorted(lsprune.__all__) == sorted(listed)
    assert public == set(listed)
