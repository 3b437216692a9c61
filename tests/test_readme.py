"""The README's library tour runs as written, so a renamed or removed
public name fails here instead of leaving the README wrong."""

import pathlib
import re

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_library_tour_runs(capsys):
    text = README.read_text()
    tour = text[text.index("## Library tour") :]
    (block,) = re.findall(r"```python\n(.*?)```", tour.split("\n## ")[0], flags=re.S)
    exec(compile(block, str(README), "exec"), {})
    assert capsys.readouterr().out
