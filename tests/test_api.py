import re
from pathlib import Path

import qldecouple

README = Path(__file__).resolve().parents[1] / "README.md"


def test_every_exported_name_resolves():
    for name in qldecouple.__all__:
        assert getattr(qldecouple, name) is not None, name
    assert "FrameStack" in qldecouple.__all__ and "Frame" not in qldecouple.__all__


def test_readme_quickstart_runs(capsys):
    text = README.read_text()
    section = text[text.index("## Library quickstart"):]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(block, str(README), "exec"), {})
    lines = capsys.readouterr().out.split("\n")
    assert lines[0].startswith("pass ")
