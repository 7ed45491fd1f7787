"""README's code runs as written."""

import re
from pathlib import Path

README = Path(__file__).parents[1] / "README.md"


def test_library_example_runs(capsys):
    library = README.read_text(encoding="utf-8").split("\n## Library\n")[1]
    library = library.split("\n## ")[0]
    (block,) = re.findall(r"^```python\n(.*?)^```$", library, re.M | re.S)
    exec(block, {})
    # three print calls, one line each
    assert len(capsys.readouterr().out.splitlines()) == 3
