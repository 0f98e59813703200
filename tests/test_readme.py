"""The README's Python examples run as written.

Every ``python`` block of README.md runs, in order, in one namespace (a
block may use names an earlier one set), from a directory holding the
``areas.csv`` the examples read.
"""

import re
from pathlib import Path

from conftest import make_areas, random_dataset
from logsae import save_dataset

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run(tmp_path, monkeypatch, gen):
    text = README.read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```$", text, re.MULTILINE | re.DOTALL)
    assert blocks
    save_dataset(make_areas(*random_dataset(gen, m=12, p=1)), tmp_path / "areas.csv")
    monkeypatch.chdir(tmp_path)
    namespace = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    assert namespace["pred"].prediction.shape == (12,)
