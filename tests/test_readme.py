"""The README's library example runs from the repo root and prints what its comments say."""

import os
import pathlib
import re
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_library_example_prints_its_commented_bounds():
    section = (ROOT / "README.md").read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S)[1]
    commented = re.findall(r"print\(classify\(.*\)\)\s+# (\S+)", code)
    assert commented == ["Bound.MEMORY", "Bound.COMPUTE"]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])}
    result = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True, text=True, env=env)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-2:] == commented
