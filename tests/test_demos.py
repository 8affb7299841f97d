import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _run_python(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    # the RuntimeWarning rule pyproject.toml applies inside the test process
    return subprocess.run([sys.executable, "-W", "error::RuntimeWarning", *args],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("demo", sorted((ROOT / "demos").glob("*.py")), ids=lambda p: p.name)
def test_demo_runs(demo):
    proc = _run_python(str(demo))
    assert proc.returncode == 0, proc.stderr


def test_readme_tour_runs():
    readme = (ROOT / "README.md").read_text()
    tour = readme.split("## Library tour\n", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    proc = _run_python("-c", tour)
    assert proc.returncode == 0, proc.stderr
