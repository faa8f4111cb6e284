"""Each demo script, and the README's Quick start, runs against the current package."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = ("counting_run.py", "photon_number_scan.py", "slow_light_delay.py",
         "transparency_window.py")


def _run(argv, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    env.pop("VIT_LAB_CONFIG", None)
    proc = subprocess.run([sys.executable, *argv], cwd=cwd, env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize("name", DEMOS)
def test_demo_runs(name, tmp_path):
    assert _run([str(ROOT / "demos" / name)], tmp_path).strip()


def test_readme_quick_start_runs(tmp_path):
    # the first python block of the README; its first line prints the
    # on-resonance transmission next to exp(-OD/(eta+1))
    block = re.search(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    lines = _run(["-c", block.group(1)], tmp_path).splitlines()
    got, want = map(float, lines[0].split())
    assert abs(got - want) <= 1e-12 * want
