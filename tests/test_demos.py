"""Golden-output test for the demos: each prints exactly its recorded stdout.

The demos are deterministic, so ``demos/expected/<name>.txt`` holds the
stdout of ``python demos/<name>.py``.  A change that alters a demo's output
on purpose re-records the file and says so in the change log.
"""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_every_demo_has_expected_output():
    expected = sorted(p.stem for p in (ROOT / "demos" / "expected").glob("*.txt"))
    assert expected == [p.stem for p in DEMOS]


@pytest.mark.parametrize("demo", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_stdout(demo):
    src = str(ROOT / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, str(demo)], capture_output=True, text=True, env=env, cwd=ROOT, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (ROOT / "demos" / "expected" / f"{demo.stem}.txt").read_text()
