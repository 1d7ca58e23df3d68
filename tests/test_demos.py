"""Every demo script runs to completion against the library in src/ and
prints exactly its committed transcript under tests/demo_stdout/.

Only demo 06's wall_ms column is masked, as in the golden CLI battery.  An
intended output change shows up as a diff of those files; regenerate them
with

    PYTHONPATH=src python tests/test_demos.py
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from test_cli_golden import _mask

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
TRANSCRIPTS = Path(__file__).resolve().parent / "demo_stdout"


def demo_stdout(demo: Path) -> str:
    """The demo's stdout, masked; fails on a nonzero exit."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(demo)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return _mask(proc.stdout, ROOT)


def test_demos_found():
    assert DEMOS
    assert {p.stem for p in TRANSCRIPTS.glob("*.txt")} == {p.stem for p in DEMOS}


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo):
    out = demo_stdout(demo)
    assert out.strip()
    assert out == (TRANSCRIPTS / f"{demo.stem}.txt").read_text()


if __name__ == "__main__":
    TRANSCRIPTS.mkdir(exist_ok=True)
    for stale in TRANSCRIPTS.glob("*.txt"):
        stale.unlink()
    for demo in DEMOS:
        (TRANSCRIPTS / f"{demo.stem}.txt").write_text(demo_stdout(demo))
    print(f"wrote {len(DEMOS)} demo transcripts to {TRANSCRIPTS}", file=sys.stderr)
