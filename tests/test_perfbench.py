"""The benchmark harness's own self-check runs in the test suite, so a traced
library function that is renamed or removed fails here, not only when the
benchmark runs."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_selfcheck_passes():
    proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "selfcheck.py")],
                          capture_output=True, text=True, timeout=120, cwd=ROOT)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "all checks passed" in proc.stdout
