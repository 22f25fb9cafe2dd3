"""The benchmark harness still runs against this source tree.

``bench/run.py --smoke`` hooks into scfkit (it rebinds
``enumerate_profiles`` and counts ``Profile.__post_init__`` calls), so a
change under ``src/`` can break it without breaking any other test.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_smoke_passes():
    result = subprocess.run(
        [sys.executable, "bench/run.py", "--smoke"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stdout + result.stderr
    assert "smoke: ok" in result.stdout.splitlines()
