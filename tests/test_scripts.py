import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_blocking_sweep_runs():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "blocking_sweep.py"), "2", "42"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    rows = [line.split() for line in proc.stdout.splitlines()[2:]]
    assert [int(row[0]) for row in rows] == [40, 80, 120, 160, 200, 240, 280, 320, 400, 480]
    for _, blocked_fraction, mean_routed in rows:
        assert 0.0 <= float(blocked_fraction) <= 1.0
        assert float(mean_routed) > 0.0
