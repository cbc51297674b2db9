"""Smoke runs of the experiment scripts, each in its own interpreter."""
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _run_script(name: str, *args: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          capture_output=True, text=True, env=env, timeout=300)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_make_synthetic_captures_replays_a_confirmed_round(tmp_path):
    out = _run_script("make_synthetic_captures.py", "--dir", str(tmp_path))
    assert "confirmed=true" in out
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "trial0_a2g.cf32", "trial0_eve.cf32", "trial0_g2a.cf32"]


def test_collect_key_stream_writes_bit_lines(tmp_path):
    path = tmp_path / "keys.txt"
    _run_script("collect_key_stream.py", "--min-bits", "2000", "--out", str(path))
    lines = path.read_text().splitlines()
    assert lines and all(line and set(line) <= {"0", "1"} for line in lines)
    assert sum(map(len, lines)) >= 2000
