import math
import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    """stdout of a script in scripts/, run with src/ on the path; it must exit 0."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, str(REPO / "scripts" / name), *args],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def table_rows(stdout, header):
    """The whitespace-split rows after the header line, up to a blank line."""
    lines = stdout.splitlines()
    start = [line.split() for line in lines].index(header) + 1
    rows = []
    for line in lines[start:]:
        if not line.strip():
            break
        rows.append(line.split())
    return rows


def finite(text):
    return math.isfinite(float(text))


def test_compare_samplers_prints_its_table():
    out = run_script("compare_samplers.py", "--samples", "4000")
    rows = table_rows(out, ["route", "rho_avg", "uncertainty"])
    assert [row[0] for row in rows] == ["expansion", "rejection", "mcmc"]
    assert all(len(row) == 3 and finite(row[1]) and finite(row[2]) for row in rows)
    assert "rejection vs mcmc: gap" in out
    assert "mcmc acceptance: birth=" in out


def test_run_toy_expansion_prints_its_table():
    out = run_script("run_toy_expansion.py", "--order", "2")
    rows = table_rows(out, ["n", "coefficient", "error"])
    assert [row[0] for row in rows] == ["1", "2"]
    assert all(len(row) == 3 and finite(row[1]) and finite(row[2]) for row in rows)
    assert "log Z_tilde (order 2) =" in out
    assert "direct-series cross-check: log Z =" in out
