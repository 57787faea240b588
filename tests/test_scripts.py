"""The demo scripts run in-process and print their documented results."""

import pathlib
import re
import runpy

import pytest

SCRIPTS = pathlib.Path(__file__).resolve().parents[1] / "scripts"


def run_script(name, capsys):
    runpy.run_path(str(SCRIPTS / name), run_name="__main__")
    return capsys.readouterr().out


def test_eject_demo_curvature_factor(capsys):
    out = run_script("eject_demo.py", capsys)
    factor = float(re.search(r"curvature factor\s*:\s*(\S+)", out).group(1))
    assert factor == pytest.approx(1.0, abs=1e-6)


def test_opacity_demo_commutant_dimensions(capsys):
    out = run_script("opacity_demo.py", capsys)
    dims = [int(d) for d in re.findall(r"commutant dimension (\d+)", out)]
    assert dims == [2, 1, 4]
    assert "-> opaque" in out and "-> transparent" in out


def test_divtype_table_surfaces_elliptic(capsys):
    out = run_script("divtype_table.py", capsys)
    rows = re.findall(r"^\s*(\d+)\s+(\d+)\s+tracefree\s+\S+\s+(\S+)", out, re.M)
    assert len(rows) == 12
    for n, m, verdict in rows:
        assert verdict == ("elliptic" if n == "2" and int(m) >= 2 else "uniform")
