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


def test_compare_outputs_of_a_tree_with_itself(capsys):
    compare = runpy.run_path(str(SCRIPTS / "compare_outputs.py"))
    src = str(SCRIPTS.parent / "src")
    assert compare["main"]([src, src, "101"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == "all identical"
    reported = {line.split(": ")[0].split(" ", 3)[3] for line in lines[:-1]}
    for path in ("eject-eject/eject.csv", "eject-ckt-zero/ckt_kernel.csv",
                 "harmonic-ckt-pert/ckt_kernel.csv", "divtype/divtype.csv",
                 "generic/opacity.csv", "diagonal/opacity.csv", "kato/kato.csv",
                 "dims/dims.csv", "dims/manifest.txt", "harmdecomp/harmdecomp.csv",
                 "harmdecomp/part_k2.hpoly", "commutator-random/commutator.csv",
                 "commutator-file/factor_A.endo", "commutator-file/factor_G.endo",
                 "holonomy-steps100/opacity.csv", "endo-eject/eject.csv",
                 "endo-ckt-zero/ckt_kernel.csv", "endo-ckt-pert/ckt_kernel.csv",
                 "holonomy-curved/opacity.csv", "divtype-divergence/divtype.csv",
                 "divtype-forms/divtype.csv", "divtype-counterexample/divtype.csv",
                 "divtype-full/divtype.csv"):
        assert path in reported


def test_compare_outputs_verdict():
    verdict = runpy.run_path(str(SCRIPTS / "compare_outputs.py"))["verdict"]
    old = ["# factor: 1.0", "s,lambda,kind", "0.1,0.3333333333333333,a"]
    moved = ["# factor: 1.1", "s,lambda,kind", "0.1,0.33333333333333337,a"]
    assert verdict(old, old) == "identical"
    assert verdict(old, ["# factor: 1.1", *old[1:]]) == "same data rows"
    assert verdict(old, moved) == ("DIFFERENT (numbers only, max rel diff 1.7e-16, "
                                   "max abs diff 5.6e-17)")
    # a rounding-size column: a relative difference of order 1, an absolute one of 1e-15
    tiny = ["# factor: 1.0", "s,lambda,kind", "0.1,3e-15,a"]
    assert verdict(tiny, [*tiny[:2], "0.1,2e-15,a"]) == (
        "DIFFERENT (numbers only, max rel diff 3.3e-01, max abs diff 1.0e-15)")
    # an ENDO or HPOLY payload's fields are separated by spaces
    endo = ["ENDO 2", "0.0 0.5 1.0 -0.25", "-1.0 -0.25 0.0 -0.5"]
    assert verdict(endo, [endo[0], "0.0 0.5000000000000001 1.0 -0.25", endo[2]]) == (
        "DIFFERENT (numbers only, max rel diff 2.2e-16, max abs diff 1.1e-16)")
    assert verdict(endo, [endo[0], "0.0 0.5 1.0", endo[2]]) == "DIFFERENT"
    # a text field, a row more, or a file in one tree only stays a bare DIFFERENT
    assert verdict(old, [*old[:2], "0.1,0.3333333333333333,b"]) == "DIFFERENT"
    assert verdict(old, [*moved, "0.2,0.5,a"]) == "DIFFERENT"
    assert verdict(old, None) == "DIFFERENT"


def test_compare_outputs_comment_drift():
    drift = runpy.run_path(str(SCRIPTS / "compare_outputs.py"))["comment_drift"]
    old = ["# transport_error: 2.0e-06", "# verdict: opaque", "# unitarity_defect: 1e-15",
           "projector_index,rank,invariance_defect"]
    new = ["# transport_error: 2.1e-06", "# verdict: opaque", "# unitarity_defect: 1e-15",
           "projector_index,rank,invariance_defect"]
    assert drift(old, old) == 0.0
    assert drift(old, new) == pytest.approx(0.1 / 2.1)
    # a key in one tree only, a text value or a non-finite one is no float pair
    assert drift(old[:1], ["# other: 1.0"]) is None
    assert drift(["# verdict: opaque"], ["# verdict: clear"]) is None
    assert drift(["# x: nan", "# y: 1.0"], ["# x: 2.0", "# y: 4.0"]) == pytest.approx(0.75)
    # data rows and lines without a key are not comments
    assert drift(["1.0,2.0", "# 3.5"], ["1.5,2.0", "# 4.5"]) is None
