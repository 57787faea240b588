"""Tests of the benchmark itself: span arithmetic, output checks, input generation.

    python3 -m pytest perfbench -q
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

import run
import workloads as wl
from tracing import Tracer, _covered, self_times

ROOT = Path(__file__).resolve().parent.parent


# ---------------------------------------------------------------------------
# self time


def test_self_time_of_nested_spans():
    spans = [
        ["a", 0.0, 10.0, None, "r"],
        ["b", 1.0, 4.0, 0, "r"],
        ["c", 2.0, 3.0, 1, "r"],
        ["d", 5.0, 9.0, 0, "r"],
        ["c", 6.0, 7.5, 3, "r"],
        ["a", 20.0, 22.0, None, "r"],
    ]
    times = self_times(spans)
    assert times["a"] == (2, pytest.approx(10 - 3 - 4 + 2))
    assert times["b"] == (1, pytest.approx(2.0))
    assert times["c"] == (2, pytest.approx(2.5))
    assert times["d"] == (1, pytest.approx(2.5))


def test_covered_counts_overlap_once():
    assert _covered([(0.0, 2.0), (1.0, 3.0), (5.0, 6.0)]) == pytest.approx(4.0)
    assert _covered([]) == 0.0


def test_tracer_records_parents_and_counts():
    tracer = Tracer("t")

    def inner(x):
        return x + 1

    traced_inner = tracer.wrap("inner", inner)
    traced_outer = tracer.wrap("outer", lambda x: traced_inner(x) * 2)
    assert traced_outer(1) == 4
    (outer, o_start, o_end, o_parent, _), (inner_span, i_start, i_end, i_parent, _) = tracer.spans
    assert (outer, o_parent, inner_span, i_parent) == ("outer", None, "inner", 0)
    assert o_start <= i_start <= i_end <= o_end


def iteration(traced, wall_s):
    spans = [["cli.run", 0.0, wall_s, None, "r"],
             ["torusmodel.assemble", 0.0, wall_s / 2, 0, "r"]] if traced else []
    counts = {name: 0 for name in run.per_layer_units()
              if name.endswith((".nnz", ".nodes", ".bytes", ".hit_ratio"))}
    return {"traced": traced, "wall_s": wall_s, "spans": spans, "counts": counts}


def test_end_to_end_scales_the_median_src_to_reference_ratio():
    def side(setup_s, wall_s, rss=90.0):
        return {"setup_s": setup_s, "wall_s": wall_s, "peak_rss_mib": rss}
    # the machine slows down 2x and then speeds up again: the ratios do not see it
    refs = [side(0.5, 2.0), side(0.5, 2.0), side(1.0, 4.0), side(1.0, 4.0)]
    srcs = [side(0.5, 1.0, 100.0), side(0.75, 1.5, 102.0), side(1.0, 2.0, 101.0)]
    assert run.ratios("wall_s", srcs, refs) == pytest.approx([0.5, 0.5, 0.5])
    setup_base, wall_base = run.REFERENCE_S["eject"]
    metrics = run.end_to_end("eject", srcs, refs)
    assert metrics["setup_s"] == pytest.approx(setup_base * 1.0)
    assert metrics["wall_s"] == pytest.approx(wall_base * 0.5)
    assert metrics["peak_rss_mib"] == 101.0
    assert set(metrics) == set(run.E2E_UNITS)
    assert run.raw_medians(srcs, refs)["reference_wall_s"] == 3.0


def test_reference_is_the_frozen_copy():
    assert run.source_digest(run.REFERENCE) == run.REFERENCE_SHA256


def test_per_layer_pairs_each_traced_iteration_with_the_one_before():
    results = [iteration(False, 2.0), iteration(True, 2.5), iteration(False, 3.0),
               iteration(True, 3.1), iteration(False, 1.0)]
    metrics, shares = run.per_layer(results)
    assert metrics["trace.overhead_s"] == pytest.approx((0.5 + 0.1) / 2)
    assert metrics["cli.run.calls"] == 1
    assert metrics["torusmodel.assemble.self_s"] == pytest.approx((1.25 + 1.55) / 2)
    assert shares["torusmodel"] == pytest.approx(0.5)
    assert shares["cli"] == pytest.approx(0.5)
    assert set(metrics) == set(run.per_layer_units())


# ---------------------------------------------------------------------------
# output checks reject corrupted results


def eject_output(factor=1.0, kernel=1, lam0="0.0", dot=1e-15):
    comments = {"lambda_dot_fit": repr(dot), "curvature_factor": repr(factor)}
    grid = np.linspace(-wl.EJECT_SMAX, wl.EJECT_SMAX, wl.EJECT_POINTS)
    rows = [[repr(float(s)), lam0 if s == 0 else repr(0.1 * s * s),
             str(kernel if s == 0 else 0), "0.05"] for s in grid]
    return comments, rows


def test_check_eject():
    assert wl.check_eject(*eject_output(), expected_kernel=1, a_norm_sq=0.1) == []
    for bad in (dict(factor=0.9), dict(kernel=2), dict(kernel=0), dict(lam0="1e-9"),
                dict(dot=1e-8)):
        assert wl.check_eject(*eject_output(**bad), expected_kernel=1, a_norm_sq=0.1), bad
    comments, rows = eject_output()
    assert wl.check_eject(comments, rows[:-1], 1, 0.1)


def test_check_routes():
    assert wl.check_routes(1e-15, 1e-15) == []
    assert wl.check_routes(1e-9, 1e-15)
    assert wl.check_routes(1e-15, 1e-11)
    assert wl.check_routes(float("nan"), 0.0)


def test_check_divtype():
    assert wl.check_divtype([["0", "3", "3"], ["summary", "span=36/36", "verdict=uniform"]]) == []
    assert wl.check_divtype([["summary", "span=35/36", "verdict=not uniform"]])
    assert wl.check_divtype([])


def test_check_kato():
    good = ["0", "4e-15", "3e-9", "2e-8", "2e-16", "2e-16"]
    assert wl.check_kato([good, good], 2) == []
    assert wl.check_kato([good], 2)
    for column, value in ((1, "1e-8"), (2, "2e-6"), (3, "2e-6"), (5, "1e-9")):
        bad = list(good)
        bad[column] = value
        assert wl.check_kato([good, bad], 2), bad


def test_check_holonomy():
    summary = ["summary", "commutant_dim=3", "verdict=not opaque: candidates"]
    projectors = [[str(i), "1", "0.0"] for i in range(3)]
    assert wl.check_holonomy(projectors + [summary], 3, "not opaque") == []
    assert wl.check_holonomy(projectors[:2] + [summary], 3, "not opaque")
    assert wl.check_holonomy([[*projectors[0][:2], "1e-5"], *projectors[1:], summary],
                             3, "not opaque")
    assert wl.check_holonomy(projectors + [summary], 2, "not opaque")
    opaque = ["summary", "commutant_dim=1", "verdict=opaque: none"]
    assert wl.check_holonomy([opaque], 1, "opaque") == []
    assert wl.check_holonomy([opaque], 1, "not opaque")
    assert wl.check_holonomy([], 1, "opaque")


def test_check_exit():
    assert wl.check_exit(0) == []
    assert wl.check_exit(2)


# ---------------------------------------------------------------------------
# input generation


@pytest.mark.parametrize("workload", sorted(wl.OPERATIONS))
def test_generation_is_deterministic_per_seed(workload):
    assert wl.generate(workload, 7) == wl.generate(workload, 7)
    assert wl.generate(workload, 7)["files"] != wl.generate(workload, 8)["files"]


@pytest.mark.parametrize("workload", ["eject", "harmonic", "kato_holonomy"])
def test_generated_connections_load(workload):
    sys.path.insert(0, str(ROOT / "src"))
    try:
        from cktlab import textio
    finally:
        sys.path.remove(str(ROOT / "src"))
    for name, text in wl.generate(workload, 3)["files"].items():
        if name.endswith(".fourconn"):
            conn = textio.load_fourier_connection(text)  # checks pointwise reality
            assert conn.unitary and conn.coeffs


# ---------------------------------------------------------------------------
# BENCHMARK.json lists what the benchmark reports


def test_benchmark_json_matches_the_benchmark():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in spec["workloads"]} == wl.WHY
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
