import contextlib
import glob
import io
import math
import os
import subprocess
import sys
import tempfile
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cktlab import cli, textio
from cktlab import spectral as sp
from cktlab import torusmodel as tm
from cktlab.cli import run


def read_data_lines(path):
    with open(path) as fh:
        return [ln for ln in fh if not ln.startswith("#")]


def _fresh_process(tmp_path, code):
    """The stdout lines of code run by a new interpreter in tmp_path, on this cktlab."""
    import cktlab

    src = os.path.dirname(os.path.dirname(cktlab.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=tmp_path,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip().splitlines()


@pytest.fixture
def eject_setup(tmp_path):
    A = tm.FourierConnection.cosine_mode(3, (0, 1, 0), 0, 0.5j * np.eye(1))
    pert = tmp_path / "pert.fourconn"
    pert.write_text(textio.dump_fourier_connection(A))
    cfg = tmp_path / "eject.cfg"
    cfg.write_text(
        "[torus]\nn = 3\nk = 1\nm = 0\nr = 1\n\n"
        f"[perturbation]\nfile = {pert}\n\n"
        "[scan]\nsmax = 0.1\npoints = 9\n"
    )
    return cfg


class TestDims:
    def test_stdout_table(self, capsys):
        assert run(["dims", "--n", "3", "--mmax", "4"]) == 0
        out = capsys.readouterr().out
        assert "6        5" in out

    def test_csv_out(self, tmp_path):
        assert run(["dims", "--n", "3", "--mmax", "2", "--out", str(tmp_path)]) == 0
        lines = read_data_lines(tmp_path / "dims.csv")
        assert lines[0].strip() == "m,p,h"
        assert lines[-1].strip() == "2,6,5"

    def test_missing_args(self, capsys):
        assert run(["dims"]) == 2
        assert "tag=validation" in capsys.readouterr().err


class TestEject:
    def test_run_and_reproducibility(self, eject_setup, tmp_path):
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert run(["torus-eject", "--config", str(eject_setup), "--out", str(out1)]) == 0
        assert run(["torus-eject", "--config", str(eject_setup), "--out", str(out2)]) == 0
        first, second = ((out / "eject.csv").read_text().splitlines() for out in (out1, out2))
        assert first[0].startswith("# timestamp:") and first[1:] == second[1:]
        # K = 1 with support +-(0,1,0): nine lines of three modes, X+ blocks 9x3
        assert "# blocks: 9 (largest 9x3)" in first
        margin = [ln for ln in first if ln.startswith("# window_margin: ")]
        assert len(margin) == 1 and 0 < float(margin[0].split(": ")[1]) <= 1
        rows = read_data_lines(out1 / "eject.csv")
        assert rows[0].strip() == "s,lambda,kernel_dim,predicted_second_variation"
        mid = rows[1 + 4].split(",")
        assert float(mid[0]) == 0.0 and int(mid[2]) == 1
        assert (out1 / "manifest.txt").exists()

    def test_unknown_key_rejected(self, eject_setup, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text(eject_setup.read_text() + "\n[torus]\ntypo_key = 3\n")
        assert run(["torus-eject", "--config", str(bad), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "code=2" in err and err.count("\n") == 1

    def test_missing_perturbation(self, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("[torus]\nn = 3\nk = 1\nm = 0\nr = 1\n")
        assert run(["torus-eject", "--config", str(cfg), "--out", str(tmp_path)]) == 2


class TestInputGuards:
    @pytest.mark.parametrize("points", [-1, 0, 1, 2])
    def test_eject_needs_three_points(self, eject_setup, tmp_path, capsys, points):
        cfg = tmp_path / "few.cfg"
        cfg.write_text(eject_setup.read_text().replace("points = 9", f"points = {points}"))
        assert run(["torus-eject", "--config", str(cfg), "--out", str(tmp_path)]) == 2
        assert "tag=validation" in capsys.readouterr().err

    @pytest.mark.parametrize("smax", ["0", "nan"])
    def test_eject_needs_distinct_finite_grid(self, eject_setup, tmp_path, capsys, smax):
        cfg = tmp_path / "flat.cfg"
        cfg.write_text(eject_setup.read_text().replace("smax = 0.1", f"smax = {smax}"))
        assert run(["torus-eject", "--config", str(cfg), "--out", str(tmp_path)]) == 2
        assert "tag=validation" in capsys.readouterr().err

    def test_eject_overflowing_laplacian(self, eject_setup, tmp_path, capsys):
        # the eject workload's torus at smax = 1e160: s^2 D overflows, and
        # eigvalsh of the non-finite Gram raised LinAlgError (exit 1)
        cfg = tmp_path / "huge.cfg"
        cfg.write_text(eject_setup.read_text().replace("k = 1", "k = 3")
                       .replace("smax = 0.1", "smax = 1e160"))
        out = tmp_path / "out"
        assert run(["torus-eject", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "tag=validation" in err and "s = -1e+160" in err and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("smax", ["1e-8", "1e-200"])
    def test_eject_grid_below_rounding(self, eject_setup, tmp_path, capsys, smax):
        # lambda(s) ~ 0.042 s^2 lies under the rounding of the Gram eigenvalues:
        # the scan used to exit 0 with curvature_factor 0.0 (and a RankWarning
        # at 1e-200)
        cfg = tmp_path / "narrow.cfg"
        cfg.write_text(eject_setup.read_text().replace("smax = 0.1", f"smax = {smax}")
                       .replace("points = 9", "points = 5"))
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["torus-eject", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "tag=validation" in err and f"smax = {float(smax)!r}" in err
        assert err.count("\n") == 1
        assert not out.exists()

    def test_eject_narrow_grid_resolved(self, eject_setup, tmp_path):
        cfg = tmp_path / "narrow.cfg"
        cfg.write_text(eject_setup.read_text().replace("smax = 0.1", "smax = 1e-5")
                       .replace("points = 9", "points = 5"))
        assert run(["torus-eject", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        comments = dict(ln[2:].split(": ", 1)
                        for ln in (tmp_path / "eject.csv").read_text().splitlines()
                        if ln.startswith("# ") and ": " in ln)
        assert float(comments["curvature_factor"]) == pytest.approx(1.0, rel=0.05)

    def test_eject_zero_perturbation_narrow_grid(self, eject_setup, tmp_path):
        # the prediction is exactly 0, so a flat lambda(s) is the answer, not rounding
        (tmp_path / "pert.fourconn").write_text(textio.dump_fourier_connection(
            tm.FourierConnection.zero(r=1, n=3)))
        cfg = tmp_path / "zero.cfg"
        cfg.write_text(eject_setup.read_text().replace("smax = 0.1", "smax = 1e-8"))
        assert run(["torus-eject", "--config", str(cfg), "--out", str(tmp_path)]) == 0

    def test_empty_perturbation_file(self, eject_setup, tmp_path, capsys):
        (tmp_path / "pert.fourconn").write_text("")
        assert run(["torus-eject", "--config", str(eject_setup), "--out", str(tmp_path)]) == 2
        assert "tag=validation" in capsys.readouterr().err

    def test_holonomy_needs_a_geodesic(self, tmp_path, capsys):
        conn = tm.FourierConnection.constant(3, [np.diag([1j, 2j]), np.zeros((2, 2)),
                                                 np.zeros((2, 2))])
        f = tmp_path / "conn.fourconn"
        f.write_text(textio.dump_fourier_connection(conn))
        cfg = tmp_path / "h.cfg"
        cfg.write_text(f"[holonomy]\nconnection = {f}\nnum_geodesics = 0\n")
        assert run(["holonomy", "--config", str(cfg), "--out", str(tmp_path)]) == 2
        assert "tag=validation" in capsys.readouterr().err

    def test_holonomy_needs_a_fiber_rank(self, tmp_path, capsys):
        f = tmp_path / "conn.fourconn"
        f.write_text("FOURCONN 3 0 0\n")
        cfg = tmp_path / "h.cfg"
        cfg.write_text(f"[holonomy]\nconnection = {f}\nnum_geodesics = 2\n")
        assert run(["holonomy", "--config", str(cfg), "--out", str(tmp_path)]) == 2
        assert "tag=validation" in capsys.readouterr().err

    @pytest.mark.parametrize("length", ["0", "-2", "nan", "inf"])
    def test_holonomy_length_finite_positive(self, tmp_path, capsys, length):
        conn = tm.FourierConnection.constant(3, [np.diag([1j, 2j]), np.zeros((2, 2)),
                                                 np.zeros((2, 2))])
        f = tmp_path / "conn.fourconn"
        f.write_text(textio.dump_fourier_connection(conn))
        cfg = tmp_path / "h.cfg"
        cfg.write_text(f"[holonomy]\nconnection = {f}\nnum_geodesics = 2\nlength = {length}\n")
        assert run(["holonomy", "--config", str(cfg), "--out", str(tmp_path)]) == 2
        assert "tag=validation" in capsys.readouterr().err
        assert not (tmp_path / "opacity.csv").exists()

    @pytest.mark.parametrize("setting", ["radius = -0.3", "radius = 0", "radius = nan",
                                         "radius = inf", "kernel_dim = -1"])
    def test_kato_window_inputs(self, tmp_path, capsys, setting):
        cfg = tmp_path / "k.cfg"
        cfg.write_text(f"[kato]\nsize = 6\ninstances = 1\n{setting}\n")
        assert run(["kato", "--config", str(cfg), "--out", str(tmp_path)]) == 2
        assert "tag=validation" in capsys.readouterr().err
        assert not (tmp_path / "kato.csv").exists()

    @pytest.mark.parametrize("sub, config, array", [
        ("kato", "[kato]\nsize = 30000\n", "a kato instance's stack of 7 matrices of size 30000"
         f" needs {7 * 30000 ** 2}"),
        ("torus-ckt", "[torus]\nn = 12\nk = 4\nm = 1\nr = 1\n",
         f"torus space of 9^12 modes x 77 harmonics x fiber 1 needs {9 ** 12 * 77}"),
        ("torus-eject", "[torus]\nn = 3\nk = 200\nm = 0\nr = 2\nbundle_kind = endomorphism\n"
         "[perturbation]\nfile = absent.fourconn\n",
         f"torus space of 401^3 modes x 3 harmonics x fiber 4 needs {401 ** 3 * 12}"),
        ("check-divtype", "[divtype]\nfamily = forms\nn = 40\nk = 20\n",
         f"forms n=40 k=20 on a fiber of dimension {math.comb(40, 20)}"),
        ("check-divtype", "[divtype]\nfamily = dstar\nn = 600\nm = 3\n",
         f"dstar[tracefree] n=600 m=3 on a fiber of dimension {math.comb(602, 3) - 600}"),
        ("check-divtype", "[divtype]\nfamily = counterexample\nr = 1000000\n",
         f"counterexample r=1000000 on a fiber of dimension 2000000 needs {4 * 10 ** 12}"),
        ("torus-eject", "[torus]\nn = 3\nk = 1\nm = 0\nr = 1\n[perturbation]\n"
         "file = absent.fourconn\n[scan]\npoints = 10000000000\n",
         "the scan grid of 10000000000 points needs 10000000000"),
        ("commutator-factor", "[commutator]\nr = 100000\n",
         f"count = 1 random matrices of size r = 100000 needs {10 ** 10}"),
        ("commutator-factor", "[commutator]\nr = 2\ncount = 2000000000\n",
         f"count = 2000000000 random matrices of size r = 2 needs {8 * 10 ** 9}"),
    ], ids=["kato", "torus-ckt", "torus-eject", "forms", "dstar", "counterexample",
            "eject-points", "commutator-r", "commutator-count"])
    def test_entry_ceiling(self, tmp_path, capsys, sub, config, array):
        # the sizes are checked before anything is built: under a memory limit
        # these runs ended in numpy's MemoryError tracebacks, without one they
        # would grow until the machine ran out of memory
        cfg = tmp_path / "c.cfg"
        cfg.write_text(config)
        out = tmp_path / "out"
        assert run([sub, "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "tag=validation" in err and array in err and err.count("\n") == 1
        assert "over the ceiling of 16777216" in err
        assert not out.exists()

    def test_kato_underflowing_fd_step(self, tmp_path, capsys):
        # the fd step's square underflows at this radius: kato.csv's
        # d2_mismatch column read nan, with exit 0
        cfg = tmp_path / "k.cfg"
        cfg.write_text("[kato]\nsize = 2\nkernel_dim = 0\nradius = 1e-300\n")
        out = tmp_path / "out"
        assert run(["kato", "--config", str(cfg), "--out", str(out)]) == 2
        assert "tag=validation" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("radius", ["nan", "-0.5", "0", "1e-9"])
    def test_eject_window_radius(self, eject_setup, tmp_path, capsys, radius):
        # 1e-9 is finite and positive, but the ejected eigenvalue leaves the
        # window before |s| = smax, so the windowed sum no longer counts it
        cfg = tmp_path / "w.cfg"
        cfg.write_text(eject_setup.read_text() + f"window_radius = {radius}\n")
        assert run(["torus-eject", "--config", str(cfg), "--out", str(tmp_path)]) == 2
        assert "tag=validation" in capsys.readouterr().err
        assert not (tmp_path / "eject.csv").exists()

    @pytest.mark.parametrize("edit, message", [
        (lambda text: text + "window_radius = 5.0\n",
         "window contains nonzero unperturbed eigenvalues"),
        (lambda text: text.replace("k = 1", "k = 0"), "no spectral gap"),
    ], ids=["window-radius-5", "k-0"])
    def test_eject_window_without_a_gap(self, eject_setup, tmp_path, capsys, edit, message):
        # k = 0 keeps only mode 0, whose Laplacian is zero at m = 0
        cfg = tmp_path / "w.cfg"
        cfg.write_text(edit(eject_setup.read_text()))
        out = tmp_path / "out"
        assert run(["torus-eject", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "tag=validation" in err and message in err and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("payload, message", [
        ("HPOLY 0 2 0\n", "HPOLY needs n >= 1, got 0"),
        ("HPOLY 3 2 2\n1.0 0.0 2 0 0\n", "expected 2 term lines, got 1"),
        ("HPOLY 3 2 1\n1.0 0.0 2 0\n", "bad term line"),
    ], ids=["n-0", "missing-term-line", "short-term-line"])
    def test_harmdecomp_malformed_payload(self, tmp_path, capsys, payload, message):
        (tmp_path / "p.hpoly").write_text(payload)
        cfg = tmp_path / "h.cfg"
        cfg.write_text(f"[harmdecomp]\ninput = {tmp_path / 'p.hpoly'}\n")
        out = tmp_path / "out"
        assert run(["harmdecomp", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "tag=validation" in err and message in err and err.count("\n") == 1
        assert not out.exists()

    def test_divtype_form_degree_above_n(self, tmp_path, capsys):
        cfg = tmp_path / "d.cfg"
        cfg.write_text("[divtype]\nfamily = forms\nn = 3\nk = 5\n")
        out = tmp_path / "out"
        assert run(["check-divtype", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "tag=validation" in err and "need 0 <= k <= n, got k=5" in err
        assert err.count("\n") == 1 and not out.exists()

    def test_holonomy_rejects_non_finite_coefficients(self, tmp_path, capsys):
        f = tmp_path / "conn.fourconn"
        f.write_text("FOURCONN 3 1 1\n0 0 0 0 nan 0\n")
        cfg = tmp_path / "h.cfg"
        cfg.write_text(f"[holonomy]\nconnection = {f}\nnum_geodesics = 2\n")
        assert run(["holonomy", "--config", str(cfg), "--out", str(tmp_path)]) == 2
        assert "tag=validation" in capsys.readouterr().err

    @pytest.mark.parametrize("samples", [0, -3])
    def test_divtype_needs_a_sample(self, tmp_path, capsys, samples):
        cfg = tmp_path / "d.cfg"
        cfg.write_text(f"[divtype]\nfamily = dstar\nn = 3\nm = 2\nsamples = {samples}\n")
        assert run(["check-divtype", "--config", str(cfg), "--out", str(tmp_path)]) == 2
        assert "tag=validation" in capsys.readouterr().err
        assert not (tmp_path / "divtype.csv").exists()

    @pytest.mark.parametrize("keys", [
        "family = dstar, n = 3, m = -1",  # empty fiber
        "family = dstar, n = 0, m = 2",
        "family = dstar, n = 1, m = 1",
        "family = divergence, n = -1",
        "family = divergence, n = 0",
        "family = divergence, n = 1",
        "family = forms, n = 0, k = 0",
        "family = counterexample, r = 0",  # empty fiber
    ])
    def test_divtype_needs_a_fiber_and_n_at_least_2(self, tmp_path, capsys, keys):
        cfg = tmp_path / "d.cfg"
        cfg.write_text("[divtype]\n" + keys.replace(", ", "\n") + "\n")
        assert run(["check-divtype", "--config", str(cfg), "--out", str(tmp_path)]) == 2
        assert "tag=validation" in capsys.readouterr().err
        assert not (tmp_path / "divtype.csv").exists()

    @pytest.mark.parametrize("keys", ["r = 0", "r = -2", "r = 3, count = 0"])
    def test_commutator_needs_a_rank_and_a_count(self, tmp_path, capsys, keys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("[commutator]\n" + keys.replace(", ", "\n") + "\n")
        assert run(["commutator-factor", "--config", str(cfg), "--out", str(tmp_path)]) == 2
        assert "tag=validation" in capsys.readouterr().err
        assert not (tmp_path / "commutator.csv").exists()

    def test_commutator_rejects_empty_endo(self, tmp_path, capsys):
        (tmp_path / "u.endo").write_text("ENDO 0\n")
        cfg = tmp_path / "c.cfg"
        cfg.write_text(f"[commutator]\ninput = {tmp_path / 'u.endo'}\n")
        assert run(["commutator-factor", "--config", str(cfg), "--out", str(tmp_path)]) == 2
        assert "tag=validation" in capsys.readouterr().err

    @pytest.mark.parametrize("instances", [0, -1])
    def test_kato_needs_an_instance(self, tmp_path, capsys, instances):
        cfg = tmp_path / "k.cfg"
        cfg.write_text(f"[kato]\nsize = 6\ninstances = {instances}\n")
        assert run(["kato", "--config", str(cfg), "--out", str(tmp_path)]) == 2
        assert "tag=validation" in capsys.readouterr().err
        assert not (tmp_path / "kato.csv").exists()

    def test_dims_needs_a_degree(self, tmp_path, capsys):
        assert run(["dims", "--n", "3", "--mmax", "-1", "--out", str(tmp_path)]) == 2
        assert "tag=validation" in capsys.readouterr().err
        assert not (tmp_path / "dims.csv").exists()

    def test_kato_needs_a_matrix(self, tmp_path, capsys):
        cfg = tmp_path / "k.cfg"
        cfg.write_text("[kato]\nsize = 0\nkernel_dim = 0\ninstances = 1\n")
        assert run(["kato", "--config", str(cfg), "--out", str(tmp_path)]) == 2
        assert "tag=validation" in capsys.readouterr().err

    def test_tol_only_where_read(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["kato", "--tol", "1e-3"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --tol" in capsys.readouterr().err

    def test_module_entry_point(self):
        import cktlab

        src = os.path.dirname(os.path.dirname(cktlab.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        proc = subprocess.run([sys.executable, "-m", "cktlab.cli", "selftest"], env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0
        assert "checks passed" in proc.stdout

    def test_import_loads_no_dense_scipy_modules(self, tmp_path):
        # ckt-lab runs on numpy alone: importing every cktlab module and
        # running the subcommands that assemble torus matrices (torus-ckt,
        # torus-eject, selftest), the holonomy probe and kato load no scipy
        # module at all
        conn = tm.FourierConnection.constant(3, [np.diag([1j, 2j]), np.zeros((2, 2)),
                                                 np.zeros((2, 2))])
        (tmp_path / "c.fourconn").write_text(textio.dump_fourier_connection(conn))
        (tmp_path / "h.cfg").write_text(
            "[holonomy]\nconnection = c.fourconn\nnum_geodesics = 2\nsteps = 16\n")
        (tmp_path / "k.cfg").write_text("[kato]\nsize = 6\ninstances = 1\n")
        pert = tm.FourierConnection.cosine_mode(3, (0, 1, 0), 0, 0.5j * np.eye(1))
        (tmp_path / "p.fourconn").write_text(textio.dump_fourier_connection(pert))
        torus = "[torus]\nn = 3\nk = 1\nm = 0\nr = 1\n"
        (tmp_path / "t.cfg").write_text(torus)
        (tmp_path / "e.cfg").write_text(
            torus + "\n[perturbation]\nfile = p.fourconn\n\n[scan]\nsmax = 0.1\npoints = 5\n")
        code = ("import importlib, pkgutil, sys\n"
                "import cktlab\n"
                "for info in pkgutil.iter_modules(cktlab.__path__):\n"
                "    importlib.import_module('cktlab.' + info.name)\n"
                "from cktlab.cli import run\n"
                "assert run(['holonomy', '--config', 'h.cfg', '--out', 'h']) == 0\n"
                "assert run(['kato', '--config', 'k.cfg', '--out', 'k']) == 0\n"
                "assert run(['torus-ckt', '--config', 't.cfg', '--out', 't']) == 0\n"
                "assert run(['torus-eject', '--config', 'e.cfg', '--out', 'e']) == 0\n"
                "assert run(['selftest']) == 0\n"
                "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
        assert _fresh_process(tmp_path, code)[-1] == "[]"


class TestStartup:
    # a subcommand imports the layers it runs and no other: importing the
    # CLI loads the config and error plumbing only
    BASE = {"cktlab", "cktlab.cli", "cktlab.errors", "cktlab.linalg", "cktlab.textio"}
    # the modules each subcommand adds to BASE
    LAYERS = {
        "dims": {"polyharm"},
        "harmdecomp": {"polyharm"},
        "check-divtype": {"connalg", "polyharm", "symbolcheck", "symtensor", "torus"},
        "commutator-factor": {"connalg", "polyharm", "torus"},
        "torus-ckt": {"connalg", "polyharm", "symtensor", "torus", "torusmodel"},
        "torus-eject": {"connalg", "polyharm", "symtensor", "torus", "torusmodel"},
        "kato": {"spectral"},
        "holonomy": {"connalg", "holonomy", "polyharm", "torus"},
    }
    SHOW = "print(sorted(m for m in sys.modules if m.split('.')[0] in ('cktlab', 'scipy')))"

    def test_import_loads_only_the_plumbing(self, tmp_path):
        out = _fresh_process(tmp_path, f"import sys\nimport cktlab.cli\n{self.SHOW}")
        assert out[-1] == repr(sorted(self.BASE))

    @staticmethod
    def _inputs(tmp_path):
        conn = tm.FourierConnection.constant(3, [np.diag([1j, 2j]), np.zeros((2, 2)),
                                                 np.zeros((2, 2))])
        pert = tm.FourierConnection.cosine_mode(3, (0, 1, 0), 0, 0.5j * np.eye(1))
        torus = "[torus]\nn = 3\nk = 1\nm = 0\nr = 1\n"
        files = {
            "c.fourconn": textio.dump_fourier_connection(conn),
            "p.fourconn": textio.dump_fourier_connection(pert),
            "x.hpoly": "HPOLY 3 2 1\n1.0 0.0 2 0 0\n",
            "harmdecomp.cfg": "[harmdecomp]\ninput = x.hpoly\n",
            "check-divtype.cfg": "[divtype]\nfamily = dstar\nn = 3\nm = 2\nsamples = 16\n",
            "commutator-factor.cfg": "[commutator]\nr = 2\n",
            "torus-ckt.cfg": torus,
            "torus-eject.cfg": torus + "[perturbation]\nfile = p.fourconn\n"
                                       "[scan]\nsmax = 0.1\npoints = 5\n",
            "kato.cfg": "[kato]\nsize = 6\ninstances = 1\n",
            "holonomy.cfg": "[holonomy]\nconnection = c.fourconn\nnum_geodesics = 2\n"
                            "steps = 16\n",
        }
        for name, text in files.items():
            (tmp_path / name).write_text(text)

    @pytest.mark.parametrize("subcommand", LAYERS)
    def test_subcommand_loads_its_layers(self, tmp_path, subcommand):
        self._inputs(tmp_path)
        argv = (["dims", "--n", "3", "--mmax", "2"] if subcommand == "dims"
                else [subcommand, "--config", f"{subcommand}.cfg"])
        out = _fresh_process(tmp_path, "import contextlib, io, sys\n"
                                       "from cktlab.cli import run\n"
                                       "with contextlib.redirect_stdout(io.StringIO()):\n"
                                       f"    code = run({argv + ['--out', 'o']!r})\n"
                                       f"print(code)\n{self.SHOW}")
        added = {f"cktlab.{m}" for m in self.LAYERS[subcommand]}
        assert out[-2:] == ["0", repr(sorted(self.BASE | added))]


class TestDivtype:
    def test_dstar_table_entry(self, tmp_path, capsys):
        cfg = tmp_path / "d.cfg"
        cfg.write_text("[divtype]\nfamily = dstar\nn = 3\nm = 2\n")
        assert run(["check-divtype", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        assert "uniform" in capsys.readouterr().out
        rows = read_data_lines(tmp_path / "divtype.csv")
        assert rows[0].startswith("index,kernel_dim")
        assert "verdict=uniform" in rows[-1]

    def test_dstar_surface_edge_case_note(self, tmp_path, capsys):
        # (n=2, m=1) exits 0 with the verdict of its sampled kernels and a note
        cfg = tmp_path / "d.cfg"
        cfg.write_text("[divtype]\nfamily = dstar\nn = 2\nm = 1\n")
        assert run(["check-divtype", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        assert "span 2/2 -> uniform" in capsys.readouterr().out
        notes = [ln for ln in (tmp_path / "divtype.csv").read_text().splitlines()
                 if ln.startswith("# note:")]
        assert notes == ["# note: documented edge case: raw sampled kernels span the full "
                         "fiber at (n=2, m=1) although the surface operators are classified "
                         "as elliptic"]

    def test_counterexample(self, tmp_path, capsys):
        cfg = tmp_path / "d.cfg"
        cfg.write_text("[divtype]\nfamily = counterexample\nr = 2\n")
        assert run(["check-divtype", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        assert "span 2/4" in capsys.readouterr().out

    def test_unknown_family(self, tmp_path):
        cfg = tmp_path / "d.cfg"
        cfg.write_text("[divtype]\nfamily = nonsense\n")
        assert run(["check-divtype", "--config", str(cfg), "--out", str(tmp_path)]) == 2


class TestCommutator:
    def test_random_batch(self, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("[commutator]\nr = 4\ncount = 5\n")
        assert run(["commutator-factor", "--config", str(cfg), "--out", str(tmp_path),
                    "--seed", "7"]) == 0
        rows = read_data_lines(tmp_path / "commutator.csv")
        assert len(rows) == 6
        for row in rows[1:]:
            assert float(row.split(",")[1]) <= 1e-9

    def test_single_file_roundtrip(self, tmp_path):
        u = 1j * np.diag([1.0, -1.0])
        (tmp_path / "u.endo").write_text(textio.dump_endo(u))
        cfg = tmp_path / "c.cfg"
        cfg.write_text(f"[commutator]\ninput = {tmp_path / 'u.endo'}\n")
        assert run(["commutator-factor", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        A = textio.load_endo((tmp_path / "factor_A.endo").read_text())
        G = textio.load_endo((tmp_path / "factor_G.endo").read_text())
        assert np.abs(A @ G - G @ A - u).max() <= 1e-9


    @pytest.mark.parametrize("source", ["random", "file"])
    def test_failed_gate_writes_nothing(self, tmp_path, capsys, source):
        # the residual (~1e-15) passes the factorization but not a 1e-19 gate
        if source == "file":
            (tmp_path / "u.endo").write_text(textio.dump_endo(1j * np.diag([1.0, -1.0])))
            keys = f"input = {tmp_path / 'u.endo'}"
        else:
            keys = "r = 3\ncount = 2"
        cfg = tmp_path / "c.cfg"
        cfg.write_text(f"[commutator]\n{keys}\n")
        out = tmp_path / "out"
        assert run(["commutator-factor", "--config", str(cfg), "--out", str(out),
                    "--tol", "1e-20"]) == 3
        assert "tag=non-convergence" in capsys.readouterr().err
        assert not out.exists() or not os.listdir(out)


class TestTorusCkt:
    def test_trivial_kernel(self, tmp_path, capsys):
        cfg = tmp_path / "t.cfg"
        cfg.write_text("[torus]\nn = 3\nk = 1\nm = 1\nr = 1\n")
        assert run(["torus-ckt", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        assert "kernel dimension 3" in capsys.readouterr().out

    def test_rank_margin_line(self, tmp_path):
        # zero connection at n=3 K=1 m=0: the largest singular value is
        # |(1,1,1)| / sqrt(3) = 1, the smallest kept 1 / sqrt(3) at |k| = 1,
        # and the mode-0 block's is exactly 0
        cfg = tmp_path / "t.cfg"
        cfg.write_text("[torus]\nn = 3\nk = 1\nm = 0\nr = 1\n")
        assert run(["torus-ckt", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "ckt_kernel.csv").read_text().splitlines()
        margin = [ln for ln in lines if ln.startswith("# rank_margin:")]
        assert len(margin) == 1
        fields = dict(f.split("=") for f in margin[0].split(": ", 1)[1].split(" "))
        assert list(fields) == ["cut", "min_kept", "max_cut"]
        assert float(fields["cut"]) == pytest.approx(1e-10, rel=1e-12)
        assert float(fields["min_kept"]) == pytest.approx(1 / math.sqrt(3), rel=1e-12)
        assert fields["max_cut"] == "0.0"
        # the margin is a comment: the data rows are as before
        assert read_data_lines(tmp_path / "ckt_kernel.csv") == [
            "kernel_index,mode_support\n", "0,0/0/0\n"]


    def test_duplicate_connection_row(self, tmp_path, capsys):
        # the twin rows used to add up to 1.0i, which the opposite mode matches
        conn = tmp_path / "c.fourconn"
        conn.write_text("FOURCONN 3 1 3\n1 0 0 0 0.0 0.5\n1 0 0 0 0.0 0.5\n-1 0 0 0 0.0 1.0\n")
        cfg = tmp_path / "t.cfg"
        cfg.write_text(f"[torus]\nn = 3\nk = 1\nm = 1\nr = 1\n\n[connection]\nfile = {conn}\n")
        out = tmp_path / "out"
        assert run(["torus-ckt", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "tag=validation" in err and "duplicate row for mode (1, 0, 0)" in err
        assert not out.exists()


class TestKato:
    def test_small_run(self, tmp_path):
        cfg = tmp_path / "k.cfg"
        cfg.write_text("[kato]\nsize = 10\ninstances = 3\n")
        assert run(["kato", "--config", str(cfg), "--out", str(tmp_path),
                    "--seed", "5"]) == 0
        rows = read_data_lines(tmp_path / "kato.csv")
        assert len(rows) == 4
        for row in rows[1:]:
            cells = row.strip().split(",")
            assert float(cells[1]) <= 1e-9   # identity residual
            assert float(cells[5]) <= 1e-10  # pi operator norm

    def test_rerun_byte_identical_and_equal_to_separate_passes(self, tmp_path):
        # the one-pass suite must give the rows that lambda_derivatives and
        # conjugation_check, called separately, give for the same draws
        cfg = tmp_path / "k.cfg"
        cfg.write_text("[kato]\nsize = 12\ninstances = 3\n")
        outs = []
        for out in (tmp_path / "o1", tmp_path / "o2"):
            assert run(["kato", "--config", str(cfg), "--out", str(out), "--seed", "7"]) == 0
            outs.append((out / "kato.csv").read_text().splitlines())
        assert outs[0][0].startswith("# timestamp:") and outs[0][1:] == outs[1][1:]
        rng = np.random.default_rng(7)
        expected = []
        for i in range(3):
            X = sp.random_skew_adjoint_with_kernel(rng, 12, 2, gap=0.8, spread=4.0)
            M = rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))
            P_A = (M - M.conj().T) / 2
            W = sp.spectral_window(X, 0.3)
            d1c, d2c, d1f, d2f = sp.lambda_derivatives(W, P_A)
            conj = sp.conjugation_check(X, 0.05 * P_A, np.linspace(-1, 1, 3), radius=0.3)
            pi_norm = float(np.abs(sp.pi_operator(W)).max())
            expected.append(f"{i},{sp.resolvent_identity_check(W)!r},{float(abs(d1f - d1c))!r},"
                            f"{float(abs(d2f - d2c))!r},{conj!r},{pi_norm!r}")
        assert [ln.strip() for ln in read_data_lines(tmp_path / "o1" / "kato.csv")][1:] == expected

    def test_window_and_walk_comments(self, tmp_path):
        # the largest node count and the smallest contour clearance of the
        # outer spectrum over the windows, and the band of the walk: the
        # instances are exactly skew-Hermitian, so their Hessenberg forms are
        # tridiagonal
        cfg = tmp_path / "k.cfg"
        cfg.write_text("[kato]\nsize = 12\ninstances = 3\n")
        assert run(["kato", "--config", str(cfg), "--out", str(tmp_path), "--seed", "7"]) == 0
        with open(tmp_path / "kato.csv") as fh:
            comments = dict(ln[2:].rstrip("\n").split(": ", 1) for ln in fh
                            if ln.startswith("# "))
        rng = np.random.default_rng(7)
        windows, clearances = [], []
        for _ in range(3):
            X = sp.random_skew_adjoint_with_kernel(rng, 12, 2, gap=0.8, spread=4.0)
            rng.standard_normal((12, 12)), rng.standard_normal((12, 12))  # P_A's draws
            windows.append(sp.spectral_window(X, 0.3))
            mags = np.abs(np.linalg.eigvals(X))
            clearances.append((mags[mags > 0.3] - 0.3).min() / 0.3)
        assert comments["max_quadrature_nodes"] == str(max(W.quadrature_nodes for W in windows))
        assert float(comments["min_contour_clearance"]) == min(W.clearance for W in windows)
        assert float(comments["min_contour_clearance"]) == pytest.approx(min(clearances),
                                                                         rel=1e-12)
        assert comments["walk_band"] == "1"

    @staticmethod
    def _one_item_rows(seed, size, instances):
        """kato.csv's data rows from one-item perturbation_suite passes on the run's draws."""
        rng = np.random.default_rng(seed)
        rows = []
        for i in range(instances):
            X = sp.random_skew_adjoint_with_kernel(rng, size, 2, gap=0.8, spread=4.0)
            M = rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
            P_A = (M - M.conj().T) / 2
            W = sp.spectral_window(X, 0.3)
            [(d1c, d2c, d1f, d2f, conj)] = sp.perturbation_suite([(W, P_A, 0.05 * P_A)],
                                                                 np.linspace(-1, 1, 3))
            pi_norm = float(np.abs(sp.pi_operator(W)).max())
            rows.append(f"{i},{sp.resolvent_identity_check(W)!r},{float(abs(d1f - d1c))!r},"
                        f"{float(abs(d2f - d2c))!r},{conj!r},{pi_norm!r}")
        return rows

    @staticmethod
    def _reduced_stacks(tmp_path, monkeypatch, size, instances):
        """(the stack size of each _hessenberg call, kato.csv's data rows) of a run."""
        stacks = []
        reduce = sp._hessenberg

        def counted(H):
            stacks.append(len(H))
            return reduce(H)

        monkeypatch.setattr(sp, "_hessenberg", counted)
        cfg = tmp_path / "k.cfg"
        cfg.write_text(f"[kato]\nsize = {size}\ninstances = {instances}\n")
        assert run(["kato", "--config", str(cfg), "--out", str(tmp_path), "--seed", "3"]) == 0
        return stacks, [ln.strip() for ln in read_data_lines(tmp_path / "kato.csv")][1:]

    def test_groups_equal_one_item_passes(self, tmp_path, monkeypatch):
        # seven matrices per instance, at most 2^16 entries per stack: size 40
        # fits five instances in the first stack and the sixth in the second
        want = self._one_item_rows(3, 40, 6)
        stacks, rows = self._reduced_stacks(tmp_path, monkeypatch, 40, 6)
        assert stacks == [35, 7]
        assert rows == want

    def test_large_instances_are_their_own_groups(self, tmp_path, monkeypatch):
        # an instance of size 100 has more than 2^16 entries on its own
        stacks, rows = self._reduced_stacks(tmp_path, monkeypatch, 100, 2)
        assert stacks == [7, 7] and len(rows) == 2

    def test_traced_peak_of_the_bench_run(self, tmp_path):
        # the bench's kato config: five instances of size 40 fill one 1 MiB
        # stack; a warm-up run keeps lazy imports and caches out of the peak
        cfg = tmp_path / "k.cfg"
        cfg.write_text("[kato]\nsize = 40\ninstances = 5\n")
        argv = ["kato", "--config", str(cfg), "--out", str(tmp_path)]
        assert run(argv) == 0
        tracing = tracemalloc.is_tracing()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            assert run(argv) == 0
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            if not tracing:
                tracemalloc.stop()
        assert peak <= 2.5 * 2**20

    def test_traced_peak_of_a_small_run(self, tmp_path):
        # kato hands the suite sized draws, so three instances of size 12 take
        # a stack of their 21 rows (48 KiB); a generator, which has no length,
        # took the full 2^16-entry capacity and peaked at 1.80 MiB.  The walk's
        # three rows of _TRACE_BUDGET entries (0.75 MiB) are most of the rest
        cfg = tmp_path / "k.cfg"
        cfg.write_text("[kato]\nsize = 12\ninstances = 3\n")
        argv = ["kato", "--config", str(cfg), "--out", str(tmp_path)]
        assert run(argv) == 0  # warm-up: lazy imports and caches
        tracing = tracemalloc.is_tracing()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            assert run(argv) == 0
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            if not tracing:
                tracemalloc.stop()
        assert peak <= 1.0 * 2**20

    def test_one_eig_per_instance(self, tmp_path, monkeypatch):
        # the window's eig of X serves the contour check, the zero rule,
        # the cross-check and the enclosed count; eigvals runs only at the
        # two ends X +- 2h P_A of the fd stencil
        calls = {"eig": [], "eigvals": []}
        for name in calls:
            solver = getattr(np.linalg, name)

            def counted(A, solver=solver, name=name):
                calls[name].append(np.array(A))
                return solver(A)

            monkeypatch.setattr(np.linalg, name, counted)
        cfg = tmp_path / "k.cfg"
        cfg.write_text("[kato]\nsize = 10\ninstances = 1\n")
        assert run(["kato", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        [X] = calls["eig"]
        assert np.abs(X + X.conj().T).max() < 1e-12  # the skew-adjoint instance
        plus, minus = (A - X for A in calls["eigvals"])
        assert np.abs(plus + minus).max() < 1e-12 and np.abs(plus).max() > 0

    def test_window_enclosing_nonzero_eigenvalues_rejected(self, tmp_path, capsys):
        # radius 100 encloses the whole spectrum: the d1/d2/conjugation
        # columns still looked perfect, but the identity residual was 4.8
        cfg = tmp_path / "k.cfg"
        cfg.write_text("[kato]\nsize = 4\nkernel_dim = 2\ninstances = 1\nradius = 100\n")
        assert run(["kato", "--config", str(cfg), "--out", str(tmp_path), "--seed", "3"]) == 2
        err = capsys.readouterr().err
        assert "tag=validation" in err and "nonzero eigenvalue" in err
        assert not (tmp_path / "kato.csv").exists()


class TestHolonomyCmd:
    def test_diagonal_reducible(self, tmp_path, capsys):
        conn = tm.FourierConnection.constant(
            3, [np.diag([1j, 2j]), np.zeros((2, 2)), np.zeros((2, 2))])
        f = tmp_path / "conn.fourconn"
        f.write_text(textio.dump_fourier_connection(conn))
        cfg = tmp_path / "h.cfg"
        cfg.write_text(f"[holonomy]\nconnection = {f}\nnum_geodesics = 12\nsteps = 128\n")
        assert run(["holonomy", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        assert "not opaque" in capsys.readouterr().out
        rows = read_data_lines(tmp_path / "opacity.csv")
        assert "commutant_dim=2" in rows[-1]

    def test_transport_health_comments(self, tmp_path):
        conn = tm.FourierConnection.cosine_mode(
            3, (1, 0, 0), 1, np.array([[0.7j, 0.3], [-0.3, -0.2j]]))
        f = tmp_path / "conn.fourconn"
        f.write_text(textio.dump_fourier_connection(conn))
        cfg = tmp_path / "h.cfg"
        cfg.write_text(f"[holonomy]\nconnection = {f}\nnum_geodesics = 4\nsteps = 64\n")
        outs = []
        for out in (tmp_path / "o1", tmp_path / "o2"):
            assert run(["holonomy", "--config", str(cfg), "--out", str(out)]) == 0
            outs.append((out / "opacity.csv").read_text().splitlines()[1:])  # no timestamp
        assert outs[0] == outs[1]
        comments = dict(ln[2:].split(": ", 1) for ln in outs[0] if ln.startswith("# "))
        assert 0 < float(comments["transport_error"]) <= 1e-6
        assert 0 < float(comments["unitarity_defect"]) <= 1e-8

    @staticmethod
    def _large_payload(tmp_path):
        """Gamma_(+-1,0,0) of size 1e3 on dx_0 whose reality holds to a relative
        4e-13 only: within the loader's check at 1e-12 max(1, max|Gamma_q|)."""
        M = 1e3 * np.array([[0.7j, 0.3], [-0.3, -0.2j]])
        minus = -M.conj().T
        minus[0, 1] *= 1 + 4e-13
        z = np.zeros((2, 2))
        text = textio.dump_fourier_connection(tm.FourierConnection(
            {(1, 0, 0): (M, z, z), (-1, 0, 0): (minus, z, z)}))
        textio.load_fourier_connection(text)
        f = tmp_path / "large.fourconn"
        f.write_text(text)
        return f

    def test_loader_and_transport_agree_on_unitarity(self, tmp_path, capsys):
        # transport's sampled skew probe (absolute 1e-10) used to refuse
        # this accepted payload with exit 2, naming a flag no input can set
        cfg = tmp_path / "h.cfg"
        cfg.write_text(f"[holonomy]\nconnection = {self._large_payload(tmp_path)}\n"
                       "num_geodesics = 3\nlength = 0.01\nsteps = 64\n")
        assert run(["holonomy", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
        assert not capsys.readouterr().err

    @pytest.mark.parametrize("extra", ["length = 1e300\n", ""])
    def test_overflowing_transport(self, tmp_path, capsys, extra):
        # length 1e300, or Gamma of size 1e3 at the default steps: seven numpy
        # RuntimeWarnings, then exit 3 blaming the commutant's SVD
        cfg = tmp_path / "h.cfg"
        cfg.write_text(f"[holonomy]\nconnection = {self._large_payload(tmp_path)}\n"
                       f"num_geodesics = 3\n{extra}")
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["holonomy", "--config", str(cfg), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert "tag=non-convergence" in err and "overflowed at 512 steps" in err
        assert err.count("\n") == 1
        assert not out.exists()

    def test_transport_without_a_correct_digit(self, tmp_path, capsys):
        # the fuzz's pinned payload (cosine modes of size about 8e3) at length 1
        # and 16 steps: finite frames with an error estimate of about 1e98
        # used to exit 0 with the verdict "opaque"
        conn = tmp_path / "c.fourconn"
        conn.write_text("FOURCONN 3 1 3\n0 0 -1 0 0.0 -6515.786158022206\n"
                        "0 0 0 0 0.0 8216.181435011584\n0 0 1 0 0.0 -6515.786158021805\n")
        cfg = tmp_path / "h.cfg"
        cfg.write_text(f"[holonomy]\nconnection = {conn}\nnum_geodesics = 1\n"
                       "length = 1.0\nsteps = 16\n")
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["holonomy", "--config", str(cfg), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert "tag=non-convergence" in err and "did not converge at 32 steps" in err
        assert "raise steps" in err and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("header, geodesics, array, entries", [
        ("FOURCONN 3 3000000000 0", 24, "commutant system", 24 * 3000000000 ** 4),
        ("FOURCONN 3 100000 0", 24, "commutant system", 24 * 100000 ** 4),
        ("FOURCONN 3 3 0", 20000, "Gamma slab", 9 * 20000 * (4 * 32 + 1)),
    ], ids=["r-3e9", "r-1e5", "G-2e4"])
    def test_entry_ceiling(self, tmp_path, capsys, header, geodesics, array, entries):
        # r = 3e9 ended in numpy's "array is too big" traceback and r = 1e5
        # would have asked np.eye for 160 GB; the check precedes every
        # allocation, so a run over the ceiling needs no memory limit
        conn = tmp_path / "c.fourconn"
        conn.write_text(header + "\n")
        cfg = tmp_path / "h.cfg"
        cfg.write_text(f"[holonomy]\nconnection = {conn}\nnum_geodesics = {geodesics}\n")
        out = tmp_path / "out"
        assert run(["holonomy", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        r = header.split()[2]
        assert "tag=validation" in err and array in err and err.count("\n") == 1
        assert f"r = {r} over G = {geodesics} geodesics needs {entries} complex" in err
        assert not out.exists()


class TestHarmdecomp:
    def test_roundtrip(self, tmp_path, capsys):
        from cktlab.polyharm import HPoly

        P = HPoly.monomial(3, (2, 0, 0))
        (tmp_path / "p.hpoly").write_text(textio.dump_hpoly(P))
        cfg = tmp_path / "h.cfg"
        cfg.write_text(f"[harmdecomp]\ninput = {tmp_path / 'p.hpoly'}\n")
        assert run(["harmdecomp", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        assert (tmp_path / "part_k0.hpoly").exists()
        assert (tmp_path / "part_k1.hpoly").exists()
        h1 = textio.load_hpoly((tmp_path / "part_k1.hpoly").read_text())
        assert abs(h1.coeffs[(0, 0, 0)] - 1 / 3) < 1e-15

    @pytest.mark.parametrize("m", [12, 20, 66, 171])
    def test_degree_ceiling(self, tmp_path, capsys, m):
        # the float peeling loses harmonicity about a decade per degree: on
        # x_0^m the worst ||Laplace h||_B / ||P||_B is 1.4e-13 at degree 12,
        # but degree 20 used to write parts at 8e-7 with exit 0, degree 66
        # parts holding inf and nan, and degree 171 an OverflowError traceback
        (tmp_path / "p.hpoly").write_text(f"HPOLY 3 {m} 1\n1.0 0.0 {m} 0 0\n")
        cfg = tmp_path / "h.cfg"
        cfg.write_text(f"[harmdecomp]\ninput = {tmp_path / 'p.hpoly'}\n")
        out = tmp_path / "out"
        rc = run(["harmdecomp", "--config", str(cfg), "--out", str(out)])
        if m == 12:
            assert rc == 0
            rows = read_data_lines(out / "harmdecomp.csv")[1:]
            assert len(rows) == 7
            scale = math.sqrt(math.factorial(m))  # ||x_0^m||_B
            assert all(float(row.split(",")[3]) < cli.HARMONIC_CUT * scale for row in rows)
            return
        assert rc == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "tag=non-convergence" in err
        assert f"degree {m} are not harmonic" in err and "not below the cut 1e-10" in err
        assert not out.exists()

    def test_rounding_noise_parts_pass(self, tmp_path):
        # a harmonic quartic with decimal coefficients: its float Laplacian
        # leaves 2e-16 (x0^2 + x1^2), so the peeling keeps radial parts k = 1
        # and k = 2 that are pure rounding noise, not harmonic relative to
        # their own norm but within the cut relative to the input's
        (tmp_path / "p.hpoly").write_text(
            "HPOLY 3 4 3\n0.1 0.0 4 0 0\n-0.6 0.0 2 2 0\n0.1 0.0 0 4 0\n")
        cfg = tmp_path / "h.cfg"
        cfg.write_text(f"[harmdecomp]\ninput = {tmp_path / 'p.hpoly'}\n")
        assert run(["harmdecomp", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        rows = [row.strip().split(",") for row in read_data_lines(tmp_path / "harmdecomp.csv")[1:]]
        assert [row[0] for row in rows] == ["0", "1", "2"]
        assert all(float(row[2]) < 1e-16 for row in rows[1:])
        assert float(rows[1][3]) > float(rows[1][2])  # ||Laplace h_1||_B > ||h_1||_B


class TestSelftest:
    def test_runs_green(self, capsys):
        assert run(["selftest"]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out


class TestSerializationRoundtrips:
    def test_hpoly_bit_exact(self, rng):
        from cktlab.polyharm import HPoly, monomials

        coeffs = {a: complex(rng.standard_normal(), rng.standard_normal())
                  for a in monomials(3, 3)}
        P = HPoly(3, 3, coeffs)
        Q = textio.load_hpoly(textio.dump_hpoly(P))
        assert P == Q  # exact equality: shortest-round-trip decimals

    def test_fourconn_roundtrip(self, rng):
        conn = tm.FourierConnection.cosine_mode(3, (0, 1, 0), 1,
                                                np.array([[0.5j, 0.25], [-0.25, -0.5j]]))
        conn2 = textio.load_fourier_connection(textio.dump_fourier_connection(conn))
        assert set(conn2.coeffs) == set(conn.coeffs)
        for q in conn.coeffs:
            for a, b in zip(conn.coeffs[q], conn2.coeffs[q]):
                assert np.array_equal(a, b)


class TestConfigTable:
    @pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1"])
    def test_commutator_tol_finite_positive(self, tmp_path, capsys, tol):
        # nan and inf disabled the residual gate; 0 and -1 failed every residual
        cfg = tmp_path / "c.cfg"
        cfg.write_text("[commutator]\nr = 3\ncount = 2\n")
        with pytest.raises(SystemExit) as exc:
            run(["commutator-factor", "--config", str(cfg), "--out", str(tmp_path),
                 f"--tol={tol}"])
        assert exc.value.code == 2
        assert "argument --tol" in capsys.readouterr().err
        assert not (tmp_path / "commutator.csv").exists()

    @pytest.mark.parametrize("flag", ["--config", "--out"])
    def test_selftest_takes_only_a_seed(self, tmp_path, capsys, flag):
        with pytest.raises(SystemExit) as exc:
            run(["selftest", flag, str(tmp_path / "x")])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err

    @pytest.mark.parametrize("name", sorted(cli.SUBCOMMANDS))
    def test_negative_seed_is_a_usage_error(self, capsys, name):
        # the subcommands that draw random numbers ended in numpy's
        # "expected non-negative integer" traceback; the others wrote
        # seed = -1 into their manifest
        with pytest.raises(SystemExit) as exc:
            run([name, "--seed", "-1"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: ckt-lab") and "argument --seed" in err
        assert "Traceback" not in err

    def test_table_applies_without_a_config(self, capsys):
        # required keys are enforced when no --config is given at all
        assert run(["holonomy"]) == 2
        assert "missing key 'connection'" in capsys.readouterr().err

    @pytest.mark.parametrize("sub,keys", [
        ("check-divtype", "family = dstar, n = 3"),
        ("check-divtype", "family = forms, n = 3"),
        ("check-divtype", "family = counterexample, n = 3"),
        ("commutator-factor", "count = 2"),
    ])
    def test_keys_that_couple(self, tmp_path, capsys, sub, keys):
        # dstar reads m, forms k, counterexample r; commutator needs input or r
        section = "divtype" if sub == "check-divtype" else "commutator"
        cfg = tmp_path / "c.cfg"
        cfg.write_text(f"[{section}]\n" + keys.replace(", ", "\n") + "\n")
        out = tmp_path / "out"
        assert run([sub, "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "tag=validation" in err and "needs keys" in err
        assert not out.exists()


class TestWriteStep:
    @pytest.mark.parametrize("sub", ["dims", "kato"])
    @pytest.mark.parametrize("under", [False, True])
    def test_unwritable_out(self, tmp_path, capsys, sub, under):
        # --out an existing file, or a path under one: exit 2, not a traceback
        (tmp_path / "k.cfg").write_text("[kato]\nsize = 6\ninstances = 1\n")
        blocker = tmp_path / "blocker"
        blocker.write_text("kept\n")
        argv = (["dims", "--n", "3", "--mmax", "2"] if sub == "dims"
                else ["kato", "--config", str(tmp_path / "k.cfg")])
        out = blocker / "sub" if under else blocker
        assert run(argv + ["--out", str(out)]) == 2
        assert "tag=validation" in capsys.readouterr().err
        assert sorted(os.listdir(tmp_path)) == ["blocker", "k.cfg"]
        assert blocker.read_text() == "kept\n"

    def test_failed_write_removes_the_run_files(self, tmp_path, capsys):
        # manifest.txt is written last; a directory of that name used to
        # leave kato.csv behind
        cfg = tmp_path / "k.cfg"
        cfg.write_text("[kato]\nsize = 6\ninstances = 1\n")
        out = tmp_path / "wt"
        (out / "manifest.txt").mkdir(parents=True)
        assert run(["kato", "--config", str(cfg), "--out", str(out)]) == 2
        assert "tag=validation" in capsys.readouterr().err
        assert os.listdir(out) == ["manifest.txt"]
        assert not os.listdir(out / "manifest.txt")

    def test_dims_without_out_writes_nothing(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert run(["dims", "--n", "2", "--mmax", "1"]) == 0
        assert "  1        2        2" in capsys.readouterr().out
        assert not os.listdir(tmp_path)

    def test_manifest_of_the_flags(self, tmp_path):
        assert run(["dims", "--n", "3", "--mmax", "2", "--out", str(tmp_path)]) == 0
        manifest = (tmp_path / "manifest.txt").read_text().splitlines()
        assert manifest[1:3] == ["subcommand = dims", "seed = 0"]
        assert manifest[-3:] == ["[dims]", "mmax = 2", "n = 3"]


# every payload the fuzz below can point a file key at
FUZZ_PAYLOADS = {
    ("harmdecomp", "input"): "HPOLY 3 2 2\n1.0 0.0 2 0 0\n0.5 -1.0 0 1 1\n",
    ("commutator", "input"): textio.dump_endo(np.array([[1j, 2 + 1j], [-2 + 1j, -1j]])),
    ("connection", "file"): textio.dump_fourier_connection(
        tm.FourierConnection.cosine_mode(3, (0, 1, 0), 1, 0.4j * np.eye(1))),
    ("perturbation", "file"): textio.dump_fourier_connection(
        tm.FourierConnection.cosine_mode(3, (0, 1, 0), 0, 0.5j * np.eye(1))),
    ("holonomy", "connection"): textio.dump_fourier_connection(
        tm.FourierConnection.cosine_mode(3, (1, 0, 0), 1,
                                         np.array([[0.7j, 0.3], [-0.3, -0.2j]]))),
}
FUZZ_TABLES = {name: entry.table for name, entry in cli.SUBCOMMANDS.items()}
# the torus space has (2k+1)^n modes: keep every assembly to about 1000 rows
FUZZ_INT_MAX = {("torus", "k"): 1, ("torus", "m"): 2, ("torus", "r"): 2}
FUZZ_FLOATS = st.one_of(st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -1.0]),
                        st.floats())


def _fuzz_value(section, name, key, clean):
    """Any value of the key's type; a clean draw keeps to its declared domain."""
    if (section, name) in FUZZ_PAYLOADS:
        return st.just("present") if clean else st.sampled_from(["present", "missing"])
    if key.choices:
        return st.sampled_from(key.choices if clean else (*key.choices, "bogus"))
    if key.kind is int:
        low = key.low if clean and key.low is not None else -3
        return st.integers(low, max(low, FUZZ_INT_MAX.get((section, name), 3)))
    if clean:
        return st.floats(0.01, 1.0) if key.kind is textio.positive_float else st.floats(-1, 1)
    return FUZZ_FLOATS


def _fuzz_sections(table, clean):
    # every int key is set, so no run falls back to a large default size;
    # the other keys may be missing unless a clean draw requires them
    def always(key):
        return key.kind is int or (clean and key.required)

    return st.fixed_dictionaries({
        section: st.fixed_dictionaries(
            {name: _fuzz_value(section, name, key, clean)
             for name, key in keys.items() if always(key)},
            optional={name: _fuzz_value(section, name, key, clean)
                      for name, key in keys.items() if not always(key)})
        for section, keys in table.items()})


def _fuzz_argv(sub, sections, workdir):
    out = os.path.join(workdir, "out")
    if sub == "selftest":
        return [sub]
    if sub == "dims":
        return [sub, "--out", out] + [f"--{k}={v}" for k, v in sections["dims"].items()]
    lines = []
    for section, values in sections.items():
        lines.append(f"[{section}]")
        for name, v in values.items():
            if (section, name) in FUZZ_PAYLOADS:
                path = os.path.join(workdir, f"{section}.{name}")
                if v == "present":
                    with open(path, "w", encoding="utf-8") as fh:
                        fh.write(FUZZ_PAYLOADS[section, name])
                v = path
            lines.append(f"{name} = {v}")
    cfg = os.path.join(workdir, "fuzz.cfg")
    with open(cfg, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    return [sub, "--config", cfg, "--out", out]


@settings(max_examples=120, deadline=None)
@given(st.tuples(st.sampled_from(sorted(FUZZ_TABLES)), st.booleans()).flatmap(
    lambda d: st.tuples(st.just(d[0]), _fuzz_sections(FUZZ_TABLES[d[0]], d[1]))))
# the confirmed CLI defects of earlier releases: empty fibers given a verdict,
# tracebacks, and counts below 1 accepted
@example(("check-divtype", {"divtype": {"family": "dstar", "n": 3, "m": -1}}))
@example(("check-divtype", {"divtype": {"family": "divergence", "n": 0}}))
@example(("check-divtype", {"divtype": {"family": "counterexample", "r": 0}}))
@example(("check-divtype", {"divtype": {"family": "forms", "n": 0, "k": 0}}))
@example(("check-divtype", {"divtype": {"family": "dstar", "n": 0, "m": 2}}))
@example(("check-divtype", {"divtype": {"family": "divergence", "n": -1}}))
@example(("commutator-factor", {"commutator": {"r": 0}}))
@example(("commutator-factor", {"commutator": {"r": 3, "count": 0}}))
@example(("kato", {"kato": {"size": 3, "instances": 0}}))
@example(("kato", {"kato": {"size": 3, "instances": -1}}))
@example(("dims", {"dims": {"n": 3, "mmax": -1}}))
def test_every_subcommand_exits_0_2_or_3(drawn):
    sub, sections = drawn
    with tempfile.TemporaryDirectory() as workdir:
        argv = _fuzz_argv(sub, sections, workdir)
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            rc = run(argv)
        assert rc in (0, 2, 3)
        csvs = glob.glob(os.path.join(workdir, "out", "*.csv"))
        if rc:
            assert "tag=" in stderr.getvalue()
            out = os.path.join(workdir, "out")
            assert not os.path.exists(out) or not os.listdir(out)
        for path in csvs:
            # a count below 1 once exited 0 with a header and no data row; only
            # a trivial kernel legitimately lists nothing
            if not path.endswith("ckt_kernel.csv"):
                assert len(read_data_lines(path)) >= 2, path
        assert "span 0/0" not in stdout.getvalue()


@st.composite
def accepted_holonomy_runs(draw):
    """(FOURCONN payload, [holonomy] section) of cosine-mode pairs the loader
    accepts: amplitude 10^U(-3, 4), rank 1 to 3, one entry off its reality
    by a relative mismatch up to 1e-13, and 1 to 3 geodesics of length
    10^U(-3, 3) at 16 or 64 steps."""
    r = draw(st.sampled_from([1, 2, 3]))
    amplitude = 10.0 ** draw(st.floats(-3, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    conn = tm.FourierConnection.zero(r=r, n=3)
    for _ in range(draw(st.integers(1, 2))):
        q = tuple(draw(st.integers(-1, 1)) for _ in range(3))
        M = rng.standard_normal((r, r)) + 1j * rng.standard_normal((r, r))
        conn = conn.plus(tm.FourierConnection.cosine_mode(
            3, q, draw(st.integers(0, 2)), amplitude * (M - M.conj().T) / 2))
    coeffs = {q: [M.copy() for M in mats] for q, mats in conn.coeffs.items()}
    q = draw(st.sampled_from(sorted(coeffs)))
    M = max(coeffs[q], key=lambda M: np.abs(M).max())
    M[np.unravel_index(np.abs(M).argmax(), M.shape)] *= 1 + draw(st.floats(-1e-13, 1e-13))
    payload = textio.dump_fourier_connection(tm.FourierConnection(
        {q: tuple(mats) for q, mats in coeffs.items()}))
    section = {"num_geodesics": draw(st.integers(1, 3)),
               "length": 10.0 ** draw(st.floats(-3, 3)),
               "steps": draw(st.sampled_from([16, 64]))}
    return payload, section


@settings(max_examples=50, deadline=2000)
@given(accepted_holonomy_runs())
# the confirmed defects of earlier releases: an accepted payload refused by
# transport's own skew probe (exit 2), and an overflowing transport that
# exited 0 after numpy RuntimeWarnings
@example(("FOURCONN 3 1 3\n0 0 -1 0 0.0 -6515.786158022206\n0 0 0 0 0.0 8216.181435011584\n"
          "0 0 1 0 0.0 -6515.786158021805\n", {"num_geodesics": 1, "length": 1.0, "steps": 16}))
@example(("FOURCONN 3 1 1\n0 0 0 0 0.0 8.216181435011583\n",
          {"num_geodesics": 1, "length": 1000.0, "steps": 16}))
def test_holonomy_runs_every_accepted_payload(drawn):
    # a payload the loader accepts is never refused (exit 2) by transport,
    # and an overflowing transport fails with one line, not numpy warnings
    payload, section = drawn
    textio.load_fourier_connection(payload)
    with tempfile.TemporaryDirectory() as workdir:
        conn = os.path.join(workdir, "conn.fourconn")
        with open(conn, "w", encoding="utf-8") as fh:
            fh.write(payload)
        cfg = os.path.join(workdir, "h.cfg")
        with open(cfg, "w", encoding="utf-8") as fh:
            fh.write(f"[holonomy]\nconnection = {conn}\n"
                     + "".join(f"{k} = {v!r}\n" for k, v in section.items()))
        out = os.path.join(workdir, "out")
        stderr = io.StringIO()
        with warnings.catch_warnings(), contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(stderr):
            warnings.simplefilter("error")
            rc = run(["holonomy", "--config", cfg, "--out", out])
        assert rc in (0, 3)
        if rc:
            err = stderr.getvalue()
            assert err.count("\n") == 1 and "tag=non-convergence" in err
            assert not os.path.exists(out)
