import tracemalloc
from itertools import product

import numpy as np
import pytest
import scipy.sparse as sparse
from hypothesis import given, settings
from hypothesis import strategies as st

from cktlab import polyharm as ph
from cktlab import torusmodel as tm
from cktlab.connalg import commutator_action_matrix, harmonic_mult_blocks
from cktlab.errors import ValidationError
from cktlab.linalg import nullspace
from cktlab.torusmodel import FourierConnection, TorusConfig

from conftest import random_skew_hermitian


def random_connection(rng, n, r, qs=((0, 1, 0),)):
    """Random unitary connection supported on +-q for the given modes."""
    coeffs = {}
    for q in qs:
        q = tuple(q)
        mq = tuple(-c for c in q)
        mats = [rng.standard_normal((r, r)) + 1j * rng.standard_normal((r, r))
                for _ in range(n)]
        if q == mq:
            mats = [(M - M.conj().T) / 2 for M in mats]
            coeffs[q] = tuple(mats)
        else:
            coeffs[q] = tuple(mats)
            coeffs[mq] = tuple(-M.conj().T for M in mats)
    return FourierConnection(coeffs, r=r)


EJECT_CFG = TorusConfig(3, 1, 0, 1)
EJECT_A = FourierConnection.cosine_mode(3, (0, 1, 0), 0, 0.5j * np.eye(1))


class TestFourierConnection:
    def test_reality_enforced(self):
        with pytest.raises(ValidationError):
            FourierConnection({(1, 0): (np.eye(2),) * 2})  # missing opposite mode

    def test_reality_value_check(self):
        bad = {(1, 0): (np.eye(2), np.zeros((2, 2))),
               (-1, 0): (np.eye(2), np.zeros((2, 2)))}
        with pytest.raises(ValidationError, match="reality violated at mode") as info:
            FourierConnection(bad)
        assert "\n" not in str(info.value)

    def test_mode_needs_n_square_matrices(self):
        M = 0.5j * np.eye(1)
        short = {(0, 0, 0): (M, M)}  # two direction matrices on the 3-torus
        with pytest.raises(ValidationError):
            FourierConnection(short)
        with pytest.raises(ValidationError):
            tm.assemble(TorusConfig(3, 1, 0, 1), FourierConnection(short))
        with pytest.raises(ValidationError):
            FourierConnection({(0, 0): (np.ones((1, 2)),) * 2})

    @pytest.mark.parametrize("kwargs,match", [
        ({"r": 2}, "needs its torus dimension as an int >= 1, got None"),
        ({"n": 3}, "needs its fiber rank as an int >= 1, got None"),
        ({"r": 0, "n": 3}, "needs its fiber rank as an int >= 1, got 0"),
        ({"r": -1, "n": 3}, "needs its fiber rank as an int >= 1, got -1"),
        ({"r": 2, "n": 0}, "needs its torus dimension as an int >= 1, got 0"),
        ({"r": 2.0, "n": 3}, "needs its fiber rank as an int >= 1, got 2.0"),
    ], ids=["no-n", "no-r", "r-zero", "r-negative", "n-zero", "r-float"])
    def test_empty_connection_needs_its_dimensions(self, kwargs, match):
        # zero(r=0, n=3) used to be built, and transport on it raised numpy's
        # "zero-size array"; zero(r=-1, n=3) raised numpy's "negative dimensions"
        with pytest.raises(ValidationError, match=match) as info:
            FourierConnection({}, **kwargs)
        assert "\n" not in str(info.value)
        if len(kwargs) == 2:
            with pytest.raises(ValidationError, match=match):
                FourierConnection.zero(**kwargs)

    @pytest.mark.parametrize("kwargs,match", [
        ({"r": 3}, "given fiber rank 3 disagrees with the coefficients' 2"),
        ({"n": 5}, "given torus dimension 5 disagrees with the coefficients' 3"),
        ({"r": 3, "n": 5}, "disagrees"),
    ], ids=["r", "n", "both"])
    def test_given_dimension_must_agree(self, kwargs, match):
        # a disagreeing r or n used to be ignored silently
        M = 0.5j * np.eye(2)
        with pytest.raises(ValidationError, match=match) as info:
            FourierConnection({(0, 0, 0): (M, M, M)}, **kwargs)
        assert "\n" not in str(info.value)
        conn = FourierConnection({(0, 0, 0): (M, M, M)}, r=2, n=3)
        assert (conn.n, conn.r) == (3, 2)

    def test_cosine_mode_needs_skew_hermitian(self):
        # at q != 0 a non-skew M used to give a different, unitary field
        # instead of M cos(q.x)
        for q in [(0, 0, 0), (0, 1, 0)]:
            with pytest.raises(ValidationError, match="reality violated"):
                FourierConnection.cosine_mode(3, q, 0, np.eye(2))

    def test_cosine_mode_opposite_modes_do_not_share_arrays(self):
        # an in-place edit of one mode must not edit its opposite too
        conn = FourierConnection.cosine_mode(3, (0, 1, 0), 1, 1j * np.eye(2))
        conn.coeffs[(0, 1, 0)][1][0, 0] = 5.0
        assert conn.coeffs[(0, -1, 0)][1][0, 0] == 0.5j

    def test_plus_needs_matching_dimensions(self):
        # the sum takes self's (n, r), which the coefficients must agree with
        with pytest.raises(ValidationError, match="given fiber rank 1 disagrees"):
            FourierConnection.zero(1, 3).plus(FourierConnection.cosine_mode(3, (0, 1, 0), 0,
                                                                            1j * np.eye(2)))
        with pytest.raises(ValidationError, match="given fiber rank 1 disagrees"):
            EJECT_A.plus(FourierConnection.cosine_mode(3, (0, 1, 0), 0, 1j * np.eye(2)))

    def test_cosine_mode_pointwise_skew(self, rng):
        conn = FourierConnection.cosine_mode(3, (1, 2, 0), 1, random_skew_hermitian(rng, 2))
        M = conn.value_at(rng.uniform(0, 2 * np.pi, (10, 3)), rng.standard_normal((10, 3)))
        assert np.abs(M + M.conj().swapaxes(1, 2)).max() < 1e-12

    def test_cosine_mode_values(self, rng):
        # cos(q.x) at q != 0 and the constant q = 0 case both evaluate to
        # M cos(q.x) in the chosen direction
        M = random_skew_hermitian(rng, 2)
        x = rng.uniform(0, 2 * np.pi, 3)
        v = rng.standard_normal(3)
        conn_q = FourierConnection.cosine_mode(3, (0, 1, 0), 1, M)
        expected = M * np.cos(x[1]) * v[1]
        assert np.abs(conn_q.value_at(x, v) - expected).max() < 1e-12
        conn_0 = FourierConnection.cosine_mode(3, (0, 0, 0), 1, M)
        assert np.abs(conn_0.value_at(x, v) - M * v[1]).max() < 1e-12

    def test_algebra(self, rng):
        a = FourierConnection.cosine_mode(3, (0, 1, 0), 0, 1j * np.eye(1))
        b = a.scaled(2.0).plus(a.scaled(-2.0))
        asm = tm.assemble(TorusConfig(3, 1, 0, 1), b)
        assert abs(tm.connection_plus_matrix(TorusConfig(3, 1, 0, 1), b)).max() < 1e-14


def _value_loop(conn, x, v):
    """Reference Gamma_x(v) = sum_q sum_j v_j hat(Gamma)_{q,j} e^{i q.x}, one point."""
    out = np.zeros((conn.r, conn.r), dtype=complex)
    for q, mats in conn.coeffs.items():
        phase = np.exp(1j * float(np.dot(q, x)))
        for j, M in enumerate(mats):
            out += phase * v[j] * M
    return out


@st.composite
def connections_and_points(draw):
    """A connection on the 2- or 3-torus with modes in the box |q|_inf <= 2
    (edges and negative modes included), and (N, n) base points and
    directions."""
    n = draw(st.sampled_from([2, 3]))
    r = draw(st.integers(1, 3))
    box = list(product(range(-2, 3), repeat=n))
    support = draw(st.lists(st.sampled_from(box), min_size=1, max_size=4, unique=True))
    npts = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    coeffs = {}
    for q in support:
        mats = [rng.standard_normal((r, r)) + 1j * rng.standard_normal((r, r)) for _ in range(n)]
        mq = tuple(-c for c in q)
        if q == mq:
            coeffs[q] = tuple((M - M.conj().T) / 2 for M in mats)
        else:
            coeffs[q] = tuple(mats)
            coeffs[mq] = tuple(-M.conj().T for M in mats)
    conn = FourierConnection(coeffs)
    xs = rng.uniform(0, 2 * np.pi, (npts, n))
    vs = rng.standard_normal((npts, n))
    return conn, xs, vs


class TestBatchedValueAt:
    @settings(max_examples=60, deadline=1000)
    @given(connections_and_points())
    def test_matches_pointwise_sum(self, drawn):
        conn, xs, vs = drawn
        batched = conn.value_at(xs, vs)
        assert batched.shape == (len(xs), conn.r, conn.r)
        for x, v, got in zip(xs, vs, batched):
            scale = max(1.0, sum(np.abs(v) @ [np.abs(M).max() for M in mats]
                                 for mats in conn.coeffs.values()))
            assert np.abs(got - _value_loop(conn, x, v)).max() <= 1e-13 * scale
            assert np.abs(conn.value_at(x, v) - got).max() <= 1e-13 * scale
        scale = max(1.0, np.abs(batched).max())
        assert np.abs(batched + batched.conj().swapaxes(1, 2)).max() <= 1e-12 * scale


class TestAssemble:
    def test_m0_mode_blocks(self):
        asm = tm.assemble(TorusConfig(3, 1, 0, 1))
        X = asm.xplus.toarray()
        modes = tm.mode_list(3, 1)
        h1 = ph.dims(3, 1)[1]
        zero_blocks = 0
        for i, k in enumerate(modes):
            block = X[i * h1:(i + 1) * h1, i:i + 1]
            s = np.linalg.svd(block, compute_uv=False)
            if s.max() < 1e-14:
                zero_blocks += 1
                assert k == (0, 0, 0)
            else:
                assert s.min() > 1e-10  # injective
        assert zero_blocks == 1

    def test_zero_connection_kernel_support(self):
        rep = tm.ckt_kernel(tm.assemble(TorusConfig(3, 3, 0, 1)))
        assert rep.mode_support == [[(0, 0, 0)]]

    def test_m1_kernel_at_mode0(self):
        rep = tm.ckt_kernel(tm.assemble(TorusConfig(3, 1, 1, 1)))
        assert rep.dim == 3
        for sup in rep.mode_support:
            assert sup == [(0, 0, 0)]

    def test_endo_identity_in_kernel(self):
        cfg = TorusConfig(3, 1, 0, 2, "endomorphism")
        asm = tm.assemble(cfg)
        rep = tm.ckt_kernel(asm)
        assert rep.dim == 4
        # the identity section: mode 0, fiber entries (0,0) and (1,1)
        vec = np.zeros(cfg.space_dim(), dtype=complex)
        vec[asm.flat_index((0, 0, 0), 0, 0)] = 1
        vec[asm.flat_index((0, 0, 0), 0, 3)] = 1
        assert np.linalg.norm(asm.xplus @ vec) < 1e-12

    def test_rank_mismatch(self):
        with pytest.raises(ValidationError):
            tm.assemble(TorusConfig(3, 1, 0, 1),
                        FourierConnection.cosine_mode(3, (0, 1, 0), 0, 1j * np.eye(2)))

    def test_dimension_mismatch(self):
        with pytest.raises(ValidationError):
            tm.assemble(TorusConfig(3, 1, 0, 1),
                        FourierConnection.cosine_mode(2, (0, 1), 0, 1j * np.eye(1)))

    @pytest.mark.parametrize("kind", ["vector", "endomorphism"])
    def test_adjointness(self, kind, rng):
        cfg = TorusConfig(3, 1, 1, 2, kind)
        conn = random_connection(rng, 3, 2)
        asm = tm.assemble(cfg, conn)
        defect = abs(asm.xminus + asm.xplus.adjoint()).max()
        assert defect <= 1e-12

    def test_guard_band_drop(self, rng):
        # a coupling from the box edge leaves the box and is dropped
        conn = random_connection(rng, 3, 1, qs=[(1, 0, 0)])
        asm = tm.assemble(TorusConfig(3, 1, 0, 1), conn)
        assert asm.dropped_couplings > 0
        assert abs(asm.xminus + asm.xplus.adjoint()).max() <= 1e-12

    def test_psd(self, rng):
        for kind in ("vector", "endomorphism"):
            cfg = TorusConfig(3, 1, 1, 2, kind)
            conn = random_connection(rng, 3, 2)
            asm = tm.assemble(cfg, conn)
            delta = asm.xplus.adjoint().toarray() @ asm.xplus.toarray()
            evs = np.linalg.eigvalsh(delta)
            assert evs.min() >= -1e-10

    @pytest.mark.parametrize("n,m,K", [(2, 0, 1), (2, 2, 2), (3, 1, 1), (3, 3, 1)])
    def test_trivial_connection_kernel(self, n, m, K):
        for r, kind in ((1, "vector"), (2, "endomorphism")):
            cfg = TorusConfig(n, K, m, r, kind)
            rep = tm.ckt_kernel(tm.assemble(cfg))
            assert rep.dim == ph.dims(n, m)[1] * cfg.fdim
            for sup in rep.mode_support:
                assert sup == [(0,) * n]


class TestAssembleViaD:
    def test_free_agreement(self):
        cfg = TorusConfig(3, 1, 1, 1)
        a, b = tm.assemble(cfg), tm.assemble_via_D(cfg)
        assert abs((a.xplus - b.xplus)).max() <= 1e-10
        assert abs((a.xminus - b.xminus)).max() <= 1e-10

    def test_connection_agreement(self, rng):
        cfg = TorusConfig(3, 1, 1, 2)
        conn = random_connection(rng, 3, 2, qs=[(0, 1, 0)])
        a, b = tm.assemble(cfg, conn), tm.assemble_via_D(cfg, conn)
        assert abs((a.xplus - b.xplus)).max() <= 1e-10
        assert abs((a.xminus - b.xminus)).max() <= 1e-10
        assert a.dropped_couplings == b.dropped_couplings > 0

    @pytest.mark.parametrize("m", [0, 1, 2, 3])
    def test_connection_agreement_n4(self, m, rng):
        cfg = TorusConfig(4, 1, m, 2)
        conn = random_connection(rng, 4, 2, qs=[(0, 1, 0, 0), (0, 0, 0, 0)])
        a, b = tm.assemble(cfg, conn), tm.assemble_via_D(cfg, conn)
        assert abs((a.xplus - b.xplus)).max() <= 1e-10
        assert abs((a.xminus - b.xminus)).max() <= 1e-10
        assert a.dropped_couplings == b.dropped_couplings > 0

    def test_endomorphism_agreement(self, rng):
        cfg = TorusConfig(3, 1, 0, 2, "endomorphism")
        conn = random_connection(rng, 3, 2, qs=[(0, 0, 1)])
        a, b = tm.assemble(cfg, conn), tm.assemble_via_D(cfg, conn)
        assert abs((a.xplus - b.xplus)).max() <= 1e-10

    def test_m0_minus_trivially_zero(self):
        cfg = TorusConfig(3, 1, 0, 1)
        b = tm.assemble_via_D(cfg)
        # lowering out of degree 0 lands in the empty degree -1 space on
        # both routes; here the degree-0 lowering of the m=1 assembly is
        # compared instead: the m=0 assembly's xminus maps degree 1 -> 0
        a = tm.assemble(cfg)
        assert abs((a.xminus - b.xminus)).max() <= 1e-10

    def test_n2_agreement(self):
        cfg = TorusConfig(2, 2, 2, 1)
        a, b = tm.assemble(cfg), tm.assemble_via_D(cfg)
        assert abs((a.xplus - b.xplus)).max() <= 1e-10


def kron_side(config, conn, blocks, free=True):
    """(csr matrix, dropped couplings) of one side as the sparse Kronecker sum
    of the torusmodel docstring, built with scipy.sparse.kron and summed
    with scipy.sparse: the oracle of the index-built assembly."""
    modes = np.asarray(config.modes)
    nmodes = len(modes)
    rows, cols = (h * config.fdim for h in blocks[0].shape)
    fiber = (lambda M: M) if config.bundle_kind == "vector" else commutator_action_matrix
    coupled = sparse.csr_matrix((nmodes * rows, nmodes * cols), dtype=complex)
    dropped = 0
    for q, mats in (conn.coeffs.items() if conn is not None else ()):
        target = modes + np.asarray(q)
        inside = (np.abs(target) <= config.K).all(axis=1)
        shift = sparse.csr_matrix(
            (np.ones(inside.sum()),
             (np.ravel_multi_index((target[inside] + config.K).T, (2 * config.K + 1,) * config.n),
              np.nonzero(inside)[0])), shape=(nmodes, nmodes))
        dropped += nmodes - shift.nnz
        coupling = sum(np.kron(P, fiber(M)) for P, M in zip(blocks, mats))
        coupled = coupled + sparse.kron(shift, coupling, format="csr")
    if not free:
        return coupled, dropped
    eye_f = np.eye(config.fdim)
    free_part = sum(sparse.kron(sparse.diags(1j * modes[:, j]), np.kron(P, eye_f), format="csr")
                    for j, P in enumerate(blocks))
    return free_part + coupled, dropped


def assert_same_csr(got, oracle):
    assert got.nnz == oracle.nnz
    for name in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(got, name), getattr(oracle, name)), name


@st.composite
def assembly_cases(draw, cfg=None):
    """(config, connection or None) with n in {2, 3}, K <= 2, m <= 2, r <= 2,
    either bundle kind, and a support that may hold q = 0, box-edge modes
    (every entry +-K) and modes coupling nothing inside the box; with `cfg`
    given, that config and a connection for it."""
    if cfg is None:
        n = draw(st.sampled_from([2, 3]))
        K, m, r = draw(st.integers(0, 2)), draw(st.integers(0, 2)), draw(st.integers(1, 2))
        cfg = TorusConfig(n, K, m, r, draw(st.sampled_from(["vector", "endomorphism"])))
    n, K, r = cfg.n, cfg.K, cfg.r
    qs = draw(st.lists(st.tuples(*[st.integers(-2 * K - 1, 2 * K + 1)] * n), max_size=2))
    if draw(st.booleans()):
        qs.append((0,) * n)
    if draw(st.booleans()):
        qs.append(tuple(draw(st.sampled_from([-K, K])) for _ in range(n)))
    if not qs:
        return cfg, None
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    coeffs = {}
    for q in qs:
        # some direction matrices zero, so that couplings have exact zeros
        mats = [rng.standard_normal((r, r)) + 1j * rng.standard_normal((r, r))
                if rng.random() < 0.7 else np.zeros((r, r)) for _ in range(n)]
        mq = tuple(-c for c in q)
        if q == mq:
            coeffs[q] = tuple((M - M.conj().T) / 2 for M in mats)
        else:
            coeffs[q], coeffs[mq] = tuple(mats), tuple(-M.conj().T for M in mats)
    return cfg, FourierConnection(coeffs)


class TestIndexAssembly:
    """The csr arrays are those of the scipy.sparse Kronecker sum, exactly."""

    @settings(max_examples=40, deadline=2000)
    @given(assembly_cases())
    def test_matches_the_kron_oracle(self, case):
        cfg, conn = case
        for route in (tm.assemble, tm.assemble_via_D):
            sides, side = [], tm._side

            def spy(config, conn, blocks, free=True):
                sides.append(blocks)  # each route's harmonic blocks, plus then minus
                return side(config, conn, blocks, free)

            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(tm, "_side", spy)
                asm = route(cfg, conn)
            (plus, plus_dropped), (minus, minus_dropped) = (
                kron_side(cfg, conn, blocks) for blocks in sides)
            assert_same_csr(asm.xplus, plus)
            assert_same_csr(asm.xminus, minus)
            assert asm.dropped_couplings == plus_dropped + minus_dropped
        if conn is not None:
            oracle, _ = kron_side(cfg, conn, harmonic_mult_blocks(cfg.n, cfg.m)[0], free=False)
            assert_same_csr(tm.connection_plus_matrix(cfg, conn), oracle)

    def test_cached_index_pairs_are_read_only(self):
        for index in tm._shift_pairs(3, 1, (0, 1, 0)):
            with pytest.raises(ValueError):
                index[0] = 0


class TestSecondVariation:
    def test_zero_perturbation(self):
        asm = tm.assemble(EJECT_CFG, FourierConnection.zero(r=1, n=3))
        per, tot = tm.second_variation_predict(asm, FourierConnection.zero(r=1, n=3).plus(
            EJECT_A.scaled(0.0)))
        assert tot == 0.0

    def test_positive_case_value(self):
        # A_+ u lies entirely in ker X_- so the projection is the whole norm
        asm = tm.assemble(EJECT_CFG, FourierConnection.zero(r=1, n=3))
        ker = tm.ckt_kernel(asm)
        per, tot = tm.second_variation_predict(asm, EJECT_A)
        P = tm.connection_plus_matrix(EJECT_CFG, EJECT_A)
        full = float(np.linalg.norm(P @ ker.vectors[:, 0]) ** 2)
        assert tot == pytest.approx(full, rel=1e-12)
        assert tot == pytest.approx(1 / 24, rel=1e-12)  # 2 modes x |1/4|^2 x 1/3

    def test_range_direction_gives_zero(self):
        # direction parallel to q puts A_+ u inside ran X_+
        asm = tm.assemble(EJECT_CFG, FourierConnection.zero(r=1, n=3))
        Apar = FourierConnection.cosine_mode(3, (0, 1, 0), 1, 0.5j * np.eye(1))
        per, tot = tm.second_variation_predict(asm, Apar)
        assert tot < 1e-20

    @settings(max_examples=25, deadline=2000)
    @given(st.data())
    def test_matches_the_dense_xminus_oracle(self, data):
        # the block path factors X+ alone; the oracle projects with a dense
        # kernel basis of X- itself
        cfg, conn0 = data.draw(assembly_cases().filter(
            lambda case: case[0].space_dim(case[0].m + 1) <= 300))
        A = data.draw(assembly_cases(cfg))[1] or FourierConnection.zero(r=cfg.r, n=cfg.n)
        asm = tm.assemble(cfg, conn0)
        per, total = tm.second_variation_predict(asm, A)
        zero_modes = nullspace(asm.xplus.toarray(), 1e-10)[0]
        ker_minus = nullspace(asm.xminus.toarray(), 1e-10)[0]
        W = tm.connection_plus_matrix(cfg, A) @ zero_modes
        oracle = np.linalg.norm(ker_minus.conj().T @ W) ** 2
        assert abs(total - oracle) <= 1e-12 * max(1.0, total)
        assert len(per) == tm.ckt_kernel(asm).dim

    def test_product_memory_stays_near_the_result(self):
        # W = P @ K at (3, 2, 5, 1) with the cos(x_k) dx_{k+1} connection of the
        # harmonic bench: P is 1625 x 1375 with 85 800 entries and K has 11
        # columns.  A product that stacks its nnz x 11 terms peaks at 48.4 MiB;
        # the layer-by-layer one at 1.0 MiB, for a 0.27 MiB result.
        cfg = TorusConfig(3, 2, 5, 1)
        asm = tm.assemble(cfg, FourierConnection.zero(r=1, n=3))
        P = tm.connection_plus_matrix(cfg, three_axis_connection())
        K = tm._kernel_columns(cfg, asm.xplus, 1e-10)[0]
        assert P.shape == (1625, 1375) and P.nnz == 85800 and K.shape == (1375, 11)
        tracemalloc.start()
        try:
            P @ K
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * 2**20


class TestLambdaScan:
    def test_perturbation_matrix_built_once(self, monkeypatch):
        calls = []
        build = tm.connection_plus_matrix

        def counted(*args):
            calls.append(args)
            return build(*args)

        monkeypatch.setattr(tm, "connection_plus_matrix", counted)
        tm.lambda_scan(EJECT_CFG, FourierConnection.zero(r=1, n=3), EJECT_A,
                       np.linspace(-0.1, 0.1, 5))
        assert len(calls) == 1

    def test_zero_perturbation_flat(self):
        res = tm.lambda_scan(EJECT_CFG, FourierConnection.zero(r=1, n=3),
                             EJECT_A.scaled(0.0), np.linspace(-0.1, 0.1, 5))
        assert np.abs(res.lambdas).max() < 1e-13

    def test_documented_positive_case(self):
        res = tm.lambda_scan(EJECT_CFG, FourierConnection.zero(r=1, n=3), EJECT_A,
                             np.linspace(-0.1, 0.1, 9))
        assert res.lambdas[4] == 0.0
        assert abs(res.lambda_dot_fit) <= 1e-8
        assert res.curvature_factor == pytest.approx(1.0, rel=0.05)
        assert res.kernel_dims[4] == 1
        assert all(kd == 0 for i, kd in enumerate(res.kernel_dims) if i != 4)
        assert (res.lambdas >= -1e-12).all()

    def test_partial_projection_case(self):
        # a perturbation with one component inside ran X_+ and one inside
        # ker X_-: the fitted curvature must track the projected norm, not
        # the full norm of the perturbed zero mode
        A_mixed = EJECT_A.plus(
            FourierConnection.cosine_mode(3, (0, 1, 0), 1, 0.4j * np.eye(1)))
        asm0 = tm.assemble(EJECT_CFG, FourierConnection.zero(r=1, n=3))
        ker = tm.ckt_kernel(asm0)
        per, predicted = tm.second_variation_predict(asm0, A_mixed)
        P = tm.connection_plus_matrix(EJECT_CFG, A_mixed)
        full = float(np.linalg.norm(P @ ker.vectors[:, 0]) ** 2)
        assert predicted < full * 0.99  # the projection genuinely cuts mass
        assert predicted > 0
        res = tm.lambda_scan(EJECT_CFG, FourierConnection.zero(r=1, n=3), A_mixed,
                             np.linspace(-0.08, 0.08, 9))
        assert res.curvature_factor == pytest.approx(1.0, rel=0.05)

    def test_endomorphism_identity_pinned(self):
        cfg = TorusConfig(3, 1, 0, 2, "endomorphism")
        A = FourierConnection.cosine_mode(3, (0, 1, 0), 0,
                                          np.array([[0.4j, 0.1], [-0.1, -0.4j]]))
        res = tm.lambda_scan(cfg, FourierConnection.zero(r=2, n=3), A,
                             np.linspace(-0.08, 0.08, 5))
        # the identity direction commutes with everything: one eigenvalue
        # stays pinned at zero for every s
        assert (res.kernel_dims >= 1).all()
        assert res.kernel_dims[2] == 4

    def test_one_factorization(self, monkeypatch):
        # the zero modes and the projection onto ker X- come from one block
        # SVD of X+(conn0); ckt_kernel and X-'s SVD are not called
        calls = {"block_nullspace": 0, "ckt_kernel": 0}
        for name in calls:
            def counted(*args, _name=name, _f=getattr(tm, name)):
                calls[_name] += 1
                return _f(*args)

            monkeypatch.setattr(tm, name, counted)
        tm.lambda_scan(EJECT_CFG, FourierConnection.zero(r=1, n=3), EJECT_A,
                       np.linspace(-0.1, 0.1, 5))
        assert calls == {"block_nullspace": 1, "ckt_kernel": 0}

    def test_grid_checked_before_assembly(self, monkeypatch):
        calls = []
        assemble = tm.assemble

        def counted(*args):
            calls.append(args)
            return assemble(*args)

        monkeypatch.setattr(tm, "assemble", counted)
        with pytest.raises(ValidationError, match="distinct"):
            tm.lambda_scan(EJECT_CFG, FourierConnection.zero(r=1, n=3), EJECT_A, [0.0, 0.0, 0.0])
        assert calls == []

    @pytest.mark.parametrize("points", [0, 1, 2])
    def test_grid_too_short(self, points):
        with pytest.raises(ValidationError):
            tm.lambda_scan(EJECT_CFG, FourierConnection.zero(r=1, n=3), EJECT_A,
                           np.linspace(-0.1, 0.1, points))

    def test_window_validation(self):
        with pytest.raises(ValidationError):
            tm.lambda_scan(EJECT_CFG, FourierConnection.zero(r=1, n=3), EJECT_A,
                           [0.0], window_radius=100.0)


def dense_scan(cfg, conn0, A, grid):
    """The ejection scan on dense matrices, reassembled at every grid point
    with one SVD per kernel: the oracle of the block path.
    Returns (lambdas, kernel dims, window radius, curvature factor)."""
    asm0 = tm.assemble(cfg, conn0)
    X0 = asm0.xplus.toarray()
    evs0 = np.linalg.eigvalsh(X0.conj().T @ X0)
    thresh = max(1e-11, 1e-13 * evs0[-1])
    radius = evs0[evs0 > thresh].min() / 2
    zero_modes = nullspace(X0, 1e-10)[0]
    ker_minus = nullspace(asm0.xminus.toarray(), 1e-10)[0]
    W = tm.connection_plus_matrix(cfg, A) @ zero_modes
    predicted = np.linalg.norm(ker_minus.conj().T @ W) ** 2
    lambdas, kdims = [], []
    for s in grid:
        X = tm.assemble(cfg, conn0.plus(A.scaled(s))).xplus.toarray()
        evs = np.linalg.eigvalsh(X.conj().T @ X)
        lambdas.append(evs[evs < radius].sum())
        kdims.append(int((evs < thresh).sum()))
    coef = np.polynomial.polynomial.polyfit(grid, lambdas, min(4, len(grid) - 1))
    return np.array(lambdas), np.array(kdims), radius, coef[2] / predicted


def three_axis_connection(n=3):
    """cos(x_k) dx_{k+1} for every axis k: the supports couple all modes."""
    conn = FourierConnection.zero(r=1, n=n)
    for k in range(n):
        q = tuple(int(i == k) for i in range(n))
        conn = conn.plus(FourierConnection.cosine_mode(n, q, (k + 1) % n,
                                                       (0.3 + 0.1 * k) * 1j * np.eye(1)))
    return conn


ENDO_A = FourierConnection.cosine_mode(3, (0, 1, 0), 0, np.array([[0.4j, 0.1], [-0.1, -0.4j]]))

# (config, conn0, A, number of mode blocks of X+(s))
BLOCK_CASES = {
    "eject": (TorusConfig(3, 3, 0, 1), FourierConnection.zero(r=1, n=3),
              FourierConnection.cosine_mode(3, (0, 1, 0), 0, 0.5j * np.eye(1)), 49),
    "one-block": (TorusConfig(3, 1, 2, 1), FourierConnection.zero(r=1, n=3),
                  three_axis_connection(), 1),
    "endomorphism": (TorusConfig(3, 1, 0, 2, "endomorphism"), FourierConnection.zero(r=2, n=3),
                     ENDO_A, 9),
    # conn0 couples along axis 0 and A along axis 1: the blocks are planes,
    # and blocks taken from either support alone would be lines
    "conn0-other-support": (TorusConfig(3, 1, 0, 2, "endomorphism"),
                            FourierConnection.cosine_mode(3, (1, 0, 0), 1,
                                                          np.diag([0.3j, -0.2j])),
                            ENDO_A, 3),
}


@pytest.mark.parametrize("case", list(BLOCK_CASES))
class TestBlockPathAgainstDense:
    def test_scan(self, case):
        cfg, conn0, A, nblocks = BLOCK_CASES[case]
        grid = np.linspace(-0.08, 0.08, 7)
        res = tm.lambda_scan(cfg, conn0, A, grid)
        lambdas, kdims, radius, factor = dense_scan(cfg, conn0, A, grid)
        assert np.abs(res.lambdas - lambdas).max() <= 1e-12
        assert np.array_equal(res.kernel_dims, kdims)
        assert res.window_radius == pytest.approx(radius, rel=1e-12)
        assert abs(res.curvature_factor - factor) <= 1e-8
        assert res.blocks == nblocks
        if not conn0.coeffs:
            # the zero modes are exactly zero columns of X+(0)
            assert res.lambdas[3] == 0.0

    def test_kernel_projectors(self, case):
        cfg, conn0, _, _ = BLOCK_CASES[case]
        asm = tm.assemble(cfg, conn0)
        for block, mat in ((tm.ckt_kernel(asm).vectors, asm.xplus),
                           (tm.xminus_kernel_basis(asm), asm.xminus)):
            dense = nullspace(mat.toarray(), 1e-10)[0]
            assert block.shape == dense.shape
            diff = block @ block.conj().T - dense @ dense.conj().T
            assert np.abs(diff).max() <= 1e-12


# (config, conn0, A): the eject workload's box, the harmonic workload's
# degree with all modes coupled, and an r = 2 End(E) case with conn0 != 0
GRAM_CASES = {
    "eject": BLOCK_CASES["eject"][:3],
    "harmonic": (TorusConfig(3, 1, 5, 1), FourierConnection.zero(r=1, n=3),
                 three_axis_connection()),
    "endomorphism": BLOCK_CASES["conn0-other-support"][:3],
}


@pytest.mark.parametrize("case", list(GRAM_CASES))
class TestGramExpansion:
    GRID = np.linspace(-0.1, 0.1, 9)

    @staticmethod
    def _blocks(cfg, conn0, A):
        asm0 = tm.assemble(cfg, conn0)
        P = tm.connection_plus_matrix(cfg, A)
        groups = tm._mode_blocks(cfg, asm0.xplus, P)
        return tm._dense_blocks(cfg, asm0.xplus, groups), tm._dense_blocks(cfg, P, groups)

    def test_expansion_matches_direct_gram(self, case):
        X0, dX = self._blocks(*GRAM_CASES[case])
        expansion = [tm._gram_expansion(x0, dx) for x0, dx in zip(X0, dX)]
        evs0 = tm._gram_eigvalsh(X0)
        assert np.array_equal(tm._stack_eigvalsh([g0 for g0, _, _ in expansion]), evs0)
        for _, c, _ in expansion:
            assert np.array_equal(c, np.swapaxes(c.conj(), 1, 2))
        for s in self.GRID:
            direct = tm._gram_eigvalsh([x0 + s * dx for x0, dx in zip(X0, dX)])
            expanded = tm._stack_eigvalsh([g0 + s * c + (s * s) * d for g0, c, d in expansion])
            assert np.abs(expanded - direct).max() <= 1e-12 * evs0[-1]

    @staticmethod
    def _recorded_spectra(monkeypatch):
        """The list every later `_stack_eigvalsh` call appends its result to."""
        spectra = []
        eigvalsh = tm._stack_eigvalsh

        def recorded(grams):
            spectra.append(eigvalsh(grams))
            return spectra[-1]

        monkeypatch.setattr(tm, "_stack_eigvalsh", recorded)
        return spectra

    def test_scan_reuses_the_s0_spectrum(self, case, monkeypatch):
        cfg, conn0, A = GRAM_CASES[case]
        X0, dX = self._blocks(cfg, conn0, A)
        # the direct Gram in the scan's own arithmetic: real, of the
        # imaginary parts, when every entry is imaginary
        real = not any(x.real.any() for x in X0 + dX)
        evs0 = tm._gram_eigvalsh([x.imag for x in X0] if real else X0)
        spectra = self._recorded_spectra(monkeypatch)
        res = tm.lambda_scan(cfg, conn0, A, self.GRID)
        assert res.real_gram == real
        # one spectrum at s = 0 (evs0) and one per nonzero grid point
        assert len(spectra) == 1 + np.count_nonzero(self.GRID)
        assert np.array_equal(spectra[0], evs0)
        radius = res.window_radius
        assert res.lambdas[4] == float(evs0[evs0 < radius].sum())
        for s, lam in zip(self.GRID, res.lambdas):
            direct = tm._gram_eigvalsh([x0 + s * dx for x0, dx in zip(X0, dX)])
            assert abs(lam - direct[direct < radius].sum()) <= 1e-12 * evs0[-1]

    def test_scan_spectra_match_the_complex_gram(self, case, monkeypatch):
        # every spectrum the scan takes, on the real path or not, against
        # the complex Gram of X+(s) formed directly
        cfg, conn0, A = GRAM_CASES[case]
        X0, dX = self._blocks(cfg, conn0, A)
        grid = [0.0, *self.GRID[self.GRID != 0]]  # the order the scan takes them in
        directs = [tm._gram_eigvalsh([x0 + s * dx for x0, dx in zip(X0, dX)]) for s in grid]
        spectra = self._recorded_spectra(monkeypatch)
        tm.lambda_scan(cfg, conn0, A, self.GRID)
        assert len(spectra) == len(grid)
        for evs, direct in zip(spectra, directs):
            assert np.abs(evs - direct).max() <= 1e-12 * directs[0][-1]


SCAN_CASES = {**{case: BLOCK_CASES[case][:3] for case in BLOCK_CASES},
              "harmonic": GRAM_CASES["harmonic"]}


@pytest.mark.parametrize("case, real", [
    ("eject", True), ("one-block", True), ("harmonic", True),
    ("endomorphism", False), ("conn0-other-support", False)])
def test_real_gram_decision(case, real):
    # connections with every coefficient in i (real) make X+(s) = i R(s):
    # the scan's Gram and spectra are then real; ENDO_A's real entries are not
    cfg, conn0, A = SCAN_CASES[case]
    assert tm.lambda_scan(cfg, conn0, A, np.linspace(-0.08, 0.08, 3)).real_gram is real


def test_kernel_vectors_stay_in_one_block():
    # conn0 couples along axis 0 only: each zero mode lives on one line of
    # modes, and mode_support names exactly the modes carrying its mass
    cfg, conn0, _, _ = BLOCK_CASES["conn0-other-support"]
    rep = tm.ckt_kernel(tm.assemble(cfg, conn0))
    modes = tm.mode_list(3, 1)
    mass = np.linalg.norm(rep.vectors.reshape(len(modes), cfg.fdim, rep.dim), axis=1)
    for i, sup in enumerate(rep.mode_support):
        assert sup == [modes[j] for j in np.nonzero(mass[:, i] > 1e-8)[0]]
        assert len({(k[1], k[2]) for k in sup}) == 1


def test_large_box_scan():
    # n = 3, K = 6, m = 0: dimension 2197, beyond what the dense path is fit for
    A = FourierConnection.cosine_mode(3, (0, 1, 0), 0, 0.5j * np.eye(1))
    res = tm.lambda_scan(TorusConfig(3, 6, 0, 1), FourierConnection.zero(r=1, n=3), A,
                         np.linspace(-0.1, 0.1, 9))
    assert res.kernel_dims[4] == 1
    assert all(kd == 0 for i, kd in enumerate(res.kernel_dims) if i != 4)
    assert res.curvature_factor == pytest.approx(1.0, abs=0.05)
    assert res.blocks == 169 and res.largest_block == (39, 13)


class TestGenerator:
    def test_skew_adjoint(self, rng):
        cfg = TorusConfig(2, 1, 0, 1)
        conn = random_connection(rng, 2, 1, qs=[(0, 1)])
        G, offs = tm.build_generator(cfg, conn, mmax=2)
        Gd = G.toarray()
        assert np.abs(Gd + Gd.conj().T).max() < 1e-12

    def test_parity_vanishing_first_variation(self, rng):
        # kernel elements split into even/odd harmonic-degree parity, so the
        # trace of the perturbation against the kernel projector vanishes
        cfg = TorusConfig(2, 1, 0, 1)
        conn = random_connection(rng, 2, 1, qs=[(0, 1)])
        G, offs = tm.build_generator(cfg, conn, mmax=2)
        Gd = G.toarray()
        _, s, vt = np.linalg.svd(Gd)
        rank = int((s > 1e-10 * s[0]).sum())
        kernel = vt[rank:, :].conj().T
        Pi0 = kernel @ kernel.conj().T
        A = random_connection(rng, 2, 1, qs=[(1, 0)])
        P, _ = tm.generator_perturbation(cfg, A, mmax=2)
        val = abs(np.trace(P.toarray() @ Pi0))
        assert val <= 1e-12
        # parity split: even block = degrees 0 and 2, odd block = degree 1
        even = np.zeros(Gd.shape[0], dtype=bool)
        even[offs[0]:offs[1]] = True
        even[offs[2]:offs[3]] = True
        k_even = kernel[even, :]
        k_odd = kernel[~even, :]
        r_even = np.linalg.matrix_rank(k_even, tol=1e-8)
        r_odd = np.linalg.matrix_rank(k_odd, tol=1e-8)
        assert r_even + r_odd == kernel.shape[1]

    def test_endo_trace_compatibility(self, rng):
        # fiber trace of an endomorphism kernel element solves the scalar
        # (trivial-connection) raising equation
        n, K, m = 2, 1, 1
        cfg_e = TorusConfig(n, K, m, 2, "endomorphism")
        conn = random_connection(rng, n, 2, qs=[(0, 1)])
        asm_e = tm.assemble(cfg_e, conn)
        rep = tm.ckt_kernel(asm_e)
        cfg_s = TorusConfig(n, K, m, 1)
        asm_s = tm.assemble(cfg_s)
        h = ph.dims(n, m)[1]
        nmodes = len(tm.mode_list(n, K))
        for i in range(rep.dim):
            w = rep.vectors[:, i].reshape(nmodes * h, 4)
            traced = w[:, 0] + w[:, 3]
            resid = np.linalg.norm(asm_s.xplus @ traced)
            assert resid < 1e-9 * max(1.0, np.linalg.norm(traced))

    @pytest.mark.parametrize("kind", ["vector", "endomorphism"])
    def test_pointwise_flow_derivative(self, kind, rng):
        # oracle independent of the assembly: the generator applied to a
        # degree-1 section u equals, pointwise on T^n x S^{n-1}, the flow
        # derivative v . grad_x u + Gamma_x(v) u ([Gamma_x(v), u] on
        # endomorphisms).  Modes |k|_inf <= K - 1 keep every coupling inside
        # the box, so nothing is dropped.
        n, K, r = 3, 2, 2
        cfg = TorusConfig(n, K, 0, r, kind)
        conn = random_connection(rng, n, r, qs=[(0, 1, 0), (1, -1, 1)])
        G, offs = tm.build_generator(cfg, conn, mmax=2)
        modes = np.array(tm.mode_list(n, K))
        inner = np.abs(modes).max(axis=1) <= K - 1
        shape = (len(modes), ph.dims(n, 1)[1], cfg.fdim)
        coef = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        coef[~inner] = 0
        u = np.zeros(G.shape[0], dtype=complex)
        u[offs[1]:offs[2]] = coef.ravel()
        w = G @ u
        xs = rng.uniform(0, 2 * np.pi, (6, n))
        vs = rng.standard_normal((6, n))
        vs /= np.linalg.norm(vs, axis=1, keepdims=True)
        got = (tm.eval_sections(cfg, w[offs[0]:offs[1]], xs, vs, degree=0)
               + tm.eval_sections(cfg, w[offs[2]:offs[3]], xs, vs, degree=2))[:, :, 0]
        for i, (x, v) in enumerate(zip(xs, vs)):
            # v . grad_x multiplies mode k by i (k . v)
            dcoef = coef * (1j * modes @ v)[:, None, None]
            grad = tm.eval_sections(cfg, dcoef.ravel(), x, v, degree=1)[0, :, 0]
            val = tm.eval_sections(cfg, coef.ravel(), x, v, degree=1)[0, :, 0]
            gam = conn.value_at(x, v)
            if kind == "vector":
                twist = gam @ val
            else:
                U = val.reshape(r, r)
                twist = (gam @ U - U @ gam).ravel()
            expected = grad + twist
            assert np.abs(got[i] - expected).max() <= 1e-12 * max(1.0, np.abs(expected).max())


class TestEvalSections:
    def test_constant_section(self, rng):
        cfg = TorusConfig(3, 1, 0, 2)
        vec = np.zeros(cfg.space_dim(), dtype=complex)
        asm = tm.assemble(cfg)
        vec[asm.flat_index((0, 0, 0), 0, 0)] = 2.0
        xs = rng.uniform(0, 2 * np.pi, (5, 3))
        vs = rng.standard_normal((5, 3))
        vs /= np.linalg.norm(vs, axis=1, keepdims=True)
        vals = tm.eval_sections(cfg, vec, xs, vs)
        # constant coefficient times the constant orthonormal harmonic
        y0 = 2.0 / np.sqrt(4 * np.pi)
        assert np.abs(vals[:, 0, 0] - y0).max() < 1e-12
        assert np.abs(vals[:, 1, 0]).max() < 1e-14

    def test_plane_wave_mode(self, rng):
        cfg = TorusConfig(2, 1, 0, 1)
        vec = np.zeros(cfg.space_dim(), dtype=complex)
        asm = tm.assemble(cfg)
        vec[asm.flat_index((1, 0), 0, 0)] = 1.0
        xs = np.array([[0.0, 0.0], [np.pi / 2, 0.3]])
        vs = np.array([[1.0, 0.0], [0.0, 1.0]])
        vals = tm.eval_sections(cfg, vec, xs, vs)
        y0 = 1 / np.sqrt(2 * np.pi)
        assert vals[0, 0, 0] == pytest.approx(y0, rel=1e-12)
        assert vals[1, 0, 0] == pytest.approx(1j * y0, rel=1e-12)
