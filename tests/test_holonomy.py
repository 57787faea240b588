import re
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from cktlab import holonomy as ho
from cktlab import torusmodel as tm
from cktlab.errors import ConvergenceError, ValidationError
from cktlab.holonomy import GeodesicSegment
from cktlab.textio import load_fourier_connection
from cktlab.torusmodel import FourierConnection, TorusConfig

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)

DIAG_CONN = FourierConnection.constant(3, [np.diag([1j, 2j]), np.zeros((2, 2)), np.zeros((2, 2))])
NONCOMM_CONN = FourierConnection.constant(
    3, [1j * SIGMA_X, 1j * SIGMA_Y, np.zeros((2, 2))]
)


# the pinned example of the CLI holonomy fuzz: cosine modes of size about 8e3
FUZZ_8E3 = ("FOURCONN 3 1 3\n0 0 -1 0 0.0 -6515.786158022206\n0 0 0 0 0.0 8216.181435011584\n"
            "0 0 1 0 0.0 -6515.786158021805\n")


def unit(v):
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


class TestTransport:
    def test_zero_connection(self):
        conn = FourierConnection.zero(r=2, n=3)
        seg = GeodesicSegment(np.zeros(3), unit([1, 0.3, -0.2]), 5.0)
        res = ho.transport(conn, seg, 64)
        assert np.abs(res.C - np.eye(2)).max() < 1e-12

    def test_matrix_exponential_oracle(self, rng):
        # constant skew A on dx_1: C = exp(-T v_1 A)
        A = np.array([[0.7j, 0.2 + 0.1j], [-0.2 + 0.1j, -0.4j]])
        conn = FourierConnection.constant(3, [A, np.zeros((2, 2)), np.zeros((2, 2))])
        for _ in range(5):
            v = unit(rng.standard_normal(3))
            T = rng.uniform(0.5, 6.0)
            seg = GeodesicSegment(rng.uniform(0, 2 * np.pi, 3), v, T)
            res = ho.transport(conn, seg, 256)
            oracle = scipy.linalg.expm(-T * v[0] * A)
            assert np.abs(res.C - oracle).max() < 1e-8
            assert res.unitarity_defect < 1e-8

    def test_flow_composition(self, rng):
        conn = FourierConnection.cosine_mode(3, (1, 0, 0), 1, 0.8j * SIGMA_X).plus(
            FourierConnection.cosine_mode(3, (0, 1, 0), 0, 0.5j * SIGMA_Y)
        )
        v = unit([0.2, 1.0, 0.41])
        x0 = np.array([0.3, 1.2, 2.0])
        T = 4.0
        whole = ho.transport(conn, GeodesicSegment(x0, v, T), 512).C
        first = ho.transport(conn, GeodesicSegment(x0, v, T / 2), 256).C
        second = ho.transport(conn, GeodesicSegment(x0 + (T / 2) * v, v, T / 2), 256).C
        assert np.abs(whole - second @ first).max() < 1e-8

    def test_error_estimate_reported(self):
        seg = GeodesicSegment(np.zeros(3), unit([1, 1, 1]), 3.0)
        res = ho.transport(NONCOMM_CONN, seg, 64)
        assert res.error_estimate < 1e-6
        assert res.steps == 128  # the halved-step (finer) run is returned

    def test_non_unitary_rejected(self):
        # transport used to refuse a connection built with its reality check
        # switched off; the check cannot be switched off now, so the
        # constructor refuses the connection before transport sees it
        seg = GeodesicSegment(np.zeros(3), unit([1, 0, 0]), 1.0)
        with pytest.raises(ValidationError, match="reality violated"):
            ho.transport(FourierConnection(
                {(0, 0, 0): (np.eye(2), np.zeros((2, 2)), np.zeros((2, 2)))}), seg, 64)

    def test_min_steps(self):
        seg = GeodesicSegment(np.zeros(3), unit([1, 0, 0]), 1.0)
        with pytest.raises(ValidationError):
            ho.transport(DIAG_CONN, seg, 8)

    @pytest.mark.parametrize("x0,v", [
        (np.zeros(3), [np.nan, 0.0, 0.0]),
        ([np.inf, 0.0, 0.0], [1.0, 0.0, 0.0]),
        ([0.0, np.nan, 0.0], [1.0, 0.0, 0.0]),
    ])
    def test_non_finite_geodesic_rejected(self, x0, v):
        # a non-finite base point or direction used to give an all-nan C
        with pytest.raises(ValidationError, match="finite"):
            GeodesicSegment(x0, v, 2.0)

    @pytest.mark.parametrize("x0,v", [
        (0.0, [1.0, 0.0, 0.0]),
        (np.zeros(3), 1.0),
        (np.zeros((1, 3)), [[1.0, 0.0, 0.0]]),
        (np.zeros(3), [1.0, 0.0]),
        (np.zeros(2), [1.0, 0.0, 0.0]),
    ])
    def test_segment_shape_rejected(self, x0, v):
        # a scalar base point used to raise TypeError from len() in transport
        with pytest.raises(ValidationError, match="vectors of one length"):
            GeodesicSegment(x0, v, 2.0)

    def test_fan_segment(self, rng):
        # a fan is a (G, n) array of unit directions from one base point
        V = np.array([unit(rng.standard_normal(3)) for _ in range(3)])
        assert GeodesicSegment(np.zeros(3), V, 1.0).v.shape == (3, 3)
        with pytest.raises(ValidationError, match="unit"):
            GeodesicSegment(np.zeros(3), np.vstack([V, [1.0, 1.0, 0.0]]), 1.0)
        for bad in (np.empty((0, 3)), np.ones((2, 2, 3)) / np.sqrt(3), V[:, :2]):
            with pytest.raises(ValidationError, match="vectors of one length"):
                GeodesicSegment(np.zeros(3), bad, 1.0)

    def test_fan_of_one(self, rng):
        v = unit(rng.standard_normal(3))
        single = ho.transport(NONCOMM_CONN, GeodesicSegment(np.zeros(3), v, 2.0), 64)
        fan = ho.transport(NONCOMM_CONN, GeodesicSegment(np.zeros(3), v[None, :], 2.0), 64)
        assert single.C.shape == (2, 2) and fan.C.shape == (1, 2, 2)
        assert np.array_equal(fan.C[0], single.C)
        assert (fan.error_estimate, fan.unitarity_defect) == (single.error_estimate,
                                                              single.unitarity_defect)

    def test_segment_dimension_must_match_connection(self):
        # a 2-vector segment on a 3-torus connection used to raise numpy's ValueError
        seg = GeodesicSegment(np.zeros(2), [1.0, 0.0], 2.0)
        with pytest.raises(ValidationError, match="dimension 2.*dimension 3"):
            ho.transport(DIAG_CONN, seg, 64)
        # an empty connection knows its torus dimension too: it used to take
        # any segment
        with pytest.raises(ValidationError, match="dimension 2.*dimension 3"):
            ho.transport(FourierConnection.zero(r=2, n=3), seg, 64)

    @pytest.mark.parametrize("length,steps", [(1e300, 64), (7.0, 16)])
    def test_overflow_raises_one_error(self, length, steps):
        # frames that overflow used to give unitarity_defect nan (and numpy
        # RuntimeWarnings) with no error
        conn = FourierConnection.cosine_mode(3, (1, 0, 0), 0, 1e3j * SIGMA_X)
        seg = GeodesicSegment(np.zeros(3), unit([1, 0.3, -0.2]), length)
        message = re.escape(f"length {length!r} overflowed at {2 * steps} steps")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConvergenceError, match=message):
                ho.transport(conn, seg, steps)

    def test_no_correct_digit_raises(self):
        # Gamma-hat of size 8e3 at 32 steps over length 1: finite frames whose
        # error estimate (about 1e98) exceeds the size of a unitary frame's
        # entries used to be returned and given a verdict
        conn = load_fourier_connection(FUZZ_8E3)
        seg = GeodesicSegment(np.zeros(3), unit([0.2, -0.5, 1.0]), 1.0)
        message = re.escape("length 1.0 did not converge at 32 steps") + r".*raise steps"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConvergenceError, match=message):
                ho.transport(conn, seg, 16)
        # the same transport at enough steps converges
        assert ho.transport(conn, seg, 1 << 14).error_estimate < 1

    @pytest.mark.parametrize("length", [0.0, -1.0, np.nan, np.inf])
    def test_length_finite_positive(self, length):
        with pytest.raises(ValidationError, match="length"):
            GeodesicSegment(np.zeros(3), unit([1, 0, 0]), length)
        with pytest.raises(ValidationError, match="length"):
            ho.opacity_probe(DIAG_CONN, num_geodesics=2, length=length, steps=64)


def _rk4_pointwise(conn, x0, v, T, steps):
    """Per-direction RK4 reference: Gamma from FourierConnection.value_at at each stage."""
    C = np.eye(conn.r, dtype=complex)
    h = T / steps
    for i in range(steps):
        t = i * h
        k1 = -conn.value_at(x0 + t * v, v) @ C
        k2 = -conn.value_at(x0 + (t + h / 2) * v, v) @ (C + h / 2 * k1)
        k3 = -conn.value_at(x0 + (t + h / 2) * v, v) @ (C + h / 2 * k2)
        k4 = -conn.value_at(x0 + (t + h) * v, v) @ (C + h * k3)
        C = C + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
    return C


def _rk4_steps(conn, x0, V, T, steps):
    """Step-by-step batched RK4 reference: Gamma at each stage time, one step at a time."""
    C = np.broadcast_to(np.eye(conn.r, dtype=complex), (len(V), conn.r, conn.r)).copy()
    q = np.array(list(conn.coeffs), dtype=float)
    A = np.einsum("gj,qjab->gqab", V, np.array(list(conn.coeffs.values())))

    def gamma(t):
        return np.einsum("gq,gqab->gab", np.exp(1j * (q @ x0 + t * V @ q.T)), A)

    h = T / steps
    for i in range(steps):
        t = i * h
        k1 = -gamma(t) @ C
        k2 = -gamma(t + h / 2) @ (C + h / 2 * k1)
        k3 = -gamma(t + h / 2) @ (C + h / 2 * k2)
        k4 = -gamma(t + h) @ (C + h * k3)
        C = C + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
    return C


def _chunked_run(conn, x0, V, T, steps):
    """One RK4 run on its own: Gamma at its own stage times, _STEP_CHUNK
    step propagators per chunk, as _transport_pair builds each of its runs.
    Returns the (r, r, G) slab of frames."""
    C = ho._identity_frames(conn, V)
    minus_gamma = ho._gamma_field(conn, x0, V)
    h = T / steps
    for start in range(0, steps, ho._STEP_CHUNK):
        count = min(ho._STEP_CHUNK, steps - start)
        R = ho._chunk_propagator(minus_gamma((start + np.arange(2 * count + 1) / 2) * h), h)
        C = ho._slab_matmul(R, C)
    return C


def _frames(slab):
    """The (G, r, r) frames of an (r, r, G) slab."""
    return slab.transpose(2, 0, 1)


@st.composite
def slab_cases(draw):
    """(connection, x0, V, steps): two cosine modes of rank r in {1, 2, 3, 5}
    with skew-Hermitian amplitudes of norm at most 1, G in 1..4 unit
    directions, and step counts about a chunk boundary."""
    r = draw(st.sampled_from([1, 2, 3, 5]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    conn = FourierConnection.zero(r=r, n=3)
    for _ in range(2):
        M = rng.standard_normal((r, r)) + 1j * rng.standard_normal((r, r))
        M = (M - M.conj().T) / 2
        q = tuple(int(c) for c in rng.integers(-1, 2, 3))
        conn = conn.plus(FourierConnection.cosine_mode(
            3, q, int(rng.integers(3)), M / max(1.0, np.linalg.norm(M, 2))))
    G = draw(st.integers(1, 4))
    V = rng.standard_normal((G, 3))
    return (conn, rng.uniform(0, 2 * np.pi, 3), V / np.linalg.norm(V, axis=1, keepdims=True),
            draw(st.sampled_from([1, 31, 33, 70])))


class TestBatchedTransport:
    # four modes (two cosines) and four directions: an einsum that mixed the
    # geodesic and the support index would still have matching shapes
    CONN = FourierConnection.cosine_mode(3, (1, 0, 0), 1, 0.8j * SIGMA_X).plus(
        FourierConnection.cosine_mode(3, (0, 1, -1), 2, 0.5j * SIGMA_Y))

    def test_rows_match_single_transports(self, rng):
        assert len(self.CONN.coeffs) == 4
        x0 = rng.uniform(0, 2 * np.pi, 3)
        V = np.array([unit(rng.standard_normal(3)) for _ in range(4)])
        T, steps = 3.0, 64
        fan = ho.transport(self.CONN, GeodesicSegment(x0, V, T), steps)
        C = fan.C
        assert C.shape == (4, 2, 2)
        singles = [ho.transport(self.CONN, GeodesicSegment(x0, v, T), steps) for v in V]
        for g, (v, single) in enumerate(zip(V, singles)):
            assert np.abs(C[g] - single.C).max() <= 1e-13
            assert np.abs(C[g] - _rk4_pointwise(self.CONN, x0, v, T, 2 * steps)).max() <= 1e-12
        # the fan reports the largest error estimate and unitarity defect of its rows
        assert abs(fan.error_estimate - max(s.error_estimate for s in singles)) <= 1e-13
        assert abs(fan.unitarity_defect - max(s.unitarity_defect for s in singles)) <= 1e-13
        # the geodesics differ, so a row mix-up cannot pass by symmetry
        assert min(np.abs(C[g] - C[h]).max() for g in range(4) for h in range(g)) > 1e-3

    @pytest.mark.parametrize("steps", [1, 5, 32, 64, 70, 257])
    def test_step_propagators_match_step_loop(self, rng, steps):
        # chunks of step propagators, a short last chunk included, against
        # applying every RK4 step to C in turn, for both runs of the pair
        x0 = rng.uniform(0, 2 * np.pi, 3)
        V = np.array([unit(rng.standard_normal(3)) for _ in range(3)])
        coarse, fine = map(_frames, ho._transport_pair(self.CONN, x0, V, 3.0, steps))
        assert np.abs(coarse - _rk4_steps(self.CONN, x0, V, 3.0, steps)).max() <= 1e-13
        assert np.abs(fine - _rk4_steps(self.CONN, x0, V, 3.0, 2 * steps)).max() <= 1e-13

    @settings(max_examples=40, deadline=None)
    @given(slab_cases())
    def test_slab_products_match_matmul_step_loop(self, case):
        # the (r, r, G, ...) slab products against a plain matmul step loop,
        # over fiber ranks, fan sizes and chunk boundaries
        conn, x0, V, steps = case
        coarse, fine = ho._transport_pair(conn, x0, V, 3.0, steps)
        assert coarse.shape == fine.shape == (conn.r, conn.r, len(V))
        assert np.abs(_frames(coarse) - _rk4_steps(conn, x0, V, 3.0, steps)).max() <= 1e-13
        assert np.abs(_frames(fine) - _rk4_steps(conn, x0, V, 3.0, 2 * steps)).max() <= 1e-13


    @pytest.mark.parametrize("steps", [1, 5, 32, 70])
    def test_doubled_run_equals_two_independent_runs(self, rng, steps, monkeypatch):
        # the coarse run reads Gamma at the fine run's step boundaries: the
        # same floating-point times, so both results are those of separate runs
        x0 = rng.uniform(0, 2 * np.pi, 3)
        V = np.array([unit(rng.standard_normal(3)) for _ in range(3)])
        coarse = _chunked_run(self.CONN, x0, V, 3.0, steps)
        fine = _chunked_run(self.CONN, x0, V, 3.0, 2 * steps)
        times = []
        field = ho._gamma_field

        def recorded(*args):
            minus_gamma = field(*args)

            def at(t):
                times.extend(t)
                return minus_gamma(t)
            return at

        monkeypatch.setattr(ho, "_gamma_field", recorded)
        pair = ho._transport_pair(self.CONN, x0, V, 3.0, steps)
        assert np.array_equal(pair[0], coarse) and np.array_equal(pair[1], fine)
        # Gamma at each fine stage time once, chunk boundaries twice
        chunks = -(-steps // ho._STEP_CHUNK)
        assert len(times) == 4 * steps + chunks
        assert len(set(times)) == 4 * steps + 1
        if steps >= 16:
            res = ho.transport(self.CONN, GeodesicSegment(x0, V, 3.0), steps)
            coarse, fine = _frames(coarse), _frames(fine)
            assert np.array_equal(res.C, fine)
            assert res.error_estimate == np.abs(fine - coarse).max()
            gram = fine.conj().transpose(0, 2, 1) @ fine
            assert res.unitarity_defect == np.abs(gram - np.eye(2)).max()


class TestInvarianceDefect:
    def test_eigenspace_of_diag(self):
        P = np.diag([1.0, 0.0]).astype(complex)
        assert ho.invariance_defect(DIAG_CONN, P) <= 1e-10

    def test_mixed_projector_detected(self):
        w = unit([1, 1])
        P = np.outer(w, w).astype(complex)
        assert ho.invariance_defect(DIAG_CONN, P) > 0.1

    def test_zero_connection(self):
        conn = FourierConnection.zero(r=2, n=3)
        P = np.diag([1.0, 0.0]).astype(complex)
        assert ho.invariance_defect(conn, P) == 0.0

    def test_complement_inherits_invariance(self, rng):
        # defect of 1 - P matches the defect of P up to rounding (linearity)
        for P in (np.diag([1.0, 0.0]).astype(complex),):
            d1 = ho.invariance_defect(DIAG_CONN, P)
            d2 = ho.invariance_defect(DIAG_CONN, np.eye(2) - P)
            assert d2 <= d1 + 1e-12

    def test_fourier_mode_projector(self):
        # a projector field given by its Fourier modes: only the constant mode
        P_field = {
            (0, 0, 0): np.diag([1.0, 0.0]).astype(complex),
        }
        assert ho.invariance_defect(DIAG_CONN, P_field) <= 1e-10

    # P(x) = U(x) P0 U(x)^dagger with P0 = [[1, 1], [1, 1]] / 2 and the
    # diagonal gauge U(x) = exp(-i x1 diag(1, 2)): P(x) = [[1, e^{i x1}],
    # [e^{-i x1}, 1]] / 2, whose modes (1, 0, 0) and (-1, 0, 0) carry the
    # off-diagonal halves.  X.P = v1 d_1 P cancels [Gamma_x(v), P] for the
    # diagonal connection diag(i, 2i) dx_1.
    GAUGED = {
        (0, 0, 0): np.eye(2) / 2,
        (1, 0, 0): np.array([[0, 0.5], [0, 0]]),
        (-1, 0, 0): np.array([[0, 0], [0.5, 0]]),
    }

    def test_gauge_rotated_projector_is_invariant(self):
        assert ho.invariance_defect(DIAG_CONN, self.GAUGED) <= 1e-10

    def test_wrong_gauge_detected(self):
        # the modes swapped: P(x) rotates against the connection, so the
        # flow derivative adds to the commutator instead of cancelling it
        swapped = {(0, 0, 0): self.GAUGED[(0, 0, 0)],
                   (1, 0, 0): self.GAUGED[(-1, 0, 0)],
                   (-1, 0, 0): self.GAUGED[(1, 0, 0)]}
        assert ho.invariance_defect(DIAG_CONN, swapped) > 0.5

    def test_constant_gauge_seed_detected(self):
        # P0 itself, held constant, is not parallel
        assert ho.invariance_defect(DIAG_CONN, np.full((2, 2), 0.5)) > 0.4

    def test_rejects_non_projector(self):
        with pytest.raises(ValidationError):
            ho.invariance_defect(DIAG_CONN, 0.5 * np.eye(2))

    def test_rejects_non_finite_field(self):
        # a nan projector used to pass the projector check and read defect 0.0
        with pytest.raises(ValidationError, match="projector"):
            ho.invariance_defect(DIAG_CONN, np.full((2, 2), np.nan))

    @pytest.mark.parametrize("samples", [0, -3])
    def test_needs_a_sample(self, samples):
        # zero samples used to report defect 0.0, "invariant" with no evidence
        with pytest.raises(ValidationError, match="samples"):
            ho.invariance_defect(DIAG_CONN, np.diag([1.0, 0.0]), samples=samples)


def _empty(kind):
    """An empty rank-2 connection on the 3-torus: its coefficients do not
    show the fiber rank, which comes from zero's arguments or the header."""
    if kind == "zero":
        return FourierConnection.zero(r=2, n=3)
    return load_fourier_connection("FOURCONN 3 2 0\n")


class TestUnknownFiberRank:
    """The functions below used to fail on an empty connection with a raw
    TypeError from np.zeros or np.eye, its rank being unknown.  Built
    without its rank it is now refused by the constructor (test_torusmodel's
    TestFourierConnection::test_empty_connection_needs_its_dimensions), so
    each function receives the rank and answers at it."""

    @pytest.mark.parametrize("kind", ["zero", "payload"])
    def test_value_at(self, kind):
        x = np.linspace(0, 6, 15).reshape(5, 3)
        G = _empty(kind).value_at(x, unit([1, 0, 0]))
        assert G.shape == (5, 2, 2) and not G.any()

    @pytest.mark.parametrize("empty_first", [True, False])
    @pytest.mark.parametrize("kind", ["zero", "payload"])
    def test_transport(self, kind, empty_first):
        # the empty connection transports by the identity, and adding it on
        # either side of DIAG_CONN leaves DIAG_CONN's transport as it is
        empty = _empty(kind)
        seg = GeodesicSegment(np.zeros(3), unit([1, 0.3, -0.2]), 5.0)
        assert np.array_equal(ho.transport(empty, seg, 64).C, np.eye(2))
        total = empty.plus(DIAG_CONN) if empty_first else DIAG_CONN.plus(empty)
        assert np.array_equal(ho.transport(total, seg, 64).C,
                              ho.transport(DIAG_CONN, seg, 64).C)

    @pytest.mark.parametrize("kind", ["zero", "payload"])
    def test_invariance_defect(self, kind):
        # with no connection the defect is the flow derivative alone; that of
        # GAUGED at (x, v) has entries of modulus |v_0| / 2
        d = ho.invariance_defect(_empty(kind), TestInvarianceDefect.GAUGED)
        assert 0.25 < d <= 0.5 + 1e-15


class TestSingleBatchedEvaluation:
    """Each caller evaluates its field at all its points in one call."""

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = []
        value_at = FourierConnection.value_at

        def counted(conn, x, v):
            calls.append(np.shape(x))
            return value_at(conn, x, v)

        monkeypatch.setattr(FourierConnection, "value_at", counted)
        return calls

    def test_invariance_defect(self, calls):
        counts = []
        for samples in (8, 64):
            calls.clear()
            ho.invariance_defect(DIAG_CONN, TestInvarianceDefect.GAUGED, samples=samples)
            counts.append(len(calls))
        assert counts[0] == counts[1] <= 2


class TestOpacityProbe:
    def test_diagonal_not_opaque(self):
        rep = ho.opacity_probe(DIAG_CONN, num_geodesics=16, length=6.0, steps=192, seed=3)
        assert rep.commutant_dim == 2
        assert "not opaque" in rep.verdict
        assert len(rep.projectors) == 2
        for rank, defect, P in rep.projectors:
            assert rank == 1
            assert defect <= 1e-6

    def test_noncommuting_opaque(self):
        rep = ho.opacity_probe(NONCOMM_CONN, num_geodesics=16, length=6.0, steps=192, seed=3)
        assert rep.commutant_dim == 1
        assert rep.verdict.startswith("opaque")
        assert "no invariant subbundle detected" in rep.verdict

    def test_reports_transport_health(self):
        rep = ho.opacity_probe(NONCOMM_CONN, num_geodesics=4, length=6.0, steps=64, seed=3)
        rng = np.random.default_rng(3)
        x0 = rng.uniform(0, 2 * np.pi, 3)
        worst_err = worst_unit = 0.0
        for _ in range(4):
            res = ho.transport(NONCOMM_CONN, GeodesicSegment(x0, unit(rng.standard_normal(3)),
                                                             6.0), 64)
            worst_err = max(worst_err, res.error_estimate)
            worst_unit = max(worst_unit, res.unitarity_defect)
        assert 0 < rep.transport_error == pytest.approx(worst_err, rel=1e-9)
        assert 0 < rep.unitarity_defect == pytest.approx(worst_unit, rel=1e-9)

    def test_one_transport_call(self, monkeypatch):
        # the probe transports its whole fan through the public driver
        shapes = []
        transport = ho.transport

        def counted(conn, seg, *args, **kwargs):
            shapes.append(seg.v.shape)
            return transport(conn, seg, *args, **kwargs)

        monkeypatch.setattr(ho, "transport", counted)
        ho.opacity_probe(NONCOMM_CONN, num_geodesics=5, length=6.0, steps=64, seed=3)
        assert shapes == [(5, 3)]

    def test_zero_connection_transparent(self):
        conn = FourierConnection.zero(r=2, n=3)
        conn = FourierConnection({(0, 0, 0): (np.zeros((2, 2)),) * 3})
        rep = ho.opacity_probe(conn, num_geodesics=8, length=4.0, steps=64, seed=3)
        assert rep.commutant_dim == 4
        assert rep.verdict.startswith("transparent")


class TestParallelFrameCheck:
    def test_trivial_connection_constants(self):
        cfg = TorusConfig(3, 1, 0, 2)
        rep = tm.ckt_kernel(tm.assemble(cfg))
        out = ho.parallel_frame_check(cfg, rep.vectors, samples=50)
        assert out.gram_drift < 1e-12
        assert out.pointwise_independent

    def test_planted_frame_diagonal_connection(self):
        # A = diag(i, 2i) dx_1: the kernel frame is x-dependent but stays
        # pointwise orthonormal, so the Gram does not drift
        cfg = TorusConfig(2, 2, 0, 2)
        conn = FourierConnection.constant(2, [np.diag([1j, 2j]), np.zeros((2, 2))])
        asm = tm.assemble(cfg, conn)
        rep = tm.ckt_kernel(asm)
        assert rep.dim == 2
        out = ho.parallel_frame_check(cfg, rep.vectors, samples=80)
        assert out.gram_drift < 1e-8
        assert out.min_singular_value >= 1e-6

    def test_non_kernel_section_detected(self, rng):
        cfg = TorusConfig(2, 2, 0, 2)
        conn = FourierConnection.constant(2, [np.diag([1j, 2j]), np.zeros((2, 2))])
        asm = tm.assemble(cfg, conn)
        rep = tm.ckt_kernel(asm)
        fake = rng.standard_normal(cfg.space_dim()) + 1j * rng.standard_normal(cfg.space_dim())
        fake /= np.linalg.norm(fake)
        vectors = np.column_stack([rep.vectors, fake])
        out = ho.parallel_frame_check(cfg, vectors, samples=80)
        assert out.gram_drift > 1e-2

    @pytest.mark.parametrize("samples", [0, -3])
    def test_needs_a_sample(self, samples):
        cfg = TorusConfig(3, 1, 0, 2)
        rep = tm.ckt_kernel(tm.assemble(cfg))
        with pytest.raises(ValidationError, match="samples"):
            ho.parallel_frame_check(cfg, rep.vectors, samples=samples)


class TestParallelEigenvalues:
    def test_constant_eigenvalues_along_geodesic(self, rng):
        # Hermitian sections with small flow-derivative defect have
        # eigenvalue spread O(defect * length) along transported geodesics
        u0 = np.diag([0.7, -0.3]).astype(complex)
        seg = GeodesicSegment(np.zeros(3), unit([1, 0.37, 0.11]), 5.0)
        # transport-conjugated section: exactly parallel for this connection
        res = ho.transport(DIAG_CONN, seg, 256)
        evs_start = np.linalg.eigvalsh(u0)
        evs_end = np.linalg.eigvalsh(res.C @ u0 @ res.C.conj().T)
        assert np.abs(evs_start - evs_end).max() < 1e-8
