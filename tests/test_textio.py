import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cktlab import textio
from cktlab.errors import ValidationError

LOADERS = {
    "HPOLY": textio.load_hpoly,
    "ENDO": textio.load_endo,
    "FOURCONN": textio.load_fourier_connection,
}


class TestMalformedPayloads:
    def test_endo_missing_rows(self):
        # rows 2 and 3 must not be left as uninitialised memory
        with pytest.raises(ValidationError):
            textio.load_endo("ENDO 3\n1.0 0.0 0.0 0.0 0.0 0.0\n")

    def test_endo_extra_rows(self):
        with pytest.raises(ValidationError):
            textio.load_endo("ENDO 1\n1.0 0.0\n2.0 0.0\n")

    @pytest.mark.parametrize("tag", sorted(LOADERS))
    @pytest.mark.parametrize("text", ["", "\n   \n"])
    def test_empty_payload(self, tag, text):
        with pytest.raises(ValidationError):
            LOADERS[tag](text)

    @pytest.mark.parametrize("text", [
        "HPOLY 3 two 0\n",
        "ENDO 1.5\n1.0 0.0\n",
        "FOURCONN 3 1 one\n",
    ])
    def test_non_integer_header(self, text):
        with pytest.raises(ValidationError):
            LOADERS[text.split()[0]](text)

    def test_non_numeric_entry(self):
        with pytest.raises(ValidationError):
            textio.load_endo("ENDO 1\n1.0 i\n")

    @pytest.mark.parametrize("announced", [0, 3])
    def test_fourconn_row_count(self, announced):
        rows = "0 1 0 0 0.0 0.25\n0 -1 0 0 0.0 0.25\n"
        with pytest.raises(ValidationError):
            textio.load_fourier_connection(f"FOURCONN 3 1 {announced}\n" + rows)

    def test_fourconn_direction_range(self):
        with pytest.raises(ValidationError):
            textio.load_fourier_connection("FOURCONN 2 1 2\n1 0 -1 0.0 1.0\n-1 0 -1 0.0 1.0\n")

    def test_fourconn_duplicate_row(self):
        # the row used to be added to its twin: 0.5i twice loaded as 1.0i
        rows = "1 0 0 0.0 0.5\n1 0 0 0.0 0.5\n-1 0 0 0.0 1.0\n"
        with pytest.raises(ValidationError, match=r"duplicate row for mode \(1, 0\) and direction 0"):
            textio.load_fourier_connection("FOURCONN 2 1 3\n" + rows)

    def test_fourconn_needs_dimension_and_rank(self):
        # 0 used to stand for an unknown n or r of an empty connection, which
        # transport and the other consumers then had to refuse on their own
        for text in ["FOURCONN 0 0 0\n", "FOURCONN 3 0 0\n", "FOURCONN 0 1 0\n",
                     "FOURCONN 3 0 2\n0 1 0 0\n0 -1 0 0\n"]:
            with pytest.raises(ValidationError, match="as an int >= 1, got 0") as info:
                textio.load_fourier_connection(text)
            assert "\n" not in str(info.value)
        empty = textio.load_fourier_connection("FOURCONN 3 1 0\n")
        assert (empty.n, empty.r, empty.coeffs) == (3, 1, {})
        assert textio.dump_fourier_connection(empty) == "FOURCONN 3 1 0\n"

    @pytest.mark.parametrize("text", [
        "HPOLY 2 1 1\nnan 0.0 1 0\n",
        "ENDO 1\n-inf 0.0\n",
        "FOURCONN 3 1 1\n0 0 0 0 nan 0\n",
    ], ids=lambda text: text.split()[0])
    def test_non_finite_entry(self, text):
        with pytest.raises(ValidationError, match="non-finite"):
            LOADERS[text.split()[0]](text)

    def test_duplicate_term(self):
        with pytest.raises(ValidationError):
            textio.load_hpoly("HPOLY 2 1 2\n1.0 0.0 1 0\n2.0 0.0 1 0\n")


TOKENS = st.sampled_from(["0", "1", "2", "3", "-1", "0.5", "-0.0", "nan", "inf", "1e999",
                          "x"])


@st.composite
def payloads(draw):
    """Headed texts built from numeric-looking tokens, to reach past the header."""
    tag = draw(st.sampled_from([*LOADERS, "BOGUS"]))
    head = draw(st.lists(TOKENS, max_size=4))
    body = draw(st.lists(st.lists(TOKENS, max_size=8).map(" ".join), max_size=6))
    return "\n".join([" ".join([tag, *head]), *body])


@settings(deadline=None, max_examples=400)
@given(st.one_of(st.text(), payloads()), st.sampled_from(sorted(LOADERS)))
def test_loaders_return_or_reject(text, tag):
    try:
        LOADERS[tag](text)
    except ValidationError:
        pass


@st.composite
def fourconn_payloads(draw):
    """(FOURCONN text, header n, header r): 0 to 2 rows of an (n, r)
    connection, n and r in 1..3, under a header that states (n, r) or
    any n and r in 0..3.  The rows are an opposite-mode pair, half of one,
    one skew-Hermitian matrix, raw entries or none; the largest entry of
    the last row may miss its reality by a relative 1e-14 (accepted) or
    1e-10 (refused)."""
    n, r = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    if draw(st.booleans()):
        head_n, head_r = n, r
    else:
        head_n, head_r = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    M = 10.0 ** draw(st.integers(-3, 6)) * (rng.standard_normal((r, r))
                                            + 1j * rng.standard_normal((r, r)))
    q = tuple(int(c) for c in rng.integers(-1, 2, n))
    body = draw(st.sampled_from([
        [(q, M), (tuple(-c for c in q), -M.conj().T)],  # an opposite-mode pair
        [(q, (M - M.conj().T) / 2)],  # a skew-Hermitian row
        [(q, M)],  # half a pair
        [(q, M), (q, rng.standard_normal((r, r)) + 0j)],  # raw rows
        [],
    ]))
    body = [(mode, A.copy()) for mode, A in body]
    if body:
        A = body[-1][1]
        A[np.unravel_index(np.abs(A).argmax(), A.shape)] *= 1 + draw(
            st.sampled_from([0.0, 1e-14, 1e-10]))
    j = int(rng.integers(0, n))
    lines = [" ".join([*map(str, mode), str(j)] + [repr(float(x)) for x in A.view(float).ravel()])
             for mode, A in body]
    return "\n".join([f"FOURCONN {head_n} {head_r} {len(lines)}", *lines]) + "\n", head_n, head_r


@settings(max_examples=300, deadline=1000)
@given(fourconn_payloads(), st.integers(0, 2**32 - 1))
def test_fourconn_loads_a_unitary_connection_or_refuses(drawn, seed):
    # every payload either loads into a connection of the header's n, r >= 1
    # whose value is skew-Hermitian, or is refused with one line
    text, head_n, head_r = drawn
    try:
        conn = textio.load_fourier_connection(text)
    except ValidationError as exc:
        assert "\n" not in str(exc)
        return
    assert (conn.n, conn.r) == (head_n, head_r) and min(head_n, head_r) >= 1
    rng = np.random.default_rng(seed)
    x, v = rng.uniform(0, 2 * np.pi, (4, conn.n)), rng.standard_normal((4, conn.n))
    G = conn.value_at(x, v)
    assert G.shape == (4, conn.r, conn.r)
    # the reality check bounds the share of mode q and direction j in G + G^H
    # by 1e-12 |v_j| max(1, max|Gamma_qj|)
    weights = np.array([[max(1.0, np.abs(A).max()) for A in mats]
                        for mats in conn.coeffs.values()]).reshape(-1, conn.n)
    scale = max(1.0, float((np.abs(v) @ weights.sum(axis=0)).max()))
    assert np.abs(G + G.conj().swapaxes(1, 2)).max() <= 1e-12 * scale


class TestParseConfig:
    TABLE = {
        "a": {"count": textio.Key(int, 1, default=3), "name": textio.Key(str, required=True),
              "mode": textio.Key(str, choices=("x", "y")),
              "step": textio.Key(textio.positive_float)},
        "b": {"shift": textio.Key(float)},
    }

    def test_defaults_and_absent_sections(self):
        assert textio.parse_config("[a]\nname = q\n", self.TABLE) == {
            "a": {"count": 3, "name": "q"}}
        assert textio.parse_config("[a]\nname = q\ncount = 1\n[b]\n", self.TABLE) == {
            "a": {"count": 1, "name": "q"}, "b": {}}

    @pytest.mark.parametrize("text", [
        "", "[a]\ncount = 2\n",  # required key missing
        "[a]\nname = q\ncount = 0\n", "[a]\nname = q\ncount = 2.0\n",
        "[a]\nname = q\nmode = z\n",
        "[a]\nname = q\nstep = 0\n", "[a]\nname = q\nstep = nan\n",
        "[a]\nname = q\n[b]\nshift = -inf\n", "[a]\nname = q\n[b]\nshift = 1e400\n",
        "[a]\nname = q\nother = 1\n", "[a]\nname = q\n[c]\n",
    ])
    def test_rejects(self, text):
        with pytest.raises(ValidationError):
            textio.parse_config(text, self.TABLE)

    NEEDS = {"s": {"mode": textio.Key(str, choices=("x", "y"), needs={"x": ("a",)}),
                   "src": textio.Key(str, needs={None: ("b",)}),
                   "a": textio.Key(int), "b": textio.Key(int), "c": textio.Key(int, default=0)}}

    @pytest.mark.parametrize("text,ok", [
        ("[s]\nmode = y\nb = 1\n", True),
        ("[s]\nmode = x\na = 1\nb = 1\n", True),
        ("[s]\nsrc = f\n", True),
        ("[s]\nmode = x\nb = 1\n", False),  # x needs a
        ("[s]\nmode = y\n", False),  # src unset needs b
        ("", False),
    ])
    def test_needs(self, text, ok):
        if ok:
            assert textio.parse_config(text, self.NEEDS)["s"]["c"] == 0
        else:
            with pytest.raises(ValidationError, match="needs keys"):
                textio.parse_config(text, self.NEEDS)

    def test_resolve_values_given_as_numbers(self):
        table = {"d": {"n": textio.Key(int, 2, required=True), "m": textio.Key(int, 0)}}
        assert textio.resolve_config({"d": {"n": 3}}, table) == {"d": {"n": 3}}
        with pytest.raises(ValidationError, match="must be >= 2"):
            textio.resolve_config({"d": {"n": 1}}, table)
        with pytest.raises(ValidationError, match="missing key 'n'"):
            textio.resolve_config({"d": {}}, table)
