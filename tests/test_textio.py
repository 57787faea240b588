import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cktlab import textio
from cktlab.errors import ValidationError

LOADERS = {
    "HPOLY": textio.load_hpoly,
    "SYMT": textio.load_symtensor,
    "ENDO": textio.load_endo,
    "CONNFORM": textio.load_connform,
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

    def test_connform_missing_rows(self):
        with pytest.raises(ValidationError):
            textio.load_connform("CONNFORM 2 2 unitary=no\n0.0 1.0 0.0 0.0\n0.0 0.0 0.0 1.0\n")

    @pytest.mark.parametrize("tag", sorted(LOADERS))
    @pytest.mark.parametrize("text", ["", "\n   \n"])
    def test_empty_payload(self, tag, text):
        with pytest.raises(ValidationError):
            LOADERS[tag](text)

    @pytest.mark.parametrize("text", [
        "HPOLY 3 two 0\n",
        "SYMT 3 2 x\n",
        "ENDO 1.5\n1.0 0.0\n",
        "CONNFORM n 1 unitary=no\n0.0 1.0\n",
        "FOURCONN 3 1 one\n",
    ])
    def test_non_integer_header(self, text):
        with pytest.raises(ValidationError):
            LOADERS[text.split()[0]](text)

    def test_non_numeric_entry(self):
        with pytest.raises(ValidationError):
            textio.load_endo("ENDO 1\n1.0 i\n")

    def test_unitary_flag_must_be_yes_or_no(self):
        with pytest.raises(ValidationError):
            textio.load_connform("CONNFORM 1 1 unitary=maybe\n0.0 1.0\n")

    @pytest.mark.parametrize("announced", [0, 3])
    def test_fourconn_row_count(self, announced):
        rows = "0 1 0 0 0.0 0.25\n0 -1 0 0 0.0 0.25\n"
        with pytest.raises(ValidationError):
            textio.load_fourier_connection(f"FOURCONN 3 1 {announced}\n" + rows)

    def test_fourconn_direction_range(self):
        with pytest.raises(ValidationError):
            textio.load_fourier_connection("FOURCONN 2 1 2\n1 0 -1 0.0 1.0\n-1 0 -1 0.0 1.0\n")

    def test_fourconn_zero_rank_only_when_empty(self):
        empty = textio.load_fourier_connection("FOURCONN 0 0 0\n")
        assert empty.r is None and empty.n is None and not empty.coeffs
        with pytest.raises(ValidationError):
            textio.load_fourier_connection("FOURCONN 3 0 2\n0 1 0 0\n0 -1 0 0\n")

    @pytest.mark.parametrize("text", [
        "HPOLY 2 1 1\nnan 0.0 1 0\n",
        "SYMT 2 1 1\n0.0 inf 1 0\n",
        "ENDO 1\n-inf 0.0\n",
        "CONNFORM 1 1 unitary=no\n0.0 1e999\n",
        "FOURCONN 3 1 1\n0 0 0 0 nan 0\n",
    ], ids=lambda text: text.split()[0])
    def test_non_finite_entry(self, text):
        with pytest.raises(ValidationError, match="non-finite"):
            LOADERS[text.split()[0]](text)

    def test_duplicate_term(self):
        with pytest.raises(ValidationError):
            textio.load_hpoly("HPOLY 2 1 2\n1.0 0.0 1 0\n2.0 0.0 1 0\n")


TOKENS = st.sampled_from(["0", "1", "2", "3", "-1", "0.5", "-0.0", "nan", "inf", "1e999",
                          "x", "unitary=yes", "unitary=no", "unitary=maybe"])


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
