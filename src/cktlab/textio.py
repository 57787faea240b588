"""Line-based text serialization shared by the modules and the CLI.

Numbers are printed with repr(), i.e. shortest round-trip decimals, so a
write/read cycle is bit-exact for doubles.  Every format starts with a
single header line naming the payload:

    HPOLY n m terms        then   c_re c_im a_1 ... a_n
    ENDO r                 then   r rows of 2r floats (re im ...)
    FOURCONN n r rows      then   q_1 ... q_n j re im ... (r^2 entries)

A FOURCONN header states n >= 1 and r >= 1 even with no rows; the
`FourierConnection` constructor is the one check of a loaded connection.
`load_hpoly` imports `HPoly` (polyharm) and `load_fourier_connection`
imports `FourierConnection` (torus) when called, so importing textio,
as the CLI does for its config tables, loads neither model module.

CSV outputs carry '#'-prefixed comment lines (timestamp, config hash);
re-running with the same config and seed reproduces the data rows byte
for byte.
"""

from __future__ import annotations

import configparser
import hashlib
import io
import math
import time
from typing import Callable, NamedTuple

import numpy as np

from .errors import ValidationError

__all__ = [
    "dump_hpoly", "load_hpoly",
    "dump_endo", "load_endo",
    "dump_fourier_connection", "load_fourier_connection",
    "write_csv", "config_hash", "read_config", "resolve_config", "parse_config", "render_config",
    "Key", "positive_float", "nonnegative_int",
]


def _fmt(x) -> str:
    return repr(float(x))


def _payload(text: str, tag: str, nfields: int):
    """(header fields, body lines) of a payload whose header is tag + nfields."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    head = lines[0].split() if lines else []
    if len(head) != 1 + nfields or head[0] != tag:
        raise ValidationError(f"not a {tag} payload")
    return head[1:], lines[1:]


def _numbers(fields, kind, where):
    try:
        values = [kind(f) for f in fields]
    except ValueError:
        raise ValidationError(
            f"expected {kind.__name__} fields in {where}: {' '.join(fields)!r}"
        ) from None
    if kind is float and not all(map(math.isfinite, values)):
        raise ValidationError(f"non-finite number in {where}: {' '.join(fields)!r}")
    return values


def dump_hpoly(P: HPoly) -> str:
    items = sorted(P.coeffs.items())
    lines = [f"HPOLY {P.n} {P.m} {len(items)}"]
    for key, c in items:
        c = complex(c)
        lines.append(" ".join([_fmt(c.real), _fmt(c.imag), *map(str, key)]))
    return "\n".join(lines) + "\n"


def load_hpoly(text: str) -> HPoly:
    from .polyharm import HPoly

    head, body = _payload(text, "HPOLY", 3)
    n, m, terms = _numbers(head, int, "HPOLY header")
    if n < 1:
        raise ValidationError(f"HPOLY needs n >= 1, got {n}")
    if len(body) != terms:
        raise ValidationError(f"expected {terms} term lines, got {len(body)}")
    coeffs = {}
    for ln in body:
        parts = ln.split()
        if len(parts) != 2 + n:
            raise ValidationError(f"bad term line: {ln!r}")
        real, imag = _numbers(parts[:2], float, "term line")
        key = tuple(_numbers(parts[2:], int, "term line"))
        if key in coeffs:
            raise ValidationError(f"duplicate term {key}")
        coeffs[key] = complex(real, imag)
    return HPoly(n, m, coeffs)


def _matrix_rows(M) -> list:
    rows = []
    for row in np.asarray(M, dtype=complex):
        rows.append(" ".join(f"{_fmt(c.real)} {_fmt(c.imag)}" for c in row))
    return rows


def _parse_matrix_rows(lines, r):
    if len(lines) != r:
        raise ValidationError(f"expected {r} matrix rows, got {len(lines)}")
    M = np.empty((r, r), dtype=complex)
    for i, ln in enumerate(lines):
        parts = ln.split()
        if len(parts) != 2 * r:
            raise ValidationError(f"expected {2 * r} floats per row, got {len(parts)}")
        M[i] = np.array(_numbers(parts, float, "matrix row")).view(complex)
    return M


def dump_endo(M) -> str:
    M = np.asarray(M, dtype=complex)
    r = M.shape[0]
    return "\n".join([f"ENDO {r}", *_matrix_rows(M)]) + "\n"


def load_endo(text: str) -> np.ndarray:
    head, body = _payload(text, "ENDO", 1)
    (r,) = _numbers(head, int, "ENDO header")
    return _parse_matrix_rows(body, r)


def dump_fourier_connection(conn: FourierConnection) -> str:
    rows = []
    for q in sorted(conn.coeffs):
        mats = conn.coeffs[q]
        for j, M in enumerate(mats):
            if np.abs(M).max() == 0:
                continue
            entries = " ".join(
                f"{_fmt(c.real)} {_fmt(c.imag)}" for c in np.asarray(M).ravel()
            )
            rows.append(" ".join([*map(str, q), str(j), entries]))
    return "\n".join([f"FOURCONN {conn.n} {conn.r} {len(rows)}", *rows]) + "\n"


def load_fourier_connection(text: str) -> FourierConnection:
    from .torus import FourierConnection

    head, body = _payload(text, "FOURCONN", 3)
    n, r, rows = _numbers(head, int, "FOURCONN header")
    FourierConnection.zero(r, n)  # the constructor's check of n and r, before any row is read
    if len(body) != rows:
        raise ValidationError(f"header announces {rows} mode rows, got {len(body)}")
    coeffs, seen = {}, set()
    for ln in body:
        parts = ln.split()
        if len(parts) != n + 1 + 2 * r * r:
            raise ValidationError(
                f"mode row needs {n + 1} integers and {2 * r * r} floats: {ln!r}")
        *q, j = _numbers(parts[:n + 1], int, "mode row")
        if not 0 <= j < n:
            raise ValidationError(f"direction {j} out of range 0..{n - 1}: {ln!r}")
        M = np.array(_numbers(parts[n + 1:], float, "mode row")).view(complex).reshape(r, r)
        if (tuple(q), j) in seen:
            raise ValidationError(f"duplicate row for mode {tuple(q)} and direction {j}: {ln!r}")
        seen.add((tuple(q), j))
        mats = coeffs.setdefault(tuple(q), [np.zeros((r, r), dtype=complex) for _ in range(n)])
        mats[j] = mats[j] + M
    return FourierConnection({q: tuple(m) for q, m in coeffs.items()}, r=r, n=n)


# ---------------------------------------------------------------------------
# configs and CSV


def positive_float(raw) -> float:
    """float(raw), rejecting nan, +-inf and values <= 0."""
    value = float(raw)
    if not (math.isfinite(value) and value > 0):
        raise ValueError("not finite and > 0")
    return value


def nonnegative_int(raw) -> int:
    """int(raw), rejecting values < 0 (no numpy generator takes them as a seed)."""
    if (value := int(raw)) < 0:
        raise ValueError("not >= 0")
    return value


class Key(NamedTuple):
    """A config key: kind converts the text (int, float, str or positive_float), low
    bounds an int from below, choices lists a str's values, default=None means none.
    needs maps a value of the key, or None for the key left unset, to the other keys
    of its section that the run then reads."""

    kind: Callable
    low: int | None = None
    choices: tuple = ()
    default: object = None
    required: bool = False
    needs: dict = {}


def read_config(text: str) -> dict:
    """{section: {key: raw text}} of an INI-style config, possibly empty."""
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ValidationError(f"config parse error: {exc}") from exc
    return {section: dict(cp.items(section)) for section in cp.sections()}


def resolve_config(given: dict, table: dict) -> dict:
    """Check {section: {key: value}} against a {section: {key: Key}} table.

    The one place an input value is checked.  Defaults fill omitted keys; an unknown
    section or key, a value its Key rejects, a non-finite float, a missing required key
    or a key missing that another key's value needs is an error, so misspellings never
    fall back to silent defaults.
    """
    out = {}
    for section, values in given.items():
        if section not in table:
            raise ValidationError(f"unknown config section [{section}]")
        out[section] = {}
        for name, raw in values.items():
            key = table[section].get(name)
            if key is None:
                raise ValidationError(f"unknown key {name!r} in section [{section}]")
            try:
                out[section][name] = value = key.kind(raw)
                if isinstance(value, float) and not math.isfinite(value):
                    raise ValueError("not finite")
                if key.low is not None and value < key.low:
                    raise ValueError(f"must be >= {key.low}")
                if key.choices and value not in key.choices:
                    raise ValueError(f"must be one of {', '.join(key.choices)}")
            except (TypeError, ValueError) as exc:
                raise ValidationError(f"bad value for {section}.{name}: {raw!r} ({exc})") from exc
    for section, keys in table.items():
        for name, key in keys.items():
            if key.required and name not in out.get(section, {}):
                raise ValidationError(f"missing key {name!r} in section [{section}]")
            if key.default is not None:
                out.setdefault(section, {}).setdefault(name, key.default)
        values = out.get(section, {})
        for name, key in keys.items():
            value = values.get(name)
            missing = [k for k in key.needs.get(value, ()) if k not in values]
            if missing:
                given_as = f"{name} = {value}" if name in values else f"without {name}"
                raise ValidationError(f"[{section}] {given_as} needs keys {missing}")
    return out


def parse_config(text: str, table: dict) -> dict:
    """Resolve an INI-style config, possibly empty, against a {section: {key: Key}} table."""
    return resolve_config(read_config(text), table)


def render_config(resolved: dict) -> str:
    """Canonical text form of a resolved config (sorted, for hashing/manifest)."""
    buf = io.StringIO()
    for section in sorted(resolved):
        buf.write(f"[{section}]\n")
        for key in sorted(resolved[section]):
            buf.write(f"{key} = {resolved[section][key]}\n")
    return buf.getvalue()


def config_hash(resolved: dict) -> str:
    return hashlib.sha256(render_config(resolved).encode()).hexdigest()[:16]


def write_csv(path, rows, resolved_config=None, comments=()):
    """Write rows with '#' comment headers; only the timestamp line varies."""
    lines = [f"# timestamp: {time.strftime('%Y-%m-%dT%H:%M:%S')}"]
    if resolved_config is not None:
        lines.append(f"# config-hash: {config_hash(resolved_config)}")
    for c in comments:
        lines.append(f"# {c}")
    lines.extend(rows)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
