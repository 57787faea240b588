"""Line-based text serialization shared by the modules and the CLI.

Numbers are printed with repr(), i.e. shortest round-trip decimals, so a
write/read cycle is bit-exact for doubles.  Every format starts with a
single header line naming the payload:

    HPOLY n m terms        then   c_re c_im a_1 ... a_n
    SYMT n m terms         then   c_re c_im t_1 ... t_n
    ENDO r                 then   r rows of 2r floats (re im ...)
    CONNFORM n r unitary=yes|no   then n matrix blocks of r rows
    FOURCONN n r rows      then   q_1 ... q_n j re im ... (r^2 entries)

CSV outputs carry '#'-prefixed comment lines (timestamp, config hash);
re-running with the same config and seed reproduces the data rows byte
for byte.
"""

from __future__ import annotations

import configparser
import hashlib
import io
import time

import numpy as np

from .connalg import FiberConnForm
from .errors import ValidationError
from .polyharm import HPoly
from .symtensor import SymTensor
from .torusmodel import FourierConnection

__all__ = [
    "dump_hpoly", "load_hpoly",
    "dump_symtensor", "load_symtensor",
    "dump_endo", "load_endo",
    "dump_connform", "load_connform",
    "dump_fourier_connection", "load_fourier_connection",
    "write_csv", "config_hash", "parse_config", "render_config",
]


def _fmt(x) -> str:
    return repr(float(x))


def dump_hpoly(P: HPoly) -> str:
    items = sorted(P.coeffs.items())
    lines = [f"HPOLY {P.n} {P.m} {len(items)}"]
    for a, c in items:
        c = complex(c)
        lines.append(" ".join([_fmt(c.real), _fmt(c.imag), *map(str, a)]))
    return "\n".join(lines) + "\n"


def load_hpoly(text: str) -> HPoly:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    head = lines[0].split()
    if head[0] != "HPOLY" or len(head) != 4:
        raise ValidationError("not an HPOLY payload")
    n, m, terms = int(head[1]), int(head[2]), int(head[3])
    if len(lines) - 1 != terms:
        raise ValidationError(f"expected {terms} term lines, got {len(lines) - 1}")
    coeffs = {}
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2 + n:
            raise ValidationError(f"bad term line: {ln!r}")
        c = complex(float(parts[0]), float(parts[1]))
        coeffs[tuple(int(p) for p in parts[2:])] = c
    return HPoly(n, m, coeffs)


def dump_symtensor(T: SymTensor) -> str:
    items = sorted(T.coeffs.items())
    lines = [f"SYMT {T.n} {T.m} {len(items)}"]
    for t, c in items:
        c = complex(c)
        lines.append(" ".join([_fmt(c.real), _fmt(c.imag), *map(str, t)]))
    return "\n".join(lines) + "\n"


def load_symtensor(text: str) -> SymTensor:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    head = lines[0].split()
    if head[0] != "SYMT" or len(head) != 4:
        raise ValidationError("not a SYMT payload")
    n, m, terms = int(head[1]), int(head[2]), int(head[3])
    coeffs = {}
    for ln in lines[1:]:
        parts = ln.split()
        c = complex(float(parts[0]), float(parts[1]))
        coeffs[tuple(int(p) for p in parts[2:])] = c
    if len(coeffs) != terms:
        raise ValidationError("term count mismatch")
    return SymTensor(n, m, coeffs)


def _matrix_rows(M) -> list:
    rows = []
    for row in np.asarray(M, dtype=complex):
        rows.append(" ".join(f"{_fmt(c.real)} {_fmt(c.imag)}" for c in row))
    return rows


def _parse_matrix_rows(lines, r):
    M = np.empty((r, r), dtype=complex)
    for i, ln in enumerate(lines):
        parts = ln.split()
        if len(parts) != 2 * r:
            raise ValidationError(f"expected {2 * r} floats per row, got {len(parts)}")
        for j in range(r):
            M[i, j] = complex(float(parts[2 * j]), float(parts[2 * j + 1]))
    return M


def dump_endo(M) -> str:
    M = np.asarray(M, dtype=complex)
    r = M.shape[0]
    return "\n".join([f"ENDO {r}", *_matrix_rows(M)]) + "\n"


def load_endo(text: str) -> np.ndarray:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    head = lines[0].split()
    if head[0] != "ENDO":
        raise ValidationError("not an ENDO payload")
    r = int(head[1])
    return _parse_matrix_rows(lines[1:1 + r], r)


def dump_connform(G: FiberConnForm) -> str:
    flag = "yes" if G.unitary else "no"
    lines = [f"CONNFORM {G.n} {G.r} unitary={flag}"]
    for M in G.gammas:
        lines.extend(_matrix_rows(M))
    return "\n".join(lines) + "\n"


def load_connform(text: str) -> FiberConnForm:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    head = lines[0].split()
    if head[0] != "CONNFORM":
        raise ValidationError("not a CONNFORM payload")
    n, r = int(head[1]), int(head[2])
    unitary = head[3].split("=")[1] == "yes"
    mats = []
    at = 1
    for _ in range(n):
        mats.append(_parse_matrix_rows(lines[at:at + r], r))
        at += r
    return FiberConnForm(tuple(mats), unitary=unitary)


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
    n = conn.n if conn.n is not None else 0
    r = conn.r if conn.r is not None else 0
    return "\n".join([f"FOURCONN {n} {r} {len(rows)}", *rows]) + "\n"


def load_fourier_connection(text: str) -> FourierConnection:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    head = lines[0].split()
    if head[0] != "FOURCONN":
        raise ValidationError("not a FOURCONN payload")
    n, r, rows = int(head[1]), int(head[2]), int(head[3])
    coeffs = {}
    for ln in lines[1:1 + rows]:
        parts = ln.split()
        q = tuple(int(p) for p in parts[:n])
        j = int(parts[n])
        vals = [float(p) for p in parts[n + 1:]]
        if len(vals) != 2 * r * r:
            raise ValidationError(f"mode row needs {2 * r * r} floats: {ln!r}")
        M = np.array([complex(vals[2 * i], vals[2 * i + 1]) for i in range(r * r)])
        mats = coeffs.setdefault(q, [np.zeros((r, r), dtype=complex) for _ in range(n)])
        mats[j] = mats[j] + M.reshape(r, r)
    return FourierConnection({q: tuple(m) for q, m in coeffs.items()}, r=r, n=n)


# ---------------------------------------------------------------------------
# configs and CSV


def parse_config(text: str, schema: dict) -> dict:
    """Parse an INI-style config against a {section: {key: converter}} schema.

    Unknown sections or keys are errors: misspellings never fall back to
    silent defaults.
    """
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ValidationError(f"config parse error: {exc}") from exc
    out = {}
    for section in cp.sections():
        if section not in schema:
            raise ValidationError(f"unknown config section [{section}]")
        out[section] = {}
        for key, raw in cp.items(section):
            if key not in schema[section]:
                raise ValidationError(f"unknown key {key!r} in section [{section}]")
            conv = schema[section][key]
            try:
                out[section][key] = conv(raw)
            except (TypeError, ValueError) as exc:
                raise ValidationError(
                    f"bad value for {section}.{key}: {raw!r} ({exc})"
                ) from exc
    return out


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
