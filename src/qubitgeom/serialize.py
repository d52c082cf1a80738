"""JSON and CSV rendering with 17-significant-digit decimal floats.

The stock json module formats floats with repr, which is shortest-roundtrip
rather than fixed-precision; CLI output needs byte-stable 17-significant-
digit decimals, so this walks the structure itself. Complex numbers render
as [re, im] pairs.

_csv_17g avoids dtoa's bignum path. For 1e-4 <= |v| < 1e16 (fixed notation) the
exponent k is exact from the least doubles >= 10**k, Dekker's error-free product
gives |v| * 10**(16 - k) = p + e exactly, and p is an even integer above 2**53,
so p + rint(e) is the significand rounded half to even. All other values (zero,
subnormal, |v| < 1e-4 or >= 1e16, NaN, inf) take ".17g" itself.
"""

from __future__ import annotations

import json
from functools import cache

import numpy as np


def dumps(obj) -> str:
    if obj is None:
        return "null"
    if isinstance(obj, bool) or isinstance(obj, np.bool_):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return format(float(obj), ".17g")
    if isinstance(obj, (complex, np.complexfloating)):
        return dumps([obj.real, obj.imag])
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, np.ndarray):
        return dumps(obj.tolist())
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(dumps(v) for v in obj) + "]"
    if isinstance(obj, dict):
        items = (f"{json.dumps(str(k))}: {dumps(v)}" for k, v in obj.items())
        return "{" + ", ".join(items) + "}"
    raise TypeError(f"cannot serialize {type(obj)!r}")


_SPLIT = 134217729.0  # 2**27 + 1: Veltkamp splits a double into two 26-bit halves
_POW10 = np.array([float(10**m) for m in range(21)])  # exact: 5**20 < 2**53
_POW10_HI = _POW10 * _SPLIT - (_POW10 * _SPLIT - _POW10)
_POW10_LO = _POW10 - _POW10_HI
_DECADES = np.array([float(f"1e{k}") for k in range(-3, 16)])  # least doubles >= 10**k
_ROW = b"%d-0., "  # a source row: 17 significand digits, then the bytes layouts place
_STRIDE, _WIDTH = len(_ROW % 10**16), 24  # a field: at most "-0.000", 17 digits and a comma
_FALLBACK = np.frombuffer(b"%.17g".ljust(_WIDTH - 1) + b",", np.uint8)  # "%" fills it in last
_BLOCK = 512  # values per gather, so that its index stays under 100 kB


@cache  # built on first use: most processes render no CSV
def _layouts() -> np.ndarray:
    """Source-row positions for exponent k, s digits: row ((k + 4) * 17 + s - 1) * 2 + (v < 0)."""
    minus, zero, dot, comma, pad = range(17, 22)
    rows = []
    for k in range(-4, 16):
        lead = [*range(k + 1)] if k >= 0 else [zero, dot, *[zero] * (-k - 1)]
        for s in range(1, 18):
            frac = [*range(max(k + 1, 0), s)]
            body = lead + ([dot] if k >= 0 and frac else []) + frac
            rows += [body, [minus, *body]]
    return np.array([r + [pad] * (_WIDTH - 1 - len(r)) + [comma] for r in rows])


def _significand(a: np.ndarray, m: np.ndarray) -> np.ndarray:
    """round(a * 10**m) half to even, for products in [2**53, 2**63)."""
    p, b_hi, b_lo = a * _POW10[m], _POW10_HI[m], _POW10_LO[m]
    a_hi = a * _SPLIT
    a_hi -= a_hi - a
    a_lo = a - a_hi
    err = a_lo * b_lo - (((p - a_hi * b_hi) - a_lo * b_hi) - a_hi * b_lo)  # no fused multiply-add
    return p.astype(np.int64) + np.rint(err).astype(np.int64)


def _csv_17g(table: np.ndarray) -> str:
    """CSV lines of a 2-D float table, each value as format(v, ".17g")."""
    v = np.ascontiguousarray(table, dtype=float).ravel()
    a = np.abs(v)
    fast = (a >= 1e-4) & (a < 1e16)
    a = a[fast]
    k = np.searchsorted(_DECADES, a, side="right") - 4
    sig = _significand(a, 16 - k)
    rows = _ROW * len(sig) % tuple(sig.tolist())
    src = np.frombuffer(rows, np.uint8).reshape(-1, _STRIDE)
    s = np.full(len(src), 17)  # significant digits once trailing zeros go
    z = np.flatnonzero(src[:, 16] == ord("0"))
    s[z] = 17 - np.argmax(src[z, 16::-1] != ord("0"), axis=1)
    code = ((k + 4) * 17 + s - 1) * 2 + (v[fast] < 0)
    base = _STRIDE * np.arange(len(src))[:, None]
    out = np.empty((len(src), _WIDTH), np.uint8)  # space-padded fields
    for i in range(0, len(src), _BLOCK):
        b = slice(i, i + _BLOCK)
        np.take(src, _layouts()[code[b]] + base[b], out=out[b])
    del a, k, sig, rows, src, s, code, base  # freed before the output is copied out
    if not fast.all():  # the other values are laid out as "%.17g" and formatted last
        out, fields = np.empty((len(v), _WIDTH), np.uint8), out
        out[fast], out[~fast] = fields, _FALLBACK
    out[table.shape[1] - 1::table.shape[1], -1] = ord("\n")
    text = out[out != ord(" ")].tobytes()
    return (text if fast.all() else text % tuple(v[~fast].tolist())).decode()
