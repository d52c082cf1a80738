"""JSON and CSV rendering with 17-significant-digit decimal floats.

The stock json module formats floats with repr, which is shortest-roundtrip
rather than fixed-precision; CLI output needs byte-stable 17-significant-
digit decimals, so this walks the structure itself. Complex numbers render
as [re, im] pairs.

_csv_17g avoids dtoa's bignum path. For 1e-4 <= |v| < 1e16 (fixed notation) the
exponent k is floor(log10 |v|) made exact against the least doubles >= 10**k,
Dekker's error-free product gives |v| * 10**(16 - k) = p + e exactly, and p is
an even integer above 2**53, so p + rint(e) is the significand rounded half to
even. Its digit d and four groups of four fill a row of table words: the sign,
"0." and zeros (k < 0) or a dot (k >= 0) with d; the groups, trailing zeros as
pads; a separator. Rows with k > 0 move k digits over the dot, and one pass
deletes the pads of all rows.
Other values (zero, subnormal, |v| < 1e-4 or >= 1e16, NaN, inf) take "%.17g".
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
_DECADES = np.array([float(f"1e{k}") for k in range(-4, 17)] + [np.inf])  # 10**k rounded up
_W = 28  # a row: sign, "0." and zeros in bytes 0..6, 17 digits in 7..23, separator at 24
_PAD = ord(" ")  # around each field in its row, as "%-24.17g" pads too
_CHUNK = 1 << 16  # values rendered at a time, so that temporaries stay under 10 MB


@cache  # built on first use: most processes render no CSV
def _tables() -> tuple[np.ndarray, np.ndarray]:
    """Words of the "%04d" digits of i, then of i with trailing zeros as pads
    (row 10000 + i); word pairs of row ((min(k, 0) + 4) * 2 + (v < 0)) * 10 + d."""
    quads = np.indices((10,) * 4, np.uint8).reshape(4, -1).T + ord("0")  # row i: "%04d" % i
    padded = quads.copy()
    for j in range(4):  # digit j of i is a trailing zero where 10**(4 - j) divides i
        padded[::10 ** (4 - j), j] = _PAD
    heads = [b"%8s" % (sign + lead % d) for lead in b"0.000%d 0.00%d 0.0%d 0.%d %d.".split()
             for sign in (b"", b"-") for d in range(10)]
    return (np.concatenate([quads, padded]).view(np.uint32).ravel(),
            np.frombuffer(b"".join(heads), np.uint32).reshape(-1, 2).T.copy())


def _significand(a: np.ndarray, m: np.ndarray) -> np.ndarray:
    """round(a * 10**m) half to even, for products in [2**53, 2**63)."""
    p, b_hi, b_lo = a * _POW10[m], _POW10_HI[m], _POW10_LO[m]
    a_hi = a * _SPLIT
    a_hi -= a_hi - a
    a_lo = a - a_hi
    err = a_lo * b_lo - (((p - a_hi * b_hi) - a_lo * b_hi) - a_hi * b_lo)  # no fused multiply-add
    return p.astype(np.int64) + np.rint(err).astype(np.int64)


def _fields(v: np.ndarray, ncols: int) -> bytes:
    """The ".17g" fields of v, a newline after every ncols-th and a comma after the others."""
    quads, heads = _tables()
    a = np.abs(v)
    slow = np.flatnonzero(~((a >= 1e-4) & (a < 1e16)))  # each fix-up indexes only its rows
    a[slow] = 1.0  # any value on the exact path: "%.17g" overwrites its row
    k = np.floor(np.log10(a)).astype(np.int64)  # off by at most one either way
    k += a >= _DECADES[k + 5]
    k -= a < _DECADES[k + 4]
    sig = _significand(a, 16 - k)
    out = np.empty((len(v), _W), np.uint8)
    words = out.view(np.uint32)
    tail = 10000  # pads the trailing zeros of the last group and of groups followed by zeros
    for i in range(5, 1, -1):  # sig = d * 10**16 + the four-digit groups in words 2..5
        q = sig // 10000
        r = sig - q * 10000
        words[:, i] = quads.take(r + tail)
        tail = tail * (r == 0)
        sig = q
    head = ((np.minimum(k, 0) + 4) * 2 + (v < 0)) * 10 + sig
    words[:, 0], words[:, 1] = heads[0].take(head), heads[1].take(head)
    words[:, 6] = np.frombuffer(b",   ", np.uint32)
    out[ncols - 1::ncols, -4] = ord("\n")
    out[np.flatnonzero((k == 0) & (tail > 0)), 7] = _PAD  # a whole number has no dot
    for e in range(1, k.max() + 1):  # rows with k = e > 0: digits 1..e move left over the
        rows = np.flatnonzero(k == e)  # dot, their pads back to zeros
        digits = out[rows, 8:8 + e]
        out[rows, 7:7 + e] = np.where(digits == _PAD, ord("0"), digits)
        out[rows, 7 + e] = np.where(out[rows, 8 + e] == _PAD, _PAD, ord("."))
    text = b"".join(b"%-24.17g" % x for x in v[slow].tolist())  # at most 24 bytes
    out[slow, :24] = np.frombuffer(text, np.uint8).reshape(-1, 24)
    del a, k, sig, tail, head  # freed before the rows are copied out
    return out.tobytes().translate(None, b" ")


def _csv_17g(table: np.ndarray) -> str:
    """CSV lines of a 2-D float table, each value as format(v, ".17g")."""
    v = np.ascontiguousarray(table, dtype=float).ravel()
    step = _CHUNK - _CHUNK % table.shape[1]  # whole lines
    return b"".join(_fields(v[i:i + step], table.shape[1]) for i in range(0, len(v), step)).decode()
