"""JSON and CSV rendering with 17-significant-digit decimal floats.

The stock json module formats floats with repr, which is shortest-roundtrip
rather than fixed-precision; CLI output needs byte-stable 17-significant-
digit decimals, so this walks the structure itself. Complex numbers render
as [re, im] pairs.

_csv_17g avoids dtoa's bignum path. For 1e-4 <= |v| < 10, which holds a trajectory's
eta and its times below 10, the exponent k in -4..0, guessed from the binary
exponent, is made exact against the least doubles >= 10**k, Dekker's error-free
product gives |v| * 10**(16 - k) = p + e exactly, and p is an even integer above
2**53, so p + rint(e) is the significand rounded half to even. A value fills a 24-byte
row of a bytearray: its separator (a newline first in a line, else a comma) and its sign,
"0." and zeros (k < 0) or dot (k = 0) with digit d, in one word; four groups of four,
trailing zeros as pads in the last and in each that only zero groups follow. translate
deletes the pads. Other values (zero, subnormal, |v| < 1e-4 or >= 10, NaN, inf) take
"%.17g"; a chunk with a negative one of 17 digits and a three-digit exponent takes 32-byte rows.
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
_DECADES = np.array([float(f"1e{k}") for k in range(-4, 2)])  # 10**k rounded up
_PAD = ord(" ")  # around each field in its row, as ljust pads a "%.17g" text too
_CHUNK = 1 << 16  # values rendered at a time, so that temporaries stay under 10 MB


@cache  # built on first use: most processes render no CSV
def _tables() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Words of "%04d" % i, and with i's trailing zeros as pads (a group that zero groups
    follow); 8-byte heads of row (k * 10 + d) * 2 + (v < 0), counted from the end for k < 0."""
    quads = np.indices((10,) * 4, np.uint8).reshape(4, -1).T + ord("0")  # row i: "%04d" % i
    padded = quads.copy()
    for j in range(4):  # digit j of i is a trailing zero where 10**(4 - j) divides i
        padded[::10 ** (4 - j), j] = _PAD
    heads = [b",%7s" % (sign + lead % d) for lead in b"%d. 0.000%d 0.00%d 0.0%d 0.%d".split()
             for d in range(10) for sign in (b"", b"-")]  # k = 0, then -4 .. -1
    return (quads.copy().view(np.uint32).ravel(), padded.view(np.uint32).ravel(),
            np.frombuffer(b"".join(heads), np.uint64).copy())


def _significand(a: np.ndarray, m: np.ndarray) -> np.ndarray:
    """round(a * 10**m) half to even, for products in [2**53, 2**63); a is overwritten."""
    b = _POW10[m]
    p, b_hi = a * b, _POW10_HI[m]
    b -= b_hi  # b_lo
    a_hi = a * _SPLIT
    t = a_hi - a
    a_hi -= t
    a -= a_hi  # a_lo; err = a_lo b_lo - (((p - a_hi b_hi) - a_lo b_hi) - a_hi b_lo), unfused
    np.subtract(p, np.multiply(a_hi, b_hi, out=t), out=t)
    t -= np.multiply(a, b_hi, out=b_hi)
    t -= np.multiply(a_hi, b, out=a_hi)
    a *= b
    a -= t
    del b, b_hi, a_hi, t  # freed before the integers are made
    return p.astype(np.int64) + np.rint(a, out=a).astype(np.int64)


def _fields(v: np.ndarray, ncols: int) -> str:
    """The ".17g" fields of v, a newline before the first of every ncols, else a comma."""
    quads, padded, heads = _tables()
    a = np.abs(v)
    slow = (~((a >= 1e-4) & (a < 10.0))).nonzero()[0]  # each fix-up indexes only its rows
    a[slow] = 1.0  # any value on the exact path: "%.17g" overwrites its row
    texts = [b"%.17g" % x for x in v[slow].tolist()]
    w = 32 if any(len(t) > 23 for t in texts) else 24  # a row: separator, head, 16 digits
    k = ((a.view(np.int64) >> 52) - 1023) * 1233 >> 12  # floor(e log10 2), e the binary
    k += a >= _DECADES[k + 5]  # exponent: the decade of a or the one below
    head = np.subtract(16, k)
    sig = _significand(a, head)
    buf = bytearray(len(v) * w)
    out = np.frombuffer(buf, np.uint8).reshape(-1, w)
    words = out.view(np.uint32)
    q, r = a.view(np.int64), head  # spent: they hold the quotients and the groups
    for i in range(5, 1, -1):  # sig = d * 10**16 + the four-digit groups in words 2..5
        np.floor_divide(sig, 10000, out=q)
        np.subtract(sig, np.multiply(q, 10000, out=r), out=r)  # numpy's % divides again
        sig, q = q, sig
        words[:, i] = (quads if i < 5 else padded).take(r)  # trailing zeros of the last group
        if i < 5:  # and of a group that only zero groups follow are pads
            words[rows, i] = padded.take(r[rows])
        rows = (r == 0).nonzero()[0] if i == 5 else rows[r[rows] == 0]
    np.add(np.multiply(k, 10, out=head), sig, out=head)  # row (k * 10 + d) * 2 + (v < 0)
    head *= 2  # of the heads; the sign bit of v, shifted down, is -1 where v < 0
    head -= np.right_shift(v.view(np.int64), 63, out=q)
    out.view(np.uint64)[:, 0] = heads.take(head)  # a comma, then the head in bytes 1..7
    out[::ncols, 0] = ord("\n")
    out[:, 24:] = _PAD  # the tail of a 32-byte row
    out[rows[k[rows] == 0], 7] = _PAD  # a whole number has no dot
    text = b"".join(t.ljust(w - 1) for t in texts)
    out[slow, 1:] = np.frombuffer(text, np.uint8).reshape(-1, w - 1)
    del a, k, sig, q, r, head, out, words  # freed before the pads are deleted,
    buf = buf.translate(None, b" ")  # and the rows before the text is decoded
    return buf.decode()


def _csv_17g(header: str, table: np.ndarray) -> str:
    """A header line and CSV lines of a 2-D float table, each value as format(v, ".17g")."""
    v = np.ascontiguousarray(table, dtype=float).ravel()
    step = _CHUNK - _CHUNK % table.shape[1]  # whole lines: a chunk starts with a newline
    chunks = (_fields(v[i:i + step], table.shape[1]) for i in range(0, len(v), step))
    return "".join([header, *chunks, "\n"])
