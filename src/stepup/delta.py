"""Binary-representation machinery for the stepping-up construction.

For distinct vertices u, v read as bit strings, delta(u, v) is the index of
the most significant bit where they differ.  Ordered vertex tuples induce
delta sequences, whose local-extremum structure drives everything else:
edge rules, layer building, and the monotone-run shortcut.

The module also packages the four stepping-up properties as executable
checks.  On valid inputs they are theorems; a reported failure always means
an implementation bug, which is exactly what the randomized suites hunt.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Optional, Sequence

import numpy as np

from .errors import (
    EqualVertices,
    MalformedTuple,
    PositionOutOfRange,
    TupleTooShort,
)

__all__ = [
    "ExtremumClass",
    "PropertyReport",
    "delta",
    "delta_sequence",
    "classify_position",
    "span_delta",
    "check_stepping_properties",
    "delta_array",
    "consecutive_deltas",
]


class ExtremumClass(Enum):
    """Strict-comparison class of a position inside a delta sequence."""

    BOUNDARY = "Boundary"
    LOCAL_MIN = "LocalMin"
    LOCAL_MAX = "LocalMax"
    LOCAL_MONOTONE = "LocalMonotone"


@dataclass
class PropertyReport:
    """Outcome of a batch of named invariant checks.

    ``ok`` is the conjunction of ``checks``; ``counterexample`` describes
    the first failure found, if any.
    """

    ok: bool
    checks: dict[str, bool] = field(default_factory=dict)
    counterexample: Optional[dict] = None


def delta(u: int, v: int) -> int:
    """Index of the most significant differing bit of two distinct vertices."""
    if u < 0 or v < 0:
        raise ValueError("vertices must be non-negative integers")
    if u == v:
        raise EqualVertices(f"delta(u, v) undefined for u = v = {u}")
    return (u ^ v).bit_length() - 1


def _as_ordered(vertices: Sequence[int], min_len: int) -> tuple[int, ...]:
    vs = tuple(int(v) for v in vertices)
    if len(vs) < min_len:
        raise TupleTooShort(f"need at least {min_len} vertices, got {len(vs)}")
    if any(v < 0 for v in vs):
        raise MalformedTuple("vertices must be non-negative")
    if any(a >= b for a, b in zip(vs, vs[1:])):
        raise MalformedTuple(f"vertices must be strictly increasing: {vs}")
    return vs


def delta_sequence(vertices: Sequence[int]) -> tuple[int, ...]:
    """Deltas of consecutive pairs of a strictly increasing vertex tuple."""
    vs = _as_ordered(vertices, 2)
    return tuple(delta(a, b) for a, b in zip(vs, vs[1:]))


def classify_position(seq: Sequence[int], i: int) -> ExtremumClass:
    """Classify position i of a delta sequence by strict neighbor comparison."""
    if not 0 <= i < len(seq):
        raise PositionOutOfRange(f"position {i} outside sequence of length {len(seq)}")
    if i == 0 or i == len(seq) - 1:
        return ExtremumClass.BOUNDARY
    left, here, right = seq[i - 1], seq[i], seq[i + 1]
    if left < here > right:
        return ExtremumClass.LOCAL_MAX
    if left > here < right:
        return ExtremumClass.LOCAL_MIN
    return ExtremumClass.LOCAL_MONOTONE


def span_delta(vertices: Sequence[int]) -> int:
    """delta(first, last); self-checked against max of the delta sequence."""
    vs = _as_ordered(vertices, 2)
    span = delta(vs[0], vs[-1])
    assert span == max(delta_sequence(vs)), (
        "span/max mismatch, delta implementation is broken"
    )
    return span


def check_stepping_properties(vertices: Sequence[int]) -> PropertyReport:
    """Check Properties I, II and III on one ordered tuple.

    I:   delta(S[i], S[j]) != delta(S[j], S[k]) for all i < j < k.
    II:  delta(S[i], S[j]) equals the max of the consecutive deltas between
         them, for all i < j.
    III: whenever delta(S[i], S[j]) > delta(S[j], S[k]) for i < j < k, that
         larger delta differs from delta(S[k], S[l]) for every l > k.

    All three are theorems for genuine vertex tuples, so the report is a
    bug detector, not a filter.
    """
    vs = _as_ordered(vertices, 3)
    r = len(vs)
    cons = delta_sequence(vs)
    checks = {"property_i": True, "property_ii": True, "property_iii": True}
    counterexample = None

    pair = [[0] * r for _ in range(r)]
    for i in range(r):
        for j in range(i + 1, r):
            pair[i][j] = delta(vs[i], vs[j])

    for i in range(r):
        for j in range(i + 1, r):
            if pair[i][j] != max(cons[i:j]):
                checks["property_ii"] = False
                counterexample = counterexample or {
                    "property": "II", "indices": (i, j),
                    "span": pair[i][j], "max": max(cons[i:j]),
                }
    for i in range(r):
        for j in range(i + 1, r):
            for k in range(j + 1, r):
                if pair[i][j] == pair[j][k]:
                    checks["property_i"] = False
                    counterexample = counterexample or {
                        "property": "I", "indices": (i, j, k),
                        "delta": pair[i][j],
                    }
    for i in range(r):
        for j in range(i + 1, r):
            for k in range(j + 1, r):
                if pair[i][j] <= pair[j][k]:
                    continue
                for l in range(k + 1, r):
                    if pair[i][j] == pair[k][l]:
                        checks["property_iii"] = False
                        counterexample = counterexample or {
                            "property": "III", "indices": (i, j, k, l),
                            "delta": pair[i][j],
                        }
    ok = all(checks.values())
    return PropertyReport(ok=ok, checks=checks, counterexample=counterexample)


# Vectorized forms.  Below 2**53 a vertex xor converts to float64 exactly,
# and the exponent field of the float is the delta; above that a
# bit-smearing cascade plus popcount stays exact for the full uint64 range.

_CHUNK = 1 << 16  # consecutive_deltas works in cache-sized slices


def delta_array(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Elementwise delta of two vertex arrays (broadcasting allowed)."""
    x = np.bitwise_xor(np.asarray(u, dtype=np.uint64), np.asarray(v, dtype=np.uint64))
    if (x == 0).any():
        raise EqualVertices("delta_array received an equal pair")
    return _msb(x)


def consecutive_deltas(q: np.ndarray) -> np.ndarray:
    """Delta sequence of a strictly increasing vertex array, as int8.

    Vertices have at most 64 bits, so every delta is at most 63.
    """
    q = np.asarray(q, dtype=np.uint64)
    if q.size < 2:
        raise TupleTooShort("need at least 2 vertices")
    out = np.empty(q.size - 1, dtype=np.int8)
    # a strictly increasing array ends at its maximum; any other array
    # raises MalformedTuple on either path
    if int(q[-1]) >= (1 << 53):
        if not (q[:-1] < q[1:]).all():
            raise MalformedTuple("vertex array must be strictly increasing")
        out[:] = _msb(np.bitwise_xor(q[:-1], q[1:]))
        return out
    # exact float64 path, one reused buffer set per cache-sized slice; below
    # 2^53 the xor is a non-negative int64, which converts faster than uint64
    x = np.empty(min(_CHUNK, out.size), dtype=np.uint64)
    f = np.empty(x.size, dtype=np.float64)
    order = np.empty(x.size, dtype=bool)
    for s in range(0, out.size, _CHUNK):
        e = min(s + _CHUNK, out.size)
        k = e - s
        lo, hi = q[s:e], q[s + 1:e + 1]
        if not np.less(lo, hi, out=order[:k]).all():
            raise MalformedTuple("vertex array must be strictly increasing")
        np.bitwise_xor(lo, hi, out=x[:k])
        np.copyto(f[:k], x[:k].view(np.int64), casting="unsafe")
        bits = f[:k].view(np.uint64)
        bits >>= np.uint64(52)
        np.subtract(bits, 1023, out=out[s:e], casting="unsafe")
    return out


def _msb(x: np.ndarray) -> np.ndarray:
    if x.size and int(x.max()) < (1 << 53):
        bits = x.astype(np.float64).view(np.uint64) >> np.uint64(52)
        return (bits.astype(np.int16) - 1023).astype(np.int16)
    y = x.copy()
    for s in (1, 2, 4, 8, 16, 32):
        y |= y >> np.uint64(s)
    return (np.bitwise_count(y).astype(np.int16) - 1)
