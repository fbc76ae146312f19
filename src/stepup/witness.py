"""Layered witness extraction: exhibit an edge inside any large vertex set.

Given a candidate independent set Q and a good-triple-free pair coloring,
the extractor makes the smallness of the independence number executable.
Either some layer of nested strict local maxima of delta(Q) contains a
monotone run of length n, whose good triple maps directly to a rule (i)
edge, or seven layers exist and a pigeonhole-pinned chain of anchor
positions produces a fixed list of candidate 4-tuples of which one must
be an edge.  Both branches return a validated EdgeWitness with a full
trace; every way the search can fail is a typed error.

Positions throughout index the delta sequence of Q: position p stands for
the consecutive pair (Q[p], Q[p+1]), so vertex indices p and p+1 are both
meaningful for any position p.
"""

from __future__ import annotations

import os
import re
import stat
from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

from .coloring import PairColoring, find_good_triple
from .delta import (
    PropertyReport,
    consecutive_deltas,
    delta_array,
    delta_sequence,
)
from .errors import (
    InsufficientLayers,
    InvalidD,
    InvalidN,
    InvalidParams,
    IoError,
    MalformedTuple,
    NeedMoreVertices,
    NoGoodTripleInRun,
    ProofGapTrap,
    SetTooSmall,
)
from .hypergraph import (
    EdgeWitness,
    StepUpHypergraph,
    _edge_witness_for,
    is_edge,
    is_independent,
)

__all__ = [
    "LayerStack",
    "MonotoneRun",
    "Anchors",
    "build_layers",
    "edge_from_monotone_run",
    "select_anchors",
    "extract_edge",
    "extract_with_layers",
    "verify_star_property",
    "guarantee_threshold",
    "random_subset",
    "save_q",
    "load_q",
]

LAYER_DEPTH = 7
SMALL_Q_DIRECT = 24  # below this, scanning all 4-subsets beats layering

# random_subset: draws of at least DENSE_MIN_SIZE vertices that fill at
# least 2^-DENSE_MAX_SPARSITY of the universe are marked on a bit map of
# the universe, which is then at most an eighth the size of the sorted
# result.
# Sparse draws (under that fill) from at least 2^STREAM_MIN_BITS vertices
# keep the first distinct values of an iid stream; smaller universes are
# permuted whole.
DENSE_MIN_SIZE = 1 << 20
DENSE_MAX_SPARSITY = 3
STREAM_MIN_BITS = 20
_MARK_CHUNK = 1 << 20     # vertices marked per window of the bit map
_UNPACK_CHUNK = 1 << 18   # vertices unpacked per window into Q

_Q_HEADER_RE = re.compile(rb"^STEPUP-Q v1 count=(\d+) bits=(\d+)\n")
_Q_HEADER_MAX = 256  # bytes of the first line a Q file header is read from


def guarantee_threshold(n: int) -> int:
    """Size of Q above which extraction failure is a defect, (2n)^7 + 1."""
    return (2 * n) ** 7 + 1


@dataclass
class MonotoneRun:
    """n consecutive positions of one layer with strictly monotone deltas."""

    layer: int
    positions: tuple[int, ...]
    direction: str  # "Increasing" | "Decreasing"
    values: tuple[int, ...]

    def as_dict(self) -> dict:
        return {
            "layer": self.layer,
            "positions": [int(p) for p in self.positions],
            "direction": self.direction,
            "values": [int(v) for v in self.values],
        }


@dataclass
class LayerStack:
    """Nested strict-local-maxima layers over the delta sequence of Q.

    layers[0] is every position; layers[t] holds the positions of delta
    values that are strict local maxima with respect to layers[t-1].
    A layer that is None is implicit: layer 0 means every position in
    [0, |Q| - 1), and any other the interior strict local maxima of the
    layer below, regenerated where it is read.  build_layers leaves
    layers 0, 1 and 2 implicit and stores layers 3-7 as int32 positions.
    The stack holds no deltas: the value at a position p is
    delta(Q[p], Q[p+1]), computed from Q where it is read, layer 0 window
    by window and a stored layer at its positions.  Every reader gets a
    layer, however it is held, in windows from _windows.  build_layers
    records the sizes of layers 1 and 2; a stack built by hand has an
    implicit layer's size counted from its windows.  beta gives the
    targets (|Q|-1)/(2n)^t as diagnostics only: the all-maxima policy
    makes each layer a superset of the first-beta_t prefix the counting
    argument reasons about, and observed sizes are recorded, not
    asserted.  verify_star_property raises InvalidParams on a stack with
    an explicit layer 0 or with a layer that does not strictly increase
    inside the one below.
    """

    q: np.ndarray
    layers: list[Optional[np.ndarray]]
    n: int
    # implicit layers' sizes as built, by layer; not copied by
    # dataclasses.replace
    _counted: dict = field(default_factory=dict, init=False, repr=False,
                           compare=False)

    @property
    def beta(self) -> tuple[float, ...]:
        return tuple((self.q.size - 1) / (2 * self.n) ** t
                     for t in range(LAYER_DEPTH + 1))

    @property
    def layer_sizes(self) -> list[int]:
        sizes = [self.q.size - 1]
        for t in range(1, len(self.layers)):
            P = _stored(self, t)
            if P is not None:
                sizes.append(P.size)
            elif t in self._counted:
                sizes.append(self._counted[t])
            else:
                sizes.append(sum(v.size for _, v in
                                 _windows(self, t, _STAR_CHUNK)))
        return sizes

    def beta_report(self) -> list[dict]:
        beta = self.beta
        return [{"layer": t, "size": size, "beta": beta[t],
                 "meets_beta": size >= beta[t]}
                for t, size in enumerate(self.layer_sizes)]

    def as_dict(self) -> dict:
        return {"size": int(self.q.size), "n": self.n,
                "layer_sizes": self.layer_sizes,
                "beta": [float(b) for b in self.beta]}


@dataclass
class Anchors:
    """Positions a, b1..b3, c..f pinned by the seven-layer argument.

    B1 and B3 are the pigeonhole pair (b_i, b_j) whose delta colors against
    delta_a agree; levels records the layer each anchor was drawn from.
    """

    a: int
    b1: int
    b2: int
    b3: int
    B1: int
    B3: int
    c: int
    d: int
    e: int
    f: int
    pigeonhole_pair: tuple[int, int]
    levels: dict
    deltas: dict

    def as_dict(self) -> dict:
        return {
            "a": self.a, "b1": self.b1, "b2": self.b2, "b3": self.b3,
            "B1": self.B1, "B3": self.B3,
            "c": self.c, "d": self.d, "e": self.e, "f": self.f,
            "pigeonhole_pair": list(self.pigeonhole_pair),
            "levels": {k: int(v) for k, v in self.levels.items()},
            "deltas": {k: int(v) for k, v in self.deltas.items()},
        }


def _as_vertex_array(Q) -> np.ndarray:
    q = np.asarray(Q, dtype=np.uint64)
    if q.ndim != 1:
        raise MalformedTuple("Q must be a one-dimensional vertex sequence")
    return q


def _find_run(up: np.ndarray, down: np.ndarray,
              n: int) -> Optional[tuple[int, str]]:
    """Leftmost window of n strictly monotone consecutive values, if any.

    up[i] and down[i] say whether value i+1 is above or below value i; a
    window starting at i is monotone iff the n-1 steps from i all go the
    same way.
    """
    best = None
    for steps, direction in ((up, "Increasing"), (down, "Decreasing")):
        window = _all_of_next(steps, n - 1)
        if window.size == 0:
            return None
        st = int(np.argmax(window))
        if window[st] and (best is None or st < best[0]):
            best = (st, direction)
    return best


def _all_of_next(flags: np.ndarray, length: int) -> np.ndarray:
    """out[i] = all(flags[i:i+length]), by doubling the window."""
    span = 1
    while 2 * span <= length:
        flags = flags[:-span] & flags[span:]
        span *= 2
    if span < length:
        flags = flags[:-(length - span)] & flags[length - span:]
    return flags


_SCAN_CHUNK = 1 << 16  # elements per window of the build
_STAR_CHUNK = 1 << 16  # elements per window of the star check and counts
_POSITION = np.int32   # dtype of the stored layers' positions
_FIRST_STORED = 3      # build_layers leaves the layers below this implicit


def _windows(stack: LayerStack, t: int, chunk: int,
             lo: Optional[int] = None, hi: Optional[int] = None):
    """Layer t's elements at positions in [lo, hi), in windows of at most
    chunk elements: (positions, values), the values the deltas there.

    The one place that knows how a layer is held.  Layer 0, implicit, is
    read in windows of consecutive positions, given by the first (see
    _at): the deltas of the window's pairs of Q, each window computed by
    consecutive_deltas from the slice of Q that holds them.  Any other
    implicit layer is regenerated: _Maxima over the layer below, read one
    element past each end of the range, that is, for layer 1 from one
    position before lo to one after hi, and above it from the nearest
    element left of lo to the nearest right of hi - 1 (_neighbor), or
    from the layer's start or to its end where there is none.  A stored
    layer is read in slices with the deltas taken there (_values).  A
    range end that is None means the layer's start or end (sorted or
    not).
    """
    P = _stored(stack, t)
    if P is not None:
        a = 0 if lo is None else _rank(P, lo)
        b = P.size if hi is None else _rank(P, hi)
        for s in range(a, b, chunk):
            rows = P[s:min(s + chunk, b)]
            yield rows, _values(stack, rows)
        return
    if t == 0:
        size = stack.q.size - 1
        lo = 0 if lo is None else max(lo, 0)
        hi = size if hi is None else min(hi, size)
        for s in range(lo, hi, chunk):
            e = min(s + chunk, hi)
            yield s, consecutive_deltas(stack.q[s:e + 1])
        return
    if t == 1:
        a = None if lo is None else lo - 1
        b = None if hi is None else hi + 1
    else:
        a = None if lo is None else _neighbor(stack, lo, t - 1, "left")
        b = None if hi is None else _neighbor(stack, hi - 1, t - 1, "right")
        b = None if b is None else b + 1
    yield from _Maxima(_windows(stack, t - 1, chunk, a, b))


def _values(stack: LayerStack, rows: np.ndarray) -> np.ndarray:
    """The deltas of Q's pairs at positions rows, clipped into layer 0,
    since a corrupted layer is read before it is refused."""
    q = stack.q
    rows = np.clip(rows, 0, q.size - 2)
    return delta_array(q.take(rows), q.take(rows + 1)).astype(np.int8)


def _stored(stack: LayerStack, t: int) -> Optional[np.ndarray]:
    """Layer t's position array, None for a layer left implicit, or
    InvalidParams unless it is a one-dimensional integer array."""
    P = stack.layers[t]
    if P is None:
        return None
    if not (isinstance(P, np.ndarray) and P.dtype.kind in "iu"
            and P.ndim == 1):
        raise InvalidParams(f"layer {t} is not an integer position array")
    return P


def _read(stack: LayerStack, t: int, lo: Optional[int] = None,
          hi: Optional[int] = None, chunk: int = _STAR_CHUNK) -> tuple:
    """The windows of _windows joined: layer t's positions and values."""
    parts = list(_windows(stack, t, chunk, lo, hi))
    if len(parts) == 1:
        return parts[0]
    if not parts:
        none = np.empty(0, _POSITION)
        return none, _values(stack, none)
    return (_join(None, [p for p, _ in parts], 0),
            np.concatenate([v for _, v in parts]))


def _at(pos, idx):
    """The positions at indices idx (an int or an index array) of a window
    whose positions are pos: an array, or the first of consecutive ones."""
    if not isinstance(pos, int):
        return pos[idx]
    if isinstance(idx, (int, np.integer)):
        return pos + int(idx)
    return np.add(idx, pos, dtype=_POSITION, casting="unsafe")


def _join(held, parts: list, c: int):
    """The positions of windows read behind c elements held before them,
    parts their positions; consecutive ones stay given by the first."""
    if isinstance(parts[0], int):
        return parts[0] - c
    return np.concatenate(([held] if c else []) + parts)


def _index(rows, P: np.ndarray) -> np.ndarray:
    """The indices positions P would have in a window whose positions are
    rows (see _at)."""
    if isinstance(rows, int):
        return np.subtract(P, rows, dtype=np.intp)
    return rows.searchsorted(P)


def _padded(windows, least: int = 1, pad: int = 1):
    """Disjoint windows of a layer, joined until least elements are new,
    as windows with pad more elements before and one after: (rows, win,
    c, e, at_end), positions, values, and the indices c..e-1 that are the
    window's own, each element's in one window.  The newest element,
    whose right neighbor is not read yet, is the next window's own,
    unless this is the last window, at_end."""
    windows = iter(windows)
    window = next(windows, None)
    held, c = None, 0   # what is kept of the last window; its first not own
    while window is not None:
        rows_in, wins_in, new = [], [], 0
        while window is not None and (not wins_in or new < least):
            rows_in.append(window[0])
            wins_in.append(window[1])
            new += window[1].size
            window = next(windows, None)
        n_held = 0 if held is None else held[1].size
        rows = _join(held and held[0], rows_in, n_held)
        win = np.concatenate(([held[1]] if n_held else []) + wins_in)
        at_end = window is None
        e = win.size if at_end else win.size - 1
        start = 0
        if e > c:
            yield rows, win, c, e, at_end
            c, start = e, max(e - pad, 0)
        # copies, so that the held elements do not keep the window
        held = (rows + start if isinstance(rows, int) else rows[start:].copy(),
                win[start:].copy())
        c -= start
        del rows, win   # not held while the next window is read


class _Maxima:
    """The filter from layer t to layer t + 1: iterating it yields, from
    windows of layer t, those of its interior strict local maxima.  Given
    a run length n, windows keep the n - 1 elements before them
    (_padded), and layer t's leftmost n strictly monotone consecutive
    elements are kept as run; the filter then yields no more but reads
    on, so that a filter it reads from finishes its own, lower layer,
    whose run comes first.  size counts layer t's elements.
    """

    def __init__(self, windows, n: Optional[int] = None, t: int = 0):
        self.windows, self.n, self.t = windows, n, t
        self.size = 0
        self.run: Optional[MonotoneRun] = None

    def __iter__(self):
        n = self.n
        for rows, win, c, e, _ in _padded(self.windows,
                                          pad=1 if n is None else n - 1):
            self.size += e - c
            if self.run is not None:
                continue
            up = win[1:] > win[:-1]
            down = win[1:] < win[:-1]
            hit = None if n is None else _find_run(up, down, n)
            if hit is not None:
                run = np.arange(hit[0], hit[0] + n)
                self.run = MonotoneRun(
                    layer=self.t, positions=tuple(int(p) for p in _at(rows, run)),
                    direction=hit[1], values=tuple(int(v) for v in win[run]))
                continue
            # own indices with a neighbor on each side
            lo, hi = max(c, 1), min(e, win.size - 1)
            top = np.flatnonzero(up[lo - 1:hi - 1] & down[lo:hi])
            top += lo
            out = _at(rows, top), win.take(top)
            del rows, win, up, down, top   # not held while out is read
            if out[1].size:
                yield out


def _store(windows, bound: int) -> tuple[np.ndarray, np.ndarray]:
    """The positions and values of windows, each written into one buffer
    of bound elements that is cut to length in place at the end:
    collecting the windows and concatenating them would hold the layer
    twice.  np.empty commits no pages that are never written."""
    pos = np.empty(max(bound, 0), _POSITION)
    vals = np.empty(pos.size, np.int8)
    kept = 0
    for P, V in windows:
        pos[kept:kept + P.size] = P
        vals[kept:kept + P.size] = V
        kept += P.size
    # no views of the buffers remain, so none can see the memory go
    pos.resize(kept, refcheck=False)
    vals.resize(kept, refcheck=False)
    return pos, vals


def _slices(pos: np.ndarray, vals: np.ndarray, chunk: int):
    """The windows of a layer as _store wrote it; the buffers are let go
    when the last is read."""
    for s in range(0, pos.size, chunk):
        yield pos[s:s + chunk], vals[s:s + chunk]


def build_layers(Q, n: int) -> Union[LayerStack, MonotoneRun]:
    """Grow local-maxima layers to depth 7, or stop at the first n-run.

    A strictly monotone run of n consecutive delta values short-circuits
    the whole construction, since it already carries an edge; a layer-t
    run wins only once no lower layer has one.  Layers collect ALL
    interior strict local maxima of the previous layer, a superset of the
    prefix the counting argument needs, which keeps the builder total for
    small Q as well.  The filter _Maxima is chained seven times: one read
    of Q runs layers 0, 1 and 2 through it, leaving all three implicit,
    and stores layer 3; each later read stores the next layer.  Q is read
    once: the stack holds no deltas, layer 0's are computed from Q window
    by window, and a read of a stored layer takes its values from what
    the read before wrote beside its positions, which are let go once
    read.  A Q that is not strictly increasing raises MalformedTuple from
    the window that shows it.  A layer of s elements has at most
    (s - 1) // 2 interior maxima.
    """
    if n < 3:
        raise InvalidN(f"run-length parameter must be >= 3, got {n}")
    q = _as_vertex_array(Q)
    if q.size < 2:
        raise SetTooSmall(f"need at least 2 vertices, got {q.size}")
    m = int(q.size)
    stack = LayerStack(q=q, layers=[None] * _FIRST_STORED, n=n)
    filters, below, bound = [], _windows(stack, 0, _SCAN_CHUNK), m - 1
    for t in range(1, LAYER_DEPTH + 1):
        filters.append(_Maxima(below, n, t - 1))
        bound = (bound - 1) // 2
        if t < _FIRST_STORED:   # an implicit layer straight from its filter
            below = filters[-1]
            continue
        pos, vals = _store(filters[-1], bound)
        stack.layers.append(pos)
        for f in filters:
            if f.run is not None:
                return f.run
        sizes = [f.size for f in filters] + [int(pos.size)]
        if 0 in sizes:
            k = sizes.index(0)
            raise InsufficientLayers(
                f"layer {k} came out empty: |Q| = {m} cannot sustain depth "
                f"{LAYER_DEPTH} and has no monotone run of length {n}",
                trace={"layer": k, "sizes": sizes[:k]})
        below, bound = _slices(pos, vals, _SCAN_CHUNK), sizes[-1]
        del pos, vals   # held by below until it is read
    stack._counted = {t: filters[t].size for t in range(1, _FIRST_STORED)}
    return stack


def edge_from_monotone_run(H: StepUpHypergraph, Q,
                           run: MonotoneRun) -> EdgeWitness:
    """Map a good triple among a monotone run's deltas to a rule (i) edge.

    Increasing run with the good triple at positions p < q < r gives
    (v_p, v_{p+1}, v_{q+1}, v_{r+1}); a decreasing run, whose values meet
    the triple in reverse, gives (v_p, v_q, v_r, v_{r+1}).  Property (*)
    plus the span property force the tuple's delta sequence to equal the
    triple in value order, which is re-measured before returning.
    """
    q = _as_vertex_array(Q)
    gt = find_good_triple(H.coloring, run.values)
    if gt is None:
        raise NoGoodTripleInRun(
            f"no good triple among run deltas {run.values}; the coloring "
            "is not certified at this scale",
            trace={"run": run.as_dict()})
    vals = list(run.values)
    if run.direction == "Increasing":
        p, qq, r = (run.positions[vals.index(v)] for v in (gt.a, gt.b, gt.c))
        vs = (int(q[p]), int(q[p + 1]), int(q[qq + 1]), int(q[r + 1]))
        expect = (gt.a, gt.b, gt.c)
    else:
        p, qq, r = (run.positions[vals.index(v)] for v in (gt.c, gt.b, gt.a))
        vs = (int(q[p]), int(q[qq]), int(q[r]), int(q[r + 1]))
        expect = (gt.c, gt.b, gt.a)
    trace = {"run": run.as_dict(), "good_triple": [gt.a, gt.b, gt.c],
             "mapped_positions": [int(p), int(qq), int(r)]}
    if delta_sequence(vs) != expect or not is_edge(H, vs):
        raise ProofGapTrap(
            f"run-mapped tuple {vs} should be a rule (i) edge with deltas "
            f"{expect} but is not; layering or span reasoning is broken",
            trace=trace)
    return _edge_witness_for(H, vs, branch="MonotoneRunBranch", trace=trace)


def _neighbor(stack: LayerStack, pos: int, level: int,
              side: str) -> Optional[int]:
    """The nearest position of layer `level` on `side` ("left" or "right")
    of pos, or None: by searchsorted in a stored layer, and in an implicit
    one by reading the layer outward from pos in ranges that double in
    length."""
    layer = _stored(stack, level)
    left = side == "left"
    if layer is not None:
        i = _rank(layer, pos) - 1 if left else _rank(layer, pos + 1)
        return int(layer[i]) if 0 <= i < layer.size else None
    size = stack.q.size - 1
    end, span = (pos if left else pos + 1), 64
    while 0 < end if left else end < size:
        lo, hi = ((max(end - span, 0), end) if left else
                  (end, min(end + span, size)))
        found, vals = _read(stack, level, lo, hi)
        if vals.size:
            return int(_at(found, vals.size - 1 if left else 0))
        end, span = (lo if left else hi), 2 * span
    return None


def _neighbor_in(stack: LayerStack, pos: int, level: int, side: str) -> int:
    """_neighbor, or InsufficientLayers where pos has none."""
    found = _neighbor(stack, pos, level, side)
    if found is None:
        raise InsufficientLayers(
            f"position {pos} has no {side} neighbor in layer {level}")
    return found


def _deltas_at(stack: LayerStack, at: dict) -> dict:
    """The deltas at the named positions of at, by the same names."""
    vals = _values(stack, np.array(list(at.values()), dtype=np.intp))
    return {k: int(v) for k, v in zip(at, vals)}


def _require_order(ok: bool, chain: str, at: dict, deltas: dict) -> None:
    """ProofGapTrap, with the chain's positions and deltas, unless ok."""
    if not ok:
        raise ProofGapTrap(f"{chain} positions or deltas out of order",
                           trace={"positions": at, "deltas": deltas})


def select_anchors(stack: LayerStack, phi: PairColoring) -> Anchors:
    """Pick the anchor chain a, b1..b3, c..f off a full 7-layer stack.

    All neighbor lookups go one layer below the element's own layer, so
    every strict-maximum element is interior there and the lookups cannot
    run off an end on a stack produced by build_layers.
    """
    if len(stack.layers) < LAYER_DEPTH + 1:
        raise InsufficientLayers(
            f"anchor selection needs {LAYER_DEPTH + 1} layers, stack has "
            f"{len(stack.layers)}")
    a = _neighbor_in(stack, -1, 7, "right")   # layer 7's first
    b1 = _neighbor_in(stack, a, 6, "left")
    b2 = _neighbor_in(stack, b1, 5, "right")
    b3 = _neighbor_in(stack, b2, 4, "right")
    top = {"a": a, "b1": b1, "b2": b2, "b3": b3}
    dl = _deltas_at(stack, top)
    _require_order(b1 < b2 < b3 < a
                   and dl["b3"] < dl["b2"] < dl["b1"] < dl["a"],
                   "anchor", top, dl)
    colors = [int(phi.color(dl[b], dl["a"])) for b in ("b1", "b2", "b3")]
    for i, j in ((1, 3), (1, 2), (2, 3)):
        if colors[i - 1] == colors[j - 1]:
            pair = (i, j)
            break
    bs = (b1, b2, b3)
    B1, B3 = bs[pair[0] - 1], bs[pair[1] - 1]
    ell = LAYER_DEPTH - pair[1]  # layer level of B3
    c = _neighbor_in(stack, B3, ell - 1, "left")
    d = _neighbor_in(stack, c, ell - 2, "right")
    e = _neighbor_in(stack, d, ell - 3, "left")
    f = _neighbor_in(stack, e, ell - 4, "right")
    chain = {"B3": B3, "c": c, "d": d, "e": e, "f": f}
    dc = _deltas_at(stack, chain)
    _require_order(c < e < f < d < B3
                   and dc["B3"] > dc["c"] > dc["d"] > dc["e"] > dc["f"],
                   "descent chain", chain, dc)
    dl.update(dc, B1=dl[f"b{pair[0]}"])
    levels = {"a": 7, "b1": 6, "b2": 5, "b3": 4, "B1": 7 - pair[0],
              "B3": ell, "c": ell - 1, "d": ell - 2, "e": ell - 3,
              "f": ell - 4}
    return Anchors(a=a, b1=b1, b2=b2, b3=b3, B1=B1, B3=B3,
                   c=c, d=d, e=e, f=f, pigeonhole_pair=pair, levels=levels,
                   deltas={k: dl[k] for k in levels})


def _anchor_candidates(A: Anchors) -> list[tuple[int, int, int, int]]:
    """The fixed candidate chain, as position tuples in proof order."""
    chain = []
    for x in (A.c, A.d, A.e, A.f):
        chain.append((x, x + 1, A.B3 + 1, A.a + 1))
        chain.append((A.B1, A.B3, A.B3 + 1, A.a + 1))
        chain.append((A.B1, x, x + 1, A.a + 1))
        chain.append((A.B1, x, x + 1, A.B3 + 1))
    chain += [
        (A.c, A.d, A.d + 1, A.B3 + 1),
        (A.c, A.e, A.e + 1, A.B3 + 1),
        (A.c, A.f, A.f + 1, A.B3 + 1),
        (A.e, A.f, A.f + 1, A.B3 + 1),
        (A.c, A.e, A.e + 1, A.d + 1),
        (A.c, A.f, A.f + 1, A.d + 1),
        (A.e, A.f, A.f + 1, A.d + 1),
    ]
    return chain


def extract_edge(H: StepUpHypergraph, Q, n: int) -> EdgeWitness:
    """Produce a validated edge inside Q, or fail with a typed reason.

    Small Q is scanned directly.  Otherwise build_layers either yields a
    monotone run (mapped through its good triple) or a 7-layer stack whose
    anchors give the candidate chain; the first candidate passing is_edge
    wins.  Failure on Q of at least (2n)^7 + 1 vertices with a certified
    coloring is impossible, so it raises the ProofGapTrap bug trap instead
    of NeedMoreVertices.  The witness holds no array: the layers are freed
    on return (extract_with_layers keeps them).
    """
    return extract_with_layers(H, Q, n)[0]


def extract_with_layers(
        H: StepUpHypergraph, Q, n: int,
) -> tuple[EdgeWitness, Union[LayerStack, MonotoneRun, None]]:
    """extract_edge, also handing back what build_layers built on the way.

    The second item is the LayerStack the anchor chain was read from, the
    MonotoneRun that was mapped to the edge, or None when Q was small
    enough to be scanned directly and nothing was built.
    """
    q = _as_vertex_array(Q)
    if q.size and int(q[-1]) >= H.vertex_count:
        raise MalformedTuple(
            f"Q contains vertices >= 2^{H.D}")
    if q.size < 4:
        raise SetTooSmall(f"need at least 4 vertices, got {q.size}")
    guaranteed = q.size >= guarantee_threshold(n)

    if q.size <= SMALL_Q_DIRECT:
        if n < 3:
            raise InvalidN(f"run-length parameter must be >= 3, got {n}")
        if not (q[:-1] < q[1:]).all():
            raise MalformedTuple("Q must be strictly increasing")
        wit = is_independent(H, q)
        if wit is None:
            raise NeedMoreVertices(
                f"|Q| = {q.size} is below the direct-scan threshold and "
                "spans no edge", trace={"size": int(q.size)})
        wit.trace = {"path": "small-q scan"}
        return wit, None

    try:
        built = build_layers(q, n)
    except InsufficientLayers as exc:
        if guaranteed:
            raise ProofGapTrap(
                f"layering failed on |Q| = {q.size} >= (2n)^7 + 1: "
                f"{exc}", trace=exc.trace) from exc
        raise NeedMoreVertices(
            f"layering failed: {exc}", trace=exc.trace) from exc

    if isinstance(built, MonotoneRun):
        return edge_from_monotone_run(H, q, built), built

    stack = built
    anchors = select_anchors(stack, H.coloring)
    tested = []
    for k, pos in enumerate(_anchor_candidates(anchors)):
        entry = {"index": k, "positions": [int(p) for p in pos]}
        if len(set(pos)) < 4:
            entry["verdict"] = "skipped"
            tested.append(entry)
            continue
        vs = tuple(int(stack.q[p]) for p in sorted(pos))
        verdict = is_edge(H, vs)
        entry["verdict"] = bool(verdict)
        tested.append(entry)
        if verdict:
            trace = {"stack": stack.as_dict(),
                     "beta_report": stack.beta_report(),
                     "anchors": anchors.as_dict(),
                     "candidates": tested}
            return _edge_witness_for(H, vs, branch="AnchorChainBranch",
                                     candidate_index=k, trace=trace), stack
    dump = {"stack": stack.as_dict(), "anchors": anchors.as_dict(),
            "candidates": tested}
    if guaranteed:
        raise ProofGapTrap(
            "all anchor-chain candidates failed on a Q large enough for "
            "the guarantee; this must be unreachable", trace=dump)
    raise NeedMoreVertices(
        f"anchor-chain candidates all failed on |Q| = {q.size} below the "
        f"guarantee threshold {guarantee_threshold(n)}", trace=dump)


# --- star property ------------------------------------------------------------
#
# Layers are checked bottom-up, so when layer t is read, layer t-1 already
# has the star property: every delta strictly between its positions k and
# k+1 is below max(d[k], d[k+1]), where d holds layer t-1's deltas at its
# own indices.  Three facts follow, and with them layer t is checked from
# d, never from the full delta sequence.
#
# - A dropped element at index l dominates its flanks (every delta from
#   the position of l-1 to that of l+1) iff d[l-1] < d[l] > d[l+1].
# - Call an interior index k with d[k] >= d[k-1] and d[k] >= d[k+1] a
#   peak.  If every peak is in layer t, no pair of consecutive layer-t
#   indices i < j fails the interior check.  For j = i+1 the star
#   property of layer t-1 dominates the deltas between them; for j > i+1
#   the largest of d[i+1..j-1] is no peak, so it is d[i+1] or d[j-1] and
#   below d[i] or d[j] in turn, which dominates the deltas in between.
# - A delta strictly between the positions of i and j reaches
#   max(d[i], d[j]) iff some d[k], i < k < j, does: a delta between the
#   positions of k and k+1 is below max(d[k], d[k+1]), so a k reaching it
#   is neither i nor j.  So a failing pair is found from d alone, and only
#   a peak left out of layer t (only corrupted deltas leave one out) makes
#   the check look for one.


def verify_star_property(stack: LayerStack) -> PropertyReport:
    """Check per-layer domination and dropped-element dominance.

    Within any layer t >= 1, consecutive positions a < b must have
    distinct deltas and dominate everything strictly between them.
    Between layers, an element of layer t absent from layer t+1 must
    still dominate the closed interval spanned by its layer t-1
    neighbors.  The first failure is reported, layer by layer in that
    order of checks; its position, for an undominated interior, is the
    first largest delta between the pair.

    The stack must have the shape build_layers makes: layer 0 implicit,
    and every other layer implicit or an integer array that strictly
    increases inside the one below.  Any other raises InvalidParams
    naming the first layer out of shape, whatever failure a lower layer
    holds.  An implicit layer is the strict maxima of the layer below,
    so it is always in shape.
    Layer t is checked from the deltas of layer t-1 (see the note above),
    in a cascade of one stage per layer (_LayerCheck) that reads every
    layer once, in windows, so that nothing the check holds grows with
    |Q|: layer 0's deltas are computed from Q window by window, and a Q
    that is not strictly increasing raises MalformedTuple.  This is an
    induction on t: a failure in layer t-1 is the one reported, and the
    layers above it then count only for their shape.
    Counting the peaks of layer t-1 inside layer t stands in for the
    interior check.  A build_layers stack has every peak in the layer
    above, since its layers hold every strict local maximum and a peak
    that is not strict has an equal neighbor, which the equal-deltas
    check of layer t-1 rules out (in layer 0, delta(x, y) != delta(y, z)
    for x < y < z).  When the count falls short, the first failing pair,
    if any, is found by a maximum over d between consecutive indices.
    """
    if stack.layers[0] is not None:
        raise InvalidParams(
            "layer 0 must be left implicit (None), as build_layers leaves it")
    stages, below = [], _windows(stack, 0, _STAR_CHUNK)
    for t in range(1, len(stack.layers)):
        below = _LayerCheck(stack, t, below)
        stages.append(below)
    for _ in below:
        pass
    for stage in stages:   # the lowest layer out of shape is named
        if stage.refused is not None:
            raise stage.refused
    checks = {"star_pairs": 0, "drop_dominance": 0}
    failure = None
    for stage, above in zip(stages, stages[1:] + [None]):
        failure = stage.failure(checks, above)
        if failure is not None:
            break
    return PropertyReport(ok=failure is None, checks=checks,
                          counterexample=failure)


def _rank(P: np.ndarray, key: int) -> int:
    """How many elements of the sorted integer array P are below key.

    One scalar searchsorted, with the key in P's own dtype, so that numpy
    does not convert P; a key outside that dtype's range is below or
    above every element.
    """
    try:
        key = P.dtype.type(key)
    except OverflowError:
        return 0 if key < 0 else int(P.size)
    return int(P.searchsorted(key))


class _LayerCheck:
    """The star check of layer t, one stage of the check's cascade.

    Iterating it reads layer t-1 in padded windows (_padded) of the
    windows below, joined to at least a quarter of _STAR_CHUNK elements.
    A stored layer t's positions are sliced up to the element after each
    window's own, and its values taken from the window at their indices
    there, so that Q is read only for layer 0; an implicit layer t is the
    window's own strict peaks, as the source would regenerate it.  It
    yields layer t as read: the windows below of the stage of layer t+1.
    A window's deltas give the count of layer t-1's peaks among its own
    elements and its strict peaks there.  On a stack as built, layer t's
    elements in the window are exactly the positions of the strict
    peaks.  Otherwise their indices are looked up in the window, and
    layer t must strictly increase inside the window's own elements.  A
    layer out of shape is kept as refused, an InvalidParams naming it,
    and ends the stage.  Layer t+1, which says which elements layer t
    drops, has its own stage, so one out of shape only leads here to a
    failure that is never reported.
    """

    def __init__(self, stack: LayerStack, t: int, below):
        self.stack, self.t, self.below = stack, t, below
        self.implicit = stack.layers[t] is None
        # layer t+1's positions; None where it is implicit
        self.nxt = np.empty(0, _POSITION)
        if t + 1 < len(stack.layers):
            try:
                self.nxt = _stored(stack, t + 1)
            except InvalidParams:
                pass
        self.refused: Optional[InvalidParams] = None
        self.size = self.peaks = self.taken = 0
        self.equal = self.flank = None   # (left, right), (position, left, right)
        self.first = self.final = None   # layer t-1's ends
        self.head = self.last = None     # layer t's first, last with its delta

    def __iter__(self):
        a = 0   # the index in a stored layer t of its first element not read
        try:
            for rows, win, c, e, at_end in _padded(self.below,
                                                   _STAR_CHUNK // 4):
                if self.first is None:
                    self.first = int(_at(rows, 0))
                if at_end:
                    self.final = int(_at(rows, win.size - 1))
                Pj = None
                if not self.implicit:   # up to the element after the own ones
                    P = _stored(self.stack, self.t)
                    b = P.size if at_end else _rank(P, _at(rows, e))
                    Pj, a = P[a:b], b
                Pj, vals = self._window(rows, win, c, e, Pj)
                del rows, win   # not held while the stage above reads
                if Pj.size:
                    self._equal(Pj, vals)
                    self.head = int(Pj[0]) if self.head is None else self.head
                    self.last = int(Pj[-1]), vals[-1]
                    self.size += Pj.size
                    yield Pj, vals
            P = _stored(self.stack, self.t)
            if P is not None and self.size != P.size:
                raise _unnested(self.t)
        except InvalidParams as exc:
            self.refused = exc

    def _equal(self, Pj: np.ndarray, vals: np.ndarray) -> None:
        """Keep layer t's first consecutive elements with equal deltas,
        across windows too."""
        if self.equal is None:
            if self.last is not None and vals[0] == self.last[1]:
                self.equal = self.last[0], int(Pj[0])
            else:
                k = _first(vals[1:] == vals[:-1])
                if k >= 0:
                    self.equal = int(Pj[k]), int(Pj[k + 1])

    def _window(self, rows, win, c: int, e: int, Pj) -> tuple:
        """Count a window's peaks and those among layer t's elements Pj,
        and keep its first undominated drop; layer t's positions and
        values in the window, which for an implicit layer (Pj None) are
        its own strict peaks.  The values are taken from the window, at
        Pj's indices there."""
        up = win[1:] > win[:-1]
        down = win[1:] < win[:-1]
        # window index i is a peak unless win[i] falls from i-1 or rises
        # to i+1; the window's ends hold no index of its own
        no_peak = down[:-1] | up[1:]
        self.peaks += no_peak.size - int(np.count_nonzero(no_peak))
        strict = np.zeros(win.size, dtype=bool)
        np.logical_and(up[:-1], down[1:], out=strict[1:-1])
        if Pj is None or not isinstance(rows, int):
            # the strict peaks' positions, compared; consecutive positions
            # find Pj's indices by subtraction instead
            rel = strict[c:e].nonzero()[0]
            rel += c
            if Pj is None:
                self.taken += rel.size
                return _at(rows, rel), win.take(rel)
            if rel.size == Pj.size and bool((rows[rel] == Pj).all()):
                self.taken += rel.size   # as in a build_layers stack
                return Pj, win.take(rel)
        rel = _located(Pj, rows, c, e, self.t)
        vals = win.take(rel)
        top = strict.take(rel)
        if top.all():
            self.taken += rel.size
            return Pj, vals
        # an end of layer t-1 is no peak; dropped, it fails the boundary
        # check, which comes first
        peak = np.zeros(win.size, dtype=bool)
        np.logical_not(no_peak, out=peak[1:-1])
        self.taken += int(np.count_nonzero(peak.take(rel)))
        if self.flank is None:
            weak = ~top & (rel > 0) & (rel < win.size - 1)
            lo, hi = int(Pj[0]), int(Pj[-1]) + 1
            nxt = self.nxt
            if nxt is None:   # regenerated over the window's span
                nxt = _read(self.stack, self.t + 1, lo, hi)[0]
            else:
                nxt = nxt[_rank(nxt, lo):_rank(nxt, hi)]
            weak &= ~np.isin(Pj, nxt)
            k = _first(weak)
            if k >= 0:
                r = int(rel[k])
                self.flank = (int(Pj[k]), int(_at(rows, r - 1)),
                              int(_at(rows, r + 1)))
        return Pj, vals

    def failure(self, checks: dict,
                above: Optional[_LayerCheck]) -> Optional[dict]:
        """Layer t's first failure, or None; its checks are counted.
        above is the stage of layer t+1, None for the top layer."""
        t, size = self.t, self.size
        kept = 0 if above is None else above.size
        if size >= 2:
            checks["star_pairs"] += size - 1
        if self.equal is not None:
            return {"check": "star", "layer": t, "left": self.equal[0],
                    "right": self.equal[1], "reason": "equal deltas"}
        if self.taken != self.peaks:
            pair = _first_undominated(self.stack, t)
            if pair is not None:
                return _undominated(self.stack, t, *pair)
        if size > kept:   # a longer layer t+1 is refused with it
            # only the ends can lack a neighbor below
            ends = (above.head, above.last[0]) if kept else (None, None)
            for mine, end, theirs in ((self.head, self.first, ends[0]),
                                      (self.last[0], self.final, ends[1])):
                if mine == end != theirs:
                    return {"check": "drop_dominance", "layer": t,
                            "position": end,
                            "reason": "element not interior to layer below"}
            checks["drop_dominance"] += size - kept
            if self.flank is not None:
                return {"check": "drop_dominance", "layer": t,
                        "position": self.flank[0], "left": self.flank[1],
                        "right": self.flank[2],
                        "reason": "neighborhood not dominated"}
        return None


def _first_undominated(stack: LayerStack, t: int) -> Optional[tuple[int, int]]:
    """The first consecutive positions of layer t with some delta of layer
    t-1 between them at least the larger of theirs, or None.  This is the
    failure-locating path, which reads layer t-1 again, in windows, and
    layer t over each window's span.  Layer t's last element so far, and
    the largest delta of layer t-1 since, are joined before the next
    window, so that a pair across windows is checked whole."""
    held_p, held_d = np.empty(0, _POSITION), np.empty(0, np.int8)
    for rows, d in _windows(stack, t - 1, _STAR_CHUNK):
        lo, hi = int(_at(rows, 0)), int(_at(rows, d.size - 1)) + 1
        P = _read(stack, t, lo, hi)[0]
        loc = np.concatenate((np.zeros(held_p.size, np.intp),
                              _index(rows, P) + held_d.size))
        P, d = np.concatenate((held_p, P)), np.concatenate((held_d, d))
        k = _first_undominated_pair(d, loc)
        if k >= 0:
            return int(P[k]), int(P[k + 1])
        if P.size:
            end = int(loc[-1])
            held_p = P[-1:]
            held_d = np.concatenate((d[end:end + 1],
                                     d[end + 1:].max(keepdims=True)
                                     if end + 1 < d.size else d[:0]))
    return None


def _undominated(stack: LayerStack, t: int, lo: int, hi: int) -> dict:
    """The interior failure of layer t's pair lo < hi, at the first
    largest delta between them, read in windows of layer 0."""
    x = top = None
    for s, v in _windows(stack, 0, _STAR_CHUNK, lo + 1, hi):
        k = int(np.argmax(v))
        if top is None or v[k] > top:
            x, top = s + k, v[k]
    return {"check": "star", "layer": t, "left": lo, "right": hi,
            "position": x, "reason": "interior delta not dominated"}


def _located(Pj: np.ndarray, rows, c: int, e: int, t: int) -> np.ndarray:
    """The window indices of layer-t positions Pj, looked up in the
    window's positions rows of layer t-1; InvalidParams unless they
    strictly increase inside the window's own indices c..e-1."""
    rel = _index(rows, Pj)
    if rel.size and not (rel[0] >= c and rel[-1] < e
                         and bool((rel[1:] > rel[:-1]).all())
                         # indices found by subtraction are exact
                         and (isinstance(rows, int) or (rows[rel] == Pj).all())):
        raise _unnested(t)
    return rel


def _unnested(t: int) -> InvalidParams:
    return InvalidParams(
        f"layer {t} does not strictly increase inside layer {t - 1}")


def _first_undominated_pair(d: np.ndarray, loc: np.ndarray) -> int:
    """First i with some d[k], loc[i] < k < loc[i+1], at least
    max(d[loc[i]], d[loc[i+1]]), or -1; read in slices of _STAR_CHUNK."""
    for j0 in range(0, loc.size - 1, _STAR_CHUNK):
        j1 = min(j0 + _STAR_CHUNK, loc.size - 1)
        a = loc[j0:j1].astype(np.intp)
        b = loc[j0 + 1:j1 + 1].astype(np.intp)
        gap = np.flatnonzero(b > a + 1)
        if gap.size == 0:
            continue
        a, b = a[gap], b[gap]
        idx = np.empty(2 * gap.size, dtype=np.intp)
        idx[0::2] = a + 1
        idx[1::2] = b
        # cut d after the last index, which would otherwise reduce to its end
        inner = np.maximum.reduceat(d[:b[-1] + 1], idx)[0::2]
        k = _first(inner >= np.maximum(d[a], d[b]))
        if k >= 0:
            return j0 + int(gap[k])
    return -1


def _first(flags: np.ndarray) -> int:
    return int(np.argmax(flags)) if flags.any() else -1


# --- Q generation and file I/O ------------------------------------------------

def random_subset(D: int, m: int, seed: int) -> np.ndarray:
    """m distinct vertices drawn uniformly from [0, 2^D), sorted.

    Dense draws (at least 2^20 vertices, filling at least an eighth of
    the universe) mark each vertex with probability m / 2^D, then add or
    remove uniformly chosen vertices until exactly m remain; given its
    size, an iid mark set is a uniform subset, so the result is a uniform
    m-subset.  Sparse draws (under an eighth of the universe) from at
    least 2^20 vertices keep the first m distinct values of an iid
    stream, which by exchangeability is also a uniform m-subset; all
    other draws go through a full permutation of the universe.
    """
    if not 2 <= D <= 64:
        raise InvalidD(f"need 2 <= D <= 64, got {D}")
    if not 1 <= m <= (1 << D):
        raise InvalidParams(f"cannot draw {m} distinct vertices from 2^{D}")
    rng = np.random.default_rng(seed)
    if m >= DENSE_MIN_SIZE and m << DENSE_MAX_SPARSITY >= 1 << D:
        return _dense_subset(rng, D, m)
    if D < STREAM_MIN_BITS or m << DENSE_MAX_SPARSITY >= 1 << D:
        out = rng.permutation(1 << D)[:m].astype(np.uint64)
        out.sort()
        return out
    return _stream_subset(rng, D, m)


def _stream_subset(rng: np.random.Generator, D: int, m: int) -> np.ndarray:
    """First m distinct values of an iid uniform stream over [0, 2^D), sorted.

    Each round draws exactly as many values as are still missing, so it
    cannot yield more new distinct values than are needed: every one is
    kept, and the set after each round is the distinct values of the
    stream so far.
    """
    def draw_distinct(k: int) -> np.ndarray:
        # sort and drop repeats: with numpy 2.4, np.unique takes about 80x
        # as long on two million values
        x = np.sort(rng.integers(0, 1 << D, size=k, dtype=np.uint64))
        return x[np.concatenate(([True], x[1:] != x[:-1]))]

    out = draw_distinct(m)
    while out.size < m:
        extra = draw_distinct(m - out.size)
        pos = np.searchsorted(out, extra)
        fresh = out[np.minimum(pos, out.size - 1)] != extra
        fresh |= pos == out.size
        out = np.insert(out, pos[fresh], extra[fresh])
    return out


def _dense_subset(rng: np.random.Generator, D: int, m: int) -> np.ndarray:
    """Uniform m-subset of [0, 2^D) marked on a bit map of the universe.

    Each vertex is marked when a 16-bit uniform falls below m / 2^D,
    rounded to 1/2^16.  The uniforms are the generator's raw 64-bit words
    read four to a word: for a fresh generator on a little-endian machine
    that is the stream of rng.bytes, with no copy (D >= 20 here, so every
    slice is a whole number of words).  Uniform draws then add or remove
    vertices until exactly m are marked, whatever the rounding.  Vertex v
    is bit v % 8 of byte v // 8, so the map takes 2^D / 8 bytes; it is
    unpacked window by window straight into the sorted vertex array.
    """
    N = 1 << D
    threshold = round(m / N * 65536)
    bits = np.empty(N // 8, dtype=np.uint8)
    marked = 0
    for s in range(0, N, _MARK_CHUNK):
        e = min(s + _MARK_CHUNK, N)
        draws = rng.bit_generator.random_raw((e - s) // 4).view(np.uint16)
        mark = draws < threshold
        marked += int(np.count_nonzero(mark))
        bits[s // 8:e // 8] = np.packbits(mark, bitorder="little")
    del draws, mark   # not held while Q is written
    surplus = marked - m
    # Uniform draws from [0, N) that land on the side being thinned pick
    # those vertices in a uniform order; flipping the first |surplus|
    # distinct hits removes (or adds) a uniform subset of that side.
    target = surplus > 0
    need = abs(surplus)
    while need:
        draw = rng.integers(0, N, size=4 * need + 64, dtype=np.int64)
        vals, first = np.unique(draw, return_index=True)
        on = ((bits[vals >> 3] >> (vals & 7)) & 1) == target
        hits = vals[on][np.argsort(first[on])][:need]
        # distinct hits flip distinct bits, several of a byte in turn
        np.bitwise_xor.at(bits, hits >> 3, (1 << (hits & 7)).astype(np.uint8))
        need -= hits.size
    q = np.empty(m, dtype=np.uint64)
    kept = 0
    for s in range(0, N, _UNPACK_CHUNK):
        found = np.flatnonzero(np.unpackbits(
            bits[s // 8:(s + _UNPACK_CHUNK) // 8], bitorder="little").view(bool))
        np.add(found, s, out=q[kept:kept + found.size], casting="unsafe")
        kept += found.size
    return q


def _increasing(q: np.ndarray) -> bool:
    """Whether q is strictly increasing, compared a window at a time so that
    no array the size of q is made."""
    for s in range(0, q.size - 1, _SCAN_CHUNK):
        e = min(s + _SCAN_CHUNK, q.size - 1)
        if not (q[s:e] < q[s + 1:e + 1]).all():
            return False
    return True


def save_q(q: np.ndarray, D: int, path) -> None:
    """Write Q as a STEPUP-Q v1 file, straight from the vertex array.

    What load_q would refuse is refused before the file is opened: a D
    that is not an integer in 2..64, an empty Q, and a Q that is not
    strictly increasing or holds a vertex outside [0, 2^D).
    """
    # no copy on a little-endian machine
    q = np.asarray(_as_vertex_array(q), dtype="<u8")
    if not (isinstance(D, (int, np.integer)) and 2 <= D <= 64):
        raise InvalidD(f"need an integer 2 <= D <= 64, got {D!r}")
    if q.size == 0:
        raise SetTooSmall("Q must hold at least one vertex")
    if not _increasing(q):
        raise MalformedTuple("Q must be strictly increasing")
    if int(q[-1]) >= 1 << int(D):
        raise MalformedTuple(f"vertex {int(q[-1])} outside [0, 2^{D})")
    header = f"STEPUP-Q v1 count={q.size} bits={D}\n".encode("ascii")
    with open(path, "wb") as fh:
        fh.write(header)
        q.tofile(fh)


def load_q(path) -> tuple[np.ndarray, int]:
    """Read a STEPUP-Q v1 file into one array, checked as loaded.

    The header line is read first, and the file's size must match its
    count before the vertices are read straight into their array, so
    that neither a false count nor trailing bytes make the load hold
    more than Q.
    """
    with open(path, "rb") as fh:
        m = _Q_HEADER_RE.match(fh.readline(_Q_HEADER_MAX))
        if not m:
            raise IoError(f"{path}: not a STEPUP-Q v1 file")
        count, D = int(m.group(1)), int(m.group(2))
        if not 2 <= D <= 64:
            raise IoError(f"{path}: bad bits={D}")
        st = os.fstat(fh.fileno())
        if not stat.S_ISREG(st.st_mode):
            raise IoError(f"{path}: not a regular file")
        size = st.st_size - fh.tell()
        if size != 8 * count:
            raise IoError(
                f"{path}: expected {8 * count} vertex bytes, got {size}")
        q = np.fromfile(fh, dtype="<u8", count=count)
    q = q.astype(np.uint64, copy=False)
    if count == 0:
        raise IoError(f"{path}: empty vertex list")
    if not _increasing(q):
        raise IoError(f"{path}: vertices not strictly increasing")
    if int(q[-1]) >= (1 << D):
        raise IoError(f"{path}: vertex {int(q[-1])} outside [0, 2^{D})")
    return q, D
