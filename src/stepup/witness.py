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
from .delta import PropertyReport, consecutive_deltas, delta_sequence
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
# least 2^-DENSE_MAX_SPARSITY of the universe are marked on a byte map of
# the universe, which is then no larger than the sorted result.
# Sparse draws (under that fill) from at least 2^STREAM_MIN_BITS vertices
# keep the first distinct values of an iid stream; smaller universes are
# permuted whole.
DENSE_MIN_SIZE = 1 << 20
DENSE_MAX_SPARSITY = 3
STREAM_MIN_BITS = 20
_MARK_CHUNK = 1 << 20

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
    build_layers leaves layers[0] and layers[1] as None: layer 0 means
    every position in [0, deltas.size), and layer 1 the interior strict
    local maxima of the deltas, which its readers find in windows of the
    deltas (_layer1) without storing them.  build_layers records layer
    1's size; a stack built by hand with layers[1] None has it counted
    from its deltas.  beta keeps the targets
    (m-1)/(2n)^t as diagnostics only: the all-maxima policy makes each
    layer a superset of the first-beta_t prefix the counting argument
    reasons about, and observed sizes are recorded, not asserted.
    verify_star_property raises InvalidParams on a stack with an explicit
    layer 0 or with a layer that does not strictly increase inside the
    one below.
    """

    q: np.ndarray
    deltas: np.ndarray
    layers: list[Optional[np.ndarray]]
    n: int
    beta: tuple[float, ...]
    # layer 1's size as built; not copied by dataclasses.replace
    _layer1_size: Optional[int] = field(default=None, init=False,
                                        repr=False, compare=False)

    @property
    def layer_sizes(self) -> list[int]:
        sizes = [self.deltas.size]
        for layer in self.layers[1:]:
            if layer is not None:
                sizes.append(int(layer.size))
            elif self._layer1_size is not None:
                sizes.append(self._layer1_size)
            else:
                sizes.append(sum(
                    _layer1(self.deltas, s, s + _STAR_CHUNK).size
                    for s in range(0, self.deltas.size, _STAR_CHUNK)))
        return sizes

    def beta_report(self) -> list[dict]:
        out = []
        for t, size in enumerate(self.layer_sizes):
            target = self.beta[t] if t < len(self.beta) else 0.0
            out.append({"layer": t, "size": size, "beta": target,
                        "meets_beta": size >= target})
        return out

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


_SCAN_CHUNK = 1 << 16  # layers are scanned in cache-sized slices


def _layer1(deltas: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """Layer 1's positions in [lo, hi): the interior strict local maxima
    of the deltas there, read with one delta on each side.

    Every reader of an implicit layer 1 gets it from here, window by
    window; only the star check's failure-locating path asks for all of
    it at once.
    """
    a, b = max(lo - 1, 0), min(hi + 1, deltas.size)
    v = deltas[a:b]
    p = np.flatnonzero((v[1:-1] > v[:-2]) & (v[1:-1] > v[2:]))
    p += a + 1
    return p


def _scan_slice(vals: np.ndarray, s: int, n: int):
    """The slice of vals from s, _SCAN_CHUNK long, read with the value
    before it and the n-1 after it: (hit, lo, v, peak).  hit is the
    leftmost window of n strictly monotone values that starts in the
    slice, as (start, direction), or None.  v is vals[lo:...], and peak,
    unless there is a hit, the indices into v of the slice's interior
    strict local maxima."""
    size = vals.size
    e = min(s + _SCAN_CHUNK, size)
    lo = max(s - 1, 0)
    v = vals[lo:min(e + n - 1, size)]
    up = v[1:] > v[:-1]
    down = v[1:] < v[:-1]
    hit = _find_run(up[s - lo:], down[s - lo:], n)
    if hit is not None:
        return (s + hit[0], hit[1]), lo, v, None
    # a rise into the value v[j+1] and a fall out of it, for j + 1 in
    # s..e-1 and below the last value
    j_end = max(min(e - lo - 1, up.size - 1), 0)
    peak = np.flatnonzero(up[:j_end] & down[1:j_end + 1])
    peak += 1
    return None, lo, v, peak


def _monotone_run(layer: int, pos, direction: str,
                  deltas: np.ndarray) -> MonotoneRun:
    return MonotoneRun(layer=layer, positions=tuple(int(p) for p in pos),
                       direction=direction,
                       values=tuple(int(v) for v in deltas[pos]))


def _scan_base(deltas: np.ndarray, n: int):
    """Layers 0 and 1 in one scan of the deltas, slice by slice.

    Returns (run, size1, positions, values).  run is the leftmost n-run
    of layer 0 or, if layer 0 has none, of layer 1, else None; size1 is
    layer 1's size; positions and values are layer 2, the interior strict
    maxima of layer 1.  The deltas are read slice by slice (_scan_slice),
    as _scan_layer reads a layer.  The layer-1 elements a slice finds are
    scanned behind the n - 1 before them, for runs that end at one of
    them and maxima just left of one, so that runs and maxima across
    slices are seen and layer 1 is never held whole.  A layer-1 run waits
    for the deltas to be read to their end, since a run in layer 0
    anywhere comes first.
    """
    size = deltas.size
    # Layer 2 has at most (|layer 1| - 1) // 2 elements and layer 1 at
    # most (size - 1) // 2; np.empty commits no pages that are never
    # written, and the buffers are cut to length in place at the end.
    bound = max(((size - 1) // 2 - 1) // 2, 0)
    kept_pos = np.empty(bound, np.int32)
    kept_vals = np.empty(bound, deltas.dtype)
    kept = size1 = 0
    run = None
    tail_pos, tail_vals = np.empty(0, np.int32), deltas[:0]
    for s in range(0, size, _SCAN_CHUNK):
        hit, lo, v, peak = _scan_slice(deltas, s, n)
        if hit is not None:
            pos = np.arange(hit[0], hit[0] + n)
            return _monotone_run(0, pos, hit[1], deltas), 0, None, None
        size1 += peak.size
        if run is not None or peak.size == 0:
            continue
        vals = np.concatenate((tail_vals, v.take(peak)))
        peak += lo
        pos = np.concatenate((tail_pos, peak), dtype=np.int32)
        up = vals[1:] > vals[:-1]
        down = vals[1:] < vals[:-1]
        hit = _find_run(up, down, n)
        if hit is not None:
            run = _monotone_run(1, pos[hit[0]:hit[0] + n], hit[1], deltas)
            continue
        # maxima whose right neighbor is new; layer 1's first is none
        first = max(tail_pos.size - 1, 1)
        top = np.flatnonzero(up[first - 1:-1] & down[first:])
        top += first
        end = kept + top.size
        np.take(vals, top, out=kept_vals[kept:end])
        np.take(pos, top, out=kept_pos[kept:end])
        kept = end
        tail_pos, tail_vals = pos[1 - n:], vals[1 - n:]
    if run is not None:
        return run, size1, None, None
    for buf in (kept_pos, kept_vals):
        # no views of the buffers remain, so none can see the memory go
        buf.resize(kept, refcheck=False)
    return None, size1, kept_pos, kept_vals


def _scan_layer(layer: np.ndarray, vals: np.ndarray, n: int):
    """One stored layer's leftmost monotone n-run, or its strict maxima.

    vals holds the deltas at the layer's positions.  Returns ("run",
    start, direction) for the leftmost window of n strictly monotone
    values, else ("maxima", positions, values) for the interior strict
    local maxima.  Each slice of values is read with the n-1 that follow
    it and the one before it, so runs and maxima that straddle a slice
    boundary are still seen, and earlier slices are done first.
    """
    size = vals.size
    # Interior strict maxima are never adjacent, so at most (size - 1) // 2
    # of them fill buffers that are cut to length in place at the end:
    # collecting slices and concatenating them would hold every maximum
    # twice.
    bound = max((size - 1) // 2, 0)
    kept_pos = np.empty(bound, layer.dtype)
    kept_vals = np.empty(bound, vals.dtype)
    kept = 0
    for s in range(0, size, _SCAN_CHUNK):
        hit, lo, v, peak = _scan_slice(vals, s, n)
        if hit is not None:
            return "run", hit[0], hit[1]
        end = kept + peak.size
        np.take(v, peak, out=kept_vals[kept:end])
        peak += lo
        np.take(layer, peak, out=kept_pos[kept:end])
        kept = end
    for buf in (kept_pos, kept_vals):
        buf.resize(kept, refcheck=False)
    return "maxima", kept_pos, kept_vals


def build_layers(Q, n: int) -> Union[LayerStack, MonotoneRun]:
    """Grow local-maxima layers to depth 7, or stop at the first n-run.

    Scans each layer left to right before condensing it: a strictly
    monotone run of n consecutive delta values short-circuits the whole
    construction, since it already carries an edge.  Layers collect ALL
    interior strict local maxima of the previous layer, a superset of the
    prefix the counting argument needs, which keeps the builder total for
    small Q as well.  Layers 0 and 1 are read in one scan of the deltas
    and left implicit; layers 2 to 7 are stored.
    """
    if n < 3:
        raise InvalidN(f"run-length parameter must be >= 3, got {n}")
    q = _as_vertex_array(Q)
    if q.size < 2:
        raise SetTooSmall(f"need at least 2 vertices, got {q.size}")
    deltas = consecutive_deltas(q)
    m = int(q.size)
    beta = tuple((m - 1) / (2 * n) ** t for t in range(LAYER_DEPTH + 1))
    run, size1, found, vals = _scan_base(deltas, n)
    if run is not None:
        return run
    layers, sizes = [None], [deltas.size]
    for t in range(1, LAYER_DEPTH + 1):
        if t > 2:
            kind, found, extra = _scan_layer(layers[-1], vals, n)
            if kind == "run":
                pos = layers[-1][found:found + n]
                return _monotone_run(t - 1, pos, extra, deltas)
            vals = extra
        size = size1 if t == 1 else int(found.size)
        if size == 0:
            raise InsufficientLayers(
                f"layer {t} came out empty: |Q| = {m} cannot sustain depth "
                f"{LAYER_DEPTH} and has no monotone run of length {n}",
                trace={"layer": t, "sizes": sizes})
        sizes.append(size)
        layers.append(None if t == 1 else found)
    stack = LayerStack(q=q, deltas=deltas, layers=layers, n=n, beta=beta)
    stack._layer1_size = size1
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


def _neighbor_in(stack: LayerStack, pos: int, level: int, side: str) -> int:
    """The nearest position of layer `level` on `side` ("left" or "right")
    of pos.  An implicit layer 0 holds every position; an implicit layer
    1 is read outward from pos in windows that double in length."""
    layer = stack.layers[level]
    size = stack.deltas.size
    if layer is not None:
        # a key of the layer's own dtype keeps numpy from converting it
        i = int(np.searchsorted(layer, layer.dtype.type(pos), side=side))
        i -= side == "left"
        if 0 <= i < layer.size:
            return int(layer[i])
    elif level == 0:
        i = pos + 1 if side == "right" else pos - 1
        if 0 <= i < size:
            return i
    elif side == "left":
        hi, span = pos, 64
        while hi > 0:
            lo = max(hi - span, 0)
            found = _layer1(stack.deltas, lo, hi)
            if found.size:
                return int(found[-1])
            hi, span = lo, 2 * span
    else:
        lo, span = pos + 1, 64
        while lo < size:
            hi = min(lo + span, size)
            found = _layer1(stack.deltas, lo, hi)
            if found.size:
                return int(found[0])
            lo, span = hi, 2 * span
    raise InsufficientLayers(
        f"position {pos} has no {side} neighbor in layer {level}")


def _require_order(ok: bool, chain: str, dl: np.ndarray, **at: int) -> None:
    """ProofGapTrap, with the chain's positions and deltas, unless ok."""
    if not ok:
        raise ProofGapTrap(
            f"{chain} positions or deltas out of order",
            trace={"positions": at,
                   "deltas": {k: int(dl[p]) for k, p in at.items()}})


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
    dl = stack.deltas
    a = int(stack.layers[7][0])
    b1 = _neighbor_in(stack, a, 6, "left")
    b2 = _neighbor_in(stack, b1, 5, "right")
    b3 = _neighbor_in(stack, b2, 4, "right")
    _require_order(b1 < b2 < b3 < a and dl[b3] < dl[b2] < dl[b1] < dl[a],
                   "anchor", dl, a=a, b1=b1, b2=b2, b3=b3)
    colors = [int(phi.color(int(dl[b]), int(dl[a]))) for b in (b1, b2, b3)]
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
    _require_order(c < e < f < d < B3
                   and dl[B3] > dl[c] > dl[d] > dl[e] > dl[f],
                   "descent chain", dl, B3=B3, c=c, d=d, e=e, f=f)
    names = {"a": a, "b1": b1, "b2": b2, "b3": b3,
             "B1": B1, "B3": B3, "c": c, "d": d, "e": e, "f": f}
    levels = {"a": 7, "b1": 6, "b2": 5, "b3": 4, "B1": 7 - pair[0],
              "B3": ell, "c": ell - 1, "d": ell - 2, "e": ell - 3,
              "f": ell - 4}
    return Anchors(a=a, b1=b1, b2=b2, b3=b3, B1=B1, B3=B3,
                   c=c, d=d, e=e, f=f, pigeonhole_pair=pair, levels=levels,
                   deltas={k: int(dl[v]) for k, v in names.items()})


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
    layer 1 implicit or an array, and each layer an integer array that
    strictly increases inside the one below.  Any other raises
    InvalidParams naming the first layer out of shape, whatever failure a
    lower layer holds.
    Layer t is checked from the deltas of layer t-1 (see the note above),
    window by window (see _check_layer), so that nothing the check holds
    grows with |Q|.  This is an induction on t: a failure in layer t-1 is
    the one reported, and the layers above it are then only checked for
    shape.  Counting the peaks of layer t-1 inside layer t stands in for
    the interior check.  A build_layers stack has every peak in the layer
    above, since its layers hold every strict local maximum and a peak
    that is not strict has an equal neighbor, which the equal-deltas
    check of layer t-1 rules out (in layer 0, delta(x, y) != delta(y, z)
    for x < y < z).  When the count falls short, the first failing pair,
    if any, is found by a maximum over d between consecutive indices.
    An implicit layer 1 and layer 2 are checked in one walk over the
    deltas (_Layer1Walk).
    """
    if stack.layers[0] is not None:
        raise InvalidParams(
            "layer 0 must be left implicit (None), as build_layers leaves it")
    checks = {"star_pairs": 0, "drop_dominance": 0}
    failure = None
    start = 1
    if len(stack.layers) > 1 and stack.layers[1] is None:
        walk = _Layer1Walk(stack.deltas)
        above = dict(checks)
        found = None
        if len(stack.layers) > 2:
            found = _check_layer(stack, 2, above, True, walk.windows())
        else:
            for _ in walk.windows():
                pass
        failure = walk.failure(stack, checks)
        if failure is None:
            # a failure in layer 1 leaves layer 2 checked for shape only
            failure = found
            for key, count in above.items():
                checks[key] += count
        start = 3
    for t in range(start, len(stack.layers)):
        found = _check_layer(stack, t, checks, failure is None,
                             _windows(stack.deltas, stack.layers[t - 1]))
        failure = failure or found
    return PropertyReport(ok=failure is None, checks=checks,
                          counterexample=failure)


_STAR_CHUNK = 1 << 16  # indices of the layer below per window of the star check


def _positions(stack: LayerStack, t: int) -> np.ndarray:
    """Layer t, or InvalidParams unless it is a one-dimensional integer
    array."""
    P = stack.layers[t]
    if not (isinstance(P, np.ndarray) and P.dtype.kind in "iu"
            and P.ndim == 1):
        raise InvalidParams(f"layer {t} is not an integer position array")
    return P


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


def _windows(deltas: np.ndarray, below: Optional[np.ndarray]):
    """A stored layer, or an implicit layer 0 (None), in windows of
    _STAR_CHUNK consecutive indices c..e-1, with one more index on each
    side: (c, e, base, rows, win, at_end).  rows holds the layer's
    positions at indices base..base + win.size - 1, or is None for layer
    0, whose indices are its positions; win holds the deltas there."""
    bound = deltas.size if below is None else below.size
    for c in range(0, bound, _STAR_CHUNK):
        e = min(c + _STAR_CHUNK, bound)
        base, end = max(c - 1, 0), min(e + 1, bound)
        if below is None:
            yield c, e, base, None, deltas[base:end], e == bound
        else:
            rows = below[base:end]
            yield c, e, base, rows, deltas.take(rows), e == bound


class _Layer1Walk:
    """An implicit layer 1, read from the deltas in windows of _STAR_CHUNK
    positions, checked on the way, and handed on in windows of its own
    indices for the check of layer 2.

    Its elements are the strict peaks of layer 0, so the only failures
    it can hold are equal deltas at consecutive elements and, where some
    delta equals a neighbor, a peak of layer 0 left out of it; its ends
    are interior to layer 0 and every element it drops is a strict peak,
    so no drop fails.
    """

    def __init__(self, deltas: np.ndarray):
        self.deltas = deltas
        self.size = 0
        self.equal = None     # the first consecutive positions with equal deltas
        self.plateau = False  # some window holds a peak that is not strict

    def windows(self):
        """Layer 1 in windows as _windows gives them.  A window ends at
        the element before the newest, whose right neighbor is not read
        yet, except the last, which ends at layer 1's end."""
        d = self.deltas
        held_pos, held_val = np.empty(0, np.intp), d[:0]
        for s in range(0, d.size, _STAR_CHUNK):
            e = min(s + _STAR_CHUNK, d.size)
            pos = _layer1(d, s, e)
            if not self.plateau:
                v = d[max(s - 1, 0):e + 1]
                self.plateau = bool((v[1:] == v[:-1]).any()) and bool(
                    pos.size < np.count_nonzero(
                        (v[1:-1] >= v[:-2]) & (v[1:-1] >= v[2:])))
            at_end = e == d.size
            if pos.size == 0 and not at_end:
                continue
            val = d.take(pos)
            if self.equal is None and pos.size:
                if held_val.size and held_val[-1] == val[0]:
                    self.equal = int(held_pos[-1]), int(pos[0])
                else:
                    k = _first(val[1:] == val[:-1])
                    if k >= 0:
                        self.equal = int(pos[k]), int(pos[k + 1])
            rows = np.concatenate((held_pos, pos))
            win = np.concatenate((held_val, val))
            c, base = max(self.size - 1, 0), max(self.size - 2, 0)
            self.size += pos.size
            stop = self.size if at_end else self.size - 1
            if stop > c:
                yield c, stop, base, rows, win, at_end
            held_pos, held_val = rows[-2:], win[-2:]

    def failure(self, stack: LayerStack, checks: dict) -> Optional[dict]:
        """Layer 1's first failure, once windows() has been read through;
        checks are counted as _check_layer counts them."""
        if self.size >= 2:
            checks["star_pairs"] += self.size - 1
        if self.equal is not None:
            return {"check": "star", "layer": 1, "left": self.equal[0],
                    "right": self.equal[1], "reason": "equal deltas"}
        if self.plateau:
            # the failure-locating path, the one read of all of layer 1
            P = _layer1(self.deltas, 0, self.deltas.size)
            k = _first_undominated_pair(self.deltas, P)
            if k >= 0:
                return _undominated(self.deltas, 1, int(P[k]), int(P[k + 1]))
        nxt = stack.layers[2].size if len(stack.layers) > 2 else 0
        if self.size > nxt:
            checks["drop_dominance"] += self.size - nxt
        return None


def _check_layer(stack: LayerStack, t: int, checks: dict, star: bool,
                 windows) -> Optional[dict]:
    """Layer t's first failure of the star property, or None.

    Layer t-1 is read in the windows given (see _windows), of indices
    c..e-1 with one more index on each side; the next window starts at
    e.  A window's deltas give the count of layer t-1's peaks at c..e-1
    and its strict peaks there.  The layer-t positions in the window are
    those below the position of index e, found by one scalar
    searchsorted.  On a stack as built they are exactly the positions of
    the strict peaks, which give their indices once layer t-1's positions
    there are seen to equal them.  Otherwise (in layer 1 over an implicit
    layer 0, or on a corrupted stack) the indices are read off or looked
    up in the window, and layer t must strictly increase inside c..e-1,
    or InvalidParams names it.  With star false, only that is checked.
    Layer t+1, which says which elements layer t drops, is checked when
    it is reached, so one out of shape only leads here to a failure that
    is never reported.
    """
    deltas = stack.deltas
    P = _positions(stack, t)
    nxt = P[:0]
    if t + 1 < len(stack.layers):
        try:
            nxt = _positions(stack, t + 1)
        except InvalidParams:
            pass
    peaks = taken = 0
    equal = flank = -1
    flank_at = first = final = None   # positions in layer t-1
    last = None
    j0 = 0
    for c, e, base, rows, win, at_end in windows:
        if c == 0:
            first = base if rows is None else int(rows[0])
        if at_end:
            final = base + win.size - 1 if rows is None else int(rows[-1])
        j1 = P.size if at_end else _rank(
            P, e if rows is None else int(rows[e - base]))
        if j1 < j0:
            raise _unnested(t)
        Pj = P[j0:j1]
        if not star:
            _located(Pj, rows, base, c, e, t)
            j0 = j1
            continue
        up = win[1:] > win[:-1]
        down = win[1:] < win[:-1]
        # window index i is a peak unless win[i] falls from i-1 or rises
        # to i+1; the window's ends hold no index of its own
        no_peak = down[:-1] | up[1:]
        peaks += no_peak.size - int(np.count_nonzero(no_peak))
        strict = np.zeros(win.size, dtype=bool)
        np.logical_and(up[:-1], down[1:], out=strict[1:-1])
        matched = False
        if rows is not None:
            rel = strict[c - base:e - base].nonzero()[0]
            rel += c - base
            matched = (rel.size == Pj.size
                       and bool((rows.take(rel) == Pj).all()))
        if not matched:
            rel = _located(Pj, rows, base, c, e, t)
            top = strict.take(rel)
            matched = bool(top.all())
        if matched:
            taken += rel.size   # as in a build_layers stack
        else:
            # an end of layer t-1 is no peak; dropped, it fails the
            # boundary check, which comes first
            peak = np.zeros(win.size, dtype=bool)
            np.logical_not(no_peak, out=peak[1:-1])
            taken += int(np.count_nonzero(peak.take(rel)))
            if flank < 0:
                weak = ~top & (rel > 0) & (rel < win.size - 1)
                lo = _rank(nxt, int(Pj[0]))
                hi = _rank(nxt, int(Pj[-1]) + 1)
                weak &= ~np.isin(Pj, nxt[lo:hi])
                k = _first(weak)
                if k >= 0:
                    r = int(rel[k])
                    flank = j0 + k
                    flank_at = ((base + r - 1, base + r + 1) if rows is None
                                else (int(rows[r - 1]), int(rows[r + 1])))
        if equal < 0 and rel.size:
            dj = win.take(rel)
            if last is not None and dj[0] == last:
                equal = j0 - 1
            else:
                k = _first(dj[1:] == dj[:-1])
                equal = j0 + k if k >= 0 else -1
            last = dj[-1]
        j0 = j1
    if j0 < P.size:
        raise _unnested(t)  # an empty layer t-1 holds no index
    if not star:
        return None
    if P.size >= 2:
        checks["star_pairs"] += int(P.size - 1)
    if equal >= 0:
        return {"check": "star", "layer": t, "left": int(P[equal]),
                "right": int(P[equal + 1]), "reason": "equal deltas"}
    if taken != peaks:
        # the failure-locating read is the one of all layer t-1's deltas,
        # with every index of layer t in it
        below = stack.layers[t - 1]
        if below is None and t == 2:
            below = _layer1(deltas, 0, deltas.size)
        k = (_first_undominated_pair(deltas, P) if below is None else
             _first_undominated_pair(deltas[below],
                                     np.searchsorted(below, P)))
        if k >= 0:
            return _undominated(deltas, t, int(P[k]), int(P[k + 1]))
    n_drop = P.size - nxt.size
    if n_drop > 0:   # a longer layer t+1 is refused with it
        # only the ends can lack a neighbor below
        if P[0] == first and not (nxt.size and nxt[0] == P[0]):
            return _boundary_failure(t, int(P[0]))
        if P[-1] == final and not (nxt.size and nxt[-1] == P[-1]):
            return _boundary_failure(t, int(P[-1]))
        checks["drop_dominance"] += n_drop
        if flank >= 0:
            return {"check": "drop_dominance", "layer": t,
                    "position": int(P[flank]), "left": flank_at[0],
                    "right": flank_at[1],
                    "reason": "neighborhood not dominated"}
    return None


def _undominated(deltas: np.ndarray, t: int, lo: int, hi: int) -> dict:
    """The interior failure of layer t's pair lo < hi, at the first
    largest delta between them."""
    x = lo + 1 + int(np.argmax(deltas[lo + 1:hi]))
    return {"check": "star", "layer": t, "left": lo, "right": hi,
            "position": x, "reason": "interior delta not dominated"}


def _located(Pj: np.ndarray, rows: Optional[np.ndarray], base: int, c: int,
             e: int, t: int) -> np.ndarray:
    """The window indices of layer-t positions Pj, looked up in the
    window's rows of layer t-1 (None: an implicit layer 0, whose window
    starts at position base); InvalidParams unless they strictly increase
    inside c..e-1."""
    if rows is None:
        rel = Pj.astype(np.intp)
        rel -= base
    else:
        rel = rows.searchsorted(Pj)
    if rel.size and not (rel[0] >= c - base and rel[-1] < e - base
                         and bool((rel[1:] > rel[:-1]).all())
                         and (rows is None or (rows.take(rel) == Pj).all())):
        raise _unnested(t)
    return rel


def _unnested(t: int) -> InvalidParams:
    return InvalidParams(
        f"layer {t} does not strictly increase inside layer {t - 1}")


def _boundary_failure(t: int, pos: int) -> dict:
    return {"check": "drop_dominance", "layer": t, "position": pos,
            "reason": "element not interior to layer below"}


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
    """Uniform m-subset of [0, 2^D) marked on a byte map of the universe.

    Each vertex is marked when a 16-bit uniform falls below m / 2^D,
    rounded to 1/2^16.  The uniforms are the generator's raw 64-bit words
    read four to a word: for a fresh generator on a little-endian machine
    that is the stream of rng.bytes, with no copy (D >= 20 here, so every
    slice is a whole number of words).  Uniform draws then add or remove
    vertices until exactly m are marked, whatever the rounding.
    """
    N = 1 << D
    threshold = round(m / N * 65536)
    mark = np.empty(N, dtype=bool)
    for s in range(0, N, _MARK_CHUNK):
        e = min(s + _MARK_CHUNK, N)
        draws = rng.bit_generator.random_raw((e - s) // 4).view(np.uint16)
        np.less(draws, threshold, out=mark[s:e])
    surplus = int(np.count_nonzero(mark)) - m
    # Uniform draws from [0, N) that land on the side being thinned pick
    # those vertices in a uniform order; flipping the first |surplus|
    # distinct hits removes (or adds) a uniform subset of that side.
    target = surplus > 0
    need = abs(surplus)
    while need:
        draw = rng.integers(0, N, size=4 * need + 64, dtype=np.int64)
        vals, first = np.unique(draw, return_index=True)
        hits = vals[mark[vals] == target]
        hits = hits[np.argsort(first[mark[vals] == target])][:need]
        mark[hits] = not target
        need -= hits.size
    return np.flatnonzero(mark).view(np.uint64)


def save_q(q: np.ndarray, D: int, path) -> None:
    """Write Q as a STEPUP-Q v1 file, straight from the vertex array."""
    # no copy on a little-endian machine
    q = np.asarray(_as_vertex_array(q), dtype="<u8")
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
    for s in range(0, count - 1, _SCAN_CHUNK):
        e = min(s + _SCAN_CHUNK, count - 1)
        if not (q[s:e] < q[s + 1:e + 1]).all():
            raise IoError(f"{path}: vertices not strictly increasing")
    if int(q[-1]) >= (1 << D):
        raise IoError(f"{path}: vertex {int(q[-1])} outside [0, 2^{D})")
    return q, D
