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

import re
from dataclasses import dataclass
from itertools import combinations
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
from .hypergraph import EdgeWitness, StepUpHypergraph, _edge_witness_for, is_edge

__all__ = [
    "LayerStack",
    "MonotoneRun",
    "Anchors",
    "build_layers",
    "edge_from_monotone_run",
    "select_anchors",
    "extract_edge",
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
    layers[0] may be None, meaning every position in [0, deltas.size)
    without storing them, as build_layers leaves it; layer(t) gives any
    layer as an array.  beta
    keeps the targets (m-1)/(2n)^t as diagnostics only: the all-maxima
    policy makes each layer a superset of the first-beta_t prefix the
    counting argument reasons about, and observed sizes are recorded, not
    asserted.  parents, when present, holds for t >= 1 the index of each
    position of layers[t] within layers[t-1], or None where not recorded;
    build_layers records them for t >= 2, and verify_star_property checks
    them before relying on them.
    """

    q: np.ndarray
    deltas: np.ndarray
    layers: list[np.ndarray]
    n: int
    beta: tuple[float, ...]
    parents: Optional[list] = None

    def layer(self, t: int) -> np.ndarray:
        """Layer t as a position array, materialising an implicit layer 0."""
        found = self.layers[t]
        if found is None:
            return np.arange(self.deltas.size, dtype=np.int32)
        return found

    @property
    def layer_sizes(self) -> list[int]:
        return _sizes(self.layers, self.deltas.size)

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


def _sizes(layers: list, positions: int) -> list[int]:
    # an implicit layer 0 (None) holds every position
    return [positions if layer is None else int(layer.size)
            for layer in layers]


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


def _scan_layer(layer: Optional[np.ndarray], vals: np.ndarray, n: int,
                with_index: bool = True):
    """One layer's leftmost monotone n-run, or its strict local maxima.

    vals holds the deltas at the layer's positions; a layer of None is
    every position, so its positions are their own indices.  Returns
    ("run", start, direction, None) for the leftmost window of n
    strictly monotone values, else ("maxima", positions, values, indices)
    for the interior strict local maxima, indices being their places in
    the layer (None unless with_index).  Each slice of values is read
    with the n-1 that follow it and the one before it, so runs and maxima
    that straddle a slice boundary are still seen, and earlier slices are
    done first.
    """
    size = vals.size
    # Interior strict maxima are never adjacent, so at most (size - 1) // 2
    # of them fill buffers that are cut to length in place at the end:
    # collecting slices and concatenating them would hold every maximum
    # twice.  np.empty commits no pages that are never written.
    bound = max((size - 1) // 2, 0)
    kept_pos = np.empty(bound, np.int32 if layer is None else layer.dtype)
    kept_vals = np.empty(bound, vals.dtype)
    kept_idx = np.empty(bound if with_index else 0, np.int32)
    kept = 0
    for s in range(0, size, _SCAN_CHUNK):
        e = min(s + _SCAN_CHUNK, size)
        lo = max(s - 1, 0)
        v = vals[lo:min(e + n - 1, size)]
        up = v[1:] > v[:-1]
        down = v[1:] < v[:-1]
        hit = _find_run(up[s - lo:], down[s - lo:], n)
        if hit is not None:
            return "run", s + hit[0], hit[1], None
        # strict local maxima at s..e-1, interior ones only: a rise into
        # the value v[j+1] and a fall out of it
        j_end = max(min(e - lo - 1, up.size - 1), 0)
        peak = np.flatnonzero(up[:j_end] & down[1:j_end + 1])
        peak += 1
        end = kept + peak.size
        np.take(v, peak, out=kept_vals[kept:end])
        peak += lo
        if layer is None:
            kept_pos[kept:end] = peak
        else:
            np.take(layer, peak, out=kept_pos[kept:end])
        if with_index:
            kept_idx[kept:end] = peak
        kept = end
    for buf in (kept_pos, kept_vals, kept_idx):
        # no views of the buffers remain, so none can see the memory go
        buf.resize(min(kept, buf.size), refcheck=False)
    return ("maxima", kept_pos, kept_vals, kept_idx if with_index else None)


def build_layers(Q, n: int) -> Union[LayerStack, MonotoneRun]:
    """Grow local-maxima layers to depth 7, or stop at the first n-run.

    Scans each layer left to right before condensing it: a strictly
    monotone run of n consecutive delta values short-circuits the whole
    construction, since it already carries an edge.  Layers collect ALL
    interior strict local maxima of the previous layer, a superset of the
    prefix the counting argument needs, which keeps the builder total for
    small Q as well.
    """
    if n < 3:
        raise InvalidN(f"run-length parameter must be >= 3, got {n}")
    q = _as_vertex_array(Q)
    if q.size < 2:
        raise SetTooSmall(f"need at least 2 vertices, got {q.size}")
    deltas = consecutive_deltas(q)
    m = int(q.size)
    beta = tuple((m - 1) / (2 * n) ** t for t in range(LAYER_DEPTH + 1))
    # layer 0 is every position, left implicit; indices into it are the
    # positions themselves, so there are no parents there either
    layers = [None]
    parents = [None]
    vals = deltas  # deltas at the positions of the newest layer
    for t in range(1, LAYER_DEPTH + 1):
        prev = layers[-1]
        kind, found, extra, index = _scan_layer(prev, vals, n, t > 1)
        if kind == "run":
            pos = (np.arange(found, found + n) if prev is None
                   else prev[found:found + n])
            return MonotoneRun(
                layer=t - 1,
                positions=tuple(int(p) for p in pos),
                direction=extra,
                values=tuple(int(v) for v in deltas[pos]),
            )
        if found.size == 0:
            raise InsufficientLayers(
                f"layer {t} came out empty: |Q| = {m} cannot sustain depth "
                f"{LAYER_DEPTH} and has no monotone run of length {n}",
                trace={"layer": t, "sizes": _sizes(layers, deltas.size)})
        layers.append(found)
        parents.append(index)
        vals = extra
    return LayerStack(q=q, deltas=deltas, layers=layers, n=n, beta=beta,
                      parents=parents)


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


def _left_in(stack: LayerStack, pos: int, level: int) -> int:
    layer = stack.layers[level]
    if layer is None:           # every position: the neighbor is pos - 1
        i = min(pos, stack.deltas.size)
    else:
        # a key of the layer's own dtype keeps numpy from converting it
        i = int(np.searchsorted(layer, layer.dtype.type(pos)))
    if i == 0:
        raise InsufficientLayers(
            f"position {pos} has no left neighbor in layer {level}")
    return i - 1 if layer is None else int(layer[i - 1])


def _right_in(stack: LayerStack, pos: int, level: int) -> int:
    layer = stack.layers[level]
    if layer is None:           # every position: the neighbor is pos + 1
        i, size = min(pos + 1, stack.deltas.size), stack.deltas.size
    else:
        i = int(np.searchsorted(layer, layer.dtype.type(pos), side="right"))
        size = layer.size
    if i == size:
        raise InsufficientLayers(
            f"position {pos} has no right neighbor in layer {level}")
    return i if layer is None else int(layer[i])


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
    b1 = _left_in(stack, a, 6)
    b2 = _right_in(stack, b1, 5)
    b3 = _right_in(stack, b2, 4)
    assert b1 < b2 < b3 < a, "anchor positions out of order"
    assert dl[b3] < dl[b2] < dl[b1] < dl[a], "anchor deltas out of order"
    colors = [int(phi.color(int(dl[b]), int(dl[a]))) for b in (b1, b2, b3)]
    for i, j in ((1, 3), (1, 2), (2, 3)):
        if colors[i - 1] == colors[j - 1]:
            pair = (i, j)
            break
    bs = (b1, b2, b3)
    B1, B3 = bs[pair[0] - 1], bs[pair[1] - 1]
    ell = LAYER_DEPTH - pair[1]  # layer level of B3
    c = _left_in(stack, B3, ell - 1)
    d = _right_in(stack, c, ell - 2)
    e = _left_in(stack, d, ell - 3)
    f = _right_in(stack, e, ell - 4)
    assert c < e < f < d < B3, "descent chain positions out of order"
    assert dl[B3] > dl[c] > dl[d] > dl[e] > dl[f], \
        "descent chain deltas out of order"
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
    of NeedMoreVertices.
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
        for sub in combinations(range(q.size), 4):
            vs = tuple(int(q[i]) for i in sub)
            if is_edge(H, vs):
                return _edge_witness_for(H, vs, branch="DirectScanBranch",
                                         trace={"path": "small-q scan"})
        raise NeedMoreVertices(
            f"|Q| = {q.size} is below the direct-scan threshold and spans "
            "no edge", trace={"size": int(q.size)})

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
        return edge_from_monotone_run(H, q, built)

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
                                     candidate_index=k, trace=trace)
    dump = {"stack": stack.as_dict(), "anchors": anchors.as_dict(),
            "candidates": tested}
    if guaranteed:
        raise ProofGapTrap(
            "all anchor-chain candidates failed on a Q large enough for "
            "the guarantee; this must be unreachable", trace=dump)
    raise NeedMoreVertices(
        f"anchor-chain candidates all failed on |Q| = {q.size} below the "
        f"guarantee threshold {guarantee_threshold(n)}", trace=dump)


def verify_star_property(stack: LayerStack) -> PropertyReport:
    """Check per-layer domination and dropped-element dominance.

    Within any layer t >= 1, consecutive positions a < b must have
    distinct deltas and dominate everything strictly between them.
    Between layers, an element of layer t absent from layer t+1 must
    still dominate the closed interval spanned by its layer t-1
    neighbors.

    Stacks whose layers each sit inside the one below, as build_layers
    makes them, are checked layer on layer without rescanning the deltas;
    any other stack is checked against the deltas directly.  Both give
    the same report.
    """
    # -1 marks an empty gap, below every delta
    nonneg = stack.deltas.size == 0 or int(stack.deltas.min()) >= 0
    locs = _nesting(stack) if nonneg else None
    if locs is not None:
        return _star_nested(stack, locs)
    return _star_direct(stack)


def _star_direct(stack: LayerStack) -> PropertyReport:
    deltas = stack.deltas
    dpad = np.concatenate([deltas, np.array([-1], dtype=deltas.dtype)])
    checks = {"star_pairs": 0, "drop_dominance": 0}

    def fail(info):
        return PropertyReport(ok=False, checks=checks, counterexample=info)

    for t in range(1, len(stack.layers)):
        P = stack.layers[t]
        if P.size >= 2:
            a, b = P[:-1].astype(np.int64), P[1:].astype(np.int64)
            checks["star_pairs"] += int(a.size)
            equal = deltas[a] == deltas[b]
            if equal.any():
                k = int(np.argmax(equal))
                return fail({"check": "star", "layer": t,
                             "left": int(a[k]), "right": int(b[k]),
                             "reason": "equal deltas"})
            idx = np.empty(2 * a.size, dtype=np.int64)
            idx[0::2] = a + 1
            idx[1::2] = b
            interior = np.maximum.reduceat(dpad, idx)[0::2]
            gap = b > a + 1
            bound = np.maximum(deltas[a], deltas[b])
            bad = gap & (interior >= bound)
            if bad.any():
                k = int(np.argmax(bad))
                return fail(_interior_failure(deltas, t, int(a[k]),
                                              int(b[k])))
        nxt = stack.layers[t + 1] if t + 1 < len(stack.layers) else P[:0]
        drop = np.setdiff1d(P, nxt, assume_unique=True).astype(np.int64)
        if drop.size == 0:
            continue
        prev = stack.layer(t - 1)
        loc = np.searchsorted(prev, drop)
        if (loc == 0).any() or (loc >= prev.size - 1).any():
            k = int(np.argmax((loc == 0) | (loc >= prev.size - 1)))
            return fail(_boundary_failure(t, int(drop[k])))
        jm = prev[loc - 1].astype(np.int64)
        jp = prev[loc + 1].astype(np.int64)
        checks["drop_dominance"] += int(drop.size)
        idx = np.empty(4 * drop.size, dtype=np.int64)
        idx[0::4] = jm
        idx[1::4] = drop
        idx[2::4] = drop + 1
        idx[3::4] = jp + 1
        red = np.maximum.reduceat(dpad, idx)
        flank = np.maximum(red[0::4], red[2::4])
        bad = flank >= deltas[drop]
        if bad.any():
            k = int(np.argmax(bad))
            return fail(_flank_failure(t, int(drop[k]), int(jm[k]),
                                       int(jp[k])))
    return PropertyReport(ok=True, checks=checks, counterexample=None)


def _interior_failure(deltas: np.ndarray, t: int, lo: int, hi: int) -> dict:
    x = lo + 1 + int(np.argmax(deltas[lo + 1:hi]))
    return {"check": "star", "layer": t, "left": lo, "right": hi,
            "position": x, "reason": "interior delta not dominated"}


def _boundary_failure(t: int, pos: int) -> dict:
    return {"check": "drop_dominance", "layer": t, "position": pos,
            "reason": "element not interior to layer below"}


def _flank_failure(t: int, pos: int, left: int, right: int) -> dict:
    return {"check": "drop_dominance", "layer": t, "position": pos,
            "left": left, "right": right,
            "reason": "neighborhood not dominated"}


# --- nested star check --------------------------------------------------------
#
# Write gaps[k] for the largest delta strictly between the positions k and
# k+1 of a layer (-1 when they are adjacent).  A sublayer at indices loc
# has between two consecutive positions, at indices i < j, the gaps i..j-1
# of the layer and the positions i+1..j-1, so its own gaps follow from the
# layer's; a dropped element at index k has as flanks the gaps k-1 and k
# and the deltas at k-1 and k+1.  So after layer 0 only the layers, their
# deltas and their gaps are read, never the full delta sequence again.


def _increasing(a: np.ndarray) -> bool:
    return bool((a[1:] > a[:-1]).all())


def _nesting(stack: LayerStack) -> Optional[list[np.ndarray]]:
    """Index of every layer's positions inside the layer below, if nested.

    Returns None unless every layer strictly increases and each layer
    t >= 1 is a subsequence of layer t-1.  An implicit layer 0 (None)
    holds every delta position, so layer-1 positions are their own
    indices.  Recorded parents are used where they check out; other
    indices are found by marking positions.
    """
    layers, parents = stack.layers, stack.parents
    if layers[0] is not None and not _increasing(layers[0]):
        return None
    locs = [None]
    mark = None
    for t in range(1, len(layers)):
        prev, P = layers[t - 1], layers[t]
        given = parents[t] if parents and t < len(parents) else None
        if P.size == 0:
            locs.append(P)
            continue
        if prev is None:
            if not _increasing(P) or P[0] < 0 or P[-1] >= stack.deltas.size:
                return None
            locs.append(P)
            continue
        if (prev.size == 0 or not _increasing(P) or P[0] < prev[0]
                or P[-1] > prev[-1]):
            return None
        if (given is not None and given.shape == P.shape
              and given.dtype.kind in "iu" and _increasing(given)
              and given[0] >= 0 and given[-1] < prev.size
              and (prev[given] == P).all()):
            loc = given
        else:
            if mark is None:
                mark = np.zeros(int(prev[-1]) + 1, dtype=bool)
            mark[P] = True
            loc = np.flatnonzero(mark[prev])
            mark[P] = False
            if loc.size != P.size or not (prev[loc] == P).all():
                return None
        locs.append(loc)
    return locs


def _gap_maxima(dpad: np.ndarray, P: np.ndarray) -> np.ndarray:
    """gaps of layer P, read off the deltas (with a -1 appended) directly."""
    gap = np.diff(P) > 1
    out = np.full(gap.size, -1, dtype=dpad.dtype)
    if gap.any():
        idx = np.empty(2 * gap.size, dtype=np.int64)
        idx[0::2] = P[:-1]
        idx[0::2] += 1
        idx[1::2] = P[1:]
        out[gap] = np.maximum.reduceat(dpad, idx)[0::2][gap]
    return out


_STAR_CHUNK = 1 << 14  # sublayer elements per slice of the nested check


def _slice_gap_maxima(d: np.ndarray, gaps: Optional[np.ndarray],
                      lj: np.ndarray, valley: bool) -> np.ndarray:
    """gaps of consecutive sublayer elements at layer indices lj.

    d holds the layer's deltas and gaps its own gaps (None: it has none).
    With valley set, the layer's gaps are dominated by their end
    positions (its star property), so the inner gaps of a sublayer gap
    are dominated by its inner positions; unless some inner position is
    at least both of its neighbors, with all three inside, those peak at
    one of the ends, and the gap's maximum is among its two end positions
    and its first and last gap of the layer.  Otherwise, or when such an
    inner peak exists, every gap and inner position is scanned.
    """
    lo, hi = int(lj[0]), int(lj[-1])
    rel = lj - lo
    a, b = rel[:-1], rel[1:]
    seg = d[lo:hi + 1]
    g = None if gaps is None else gaps[lo:hi]
    if valley:
        inside = np.ones(seg.size, dtype=bool)
        inside[rel] = False
        peak = seg[1:-1] >= seg[:-2]
        peak &= seg[1:-1] >= seg[2:]
        peak &= inside[:-2]
        peak &= inside[1:-1]
        peak &= inside[2:]
        if not peak.any():
            out = np.maximum(seg[1:][a], seg[b - 1])
            adjacent = ~inside[1:][a]
            if g is None:
                out[adjacent] = -1
            else:
                first = g[a]
                np.maximum(out, first, out=out)
                np.maximum(out, g[b - 1], out=out)
                out[adjacent] = first[adjacent]
            return out
    if g is None:
        g = np.full(hi - lo, -1, dtype=d.dtype)
    # joined[k]: gap k and, unless a sublayer gap ends there, position k+1
    joined = np.maximum(g, seg[1:])
    joined[b - 1] = g[b - 1]
    return np.maximum.reduceat(joined, a)


def _first(flags: np.ndarray) -> int:
    return int(np.argmax(flags)) if flags.any() else -1


def _star_nested(stack: LayerStack, locs: list[np.ndarray]) -> PropertyReport:
    """verify_star_property for a nested stack, one layer at a time.

    Each layer is walked in slices of _STAR_CHUNK elements, keeping the
    first failure of every kind, which are then reported in the order
    the direct scan checks them.
    """
    deltas, layers = stack.deltas, stack.layers
    checks = {"star_pairs": 0, "drop_dominance": 0}

    def fail(info):
        return PropertyReport(ok=False, checks=checks, counterexample=info)

    base = layers[0]
    if base is None:
        # gaps is None while the layer below has no gaps at all
        d, gaps = deltas, None
    else:
        dpad = np.concatenate([deltas, np.array([-1], dtype=deltas.dtype)])
        d, gaps = deltas[base], _gap_maxima(dpad, base)
    for t in range(1, len(layers)):
        P, below, loc = layers[t], layers[t - 1], locs[t]
        dP = np.empty(P.size, dtype=deltas.dtype)
        gP = np.empty(max(P.size - 1, 0), dtype=deltas.dtype)
        dropped = np.ones(P.size, dtype=bool)
        if t + 1 < len(layers):
            dropped[locs[t + 1]] = False
        # the star property of layer t-1 was checked one step earlier;
        # that of an explicit layer 0 never is
        valley = t > 1 or gaps is None
        equal = interior = flank = -1
        for j0 in range(0, P.size, _STAR_CHUNK):
            j1 = min(j0 + _STAR_CHUNK, P.size)
            lj = loc[j0:j1 + 1].astype(np.intp)   # one element past the slice
            dj = dP[j0:j0 + lj.size]
            np.take(d, lj, out=dj)
            if lj.size >= 2:
                if equal < 0:
                    k = _first(dj[:-1] == dj[1:])
                    equal = j0 + k if k >= 0 else -1
                inner = gP[j0:j0 + lj.size - 1]
                inner[:] = _slice_gap_maxima(d, gaps, lj, valley)
                if interior < 0:
                    Pj = P[j0:j0 + lj.size]
                    k = _first((Pj[1:] - Pj[:-1] > 1)
                               & (inner >= np.maximum(dj[:-1], dj[1:])))
                    interior = j0 + k if k >= 0 else -1
            if flank < 0:
                # clipping only touches end elements, which are either kept
                # or caught by the boundary check first
                la = lj[:j1 - j0]
                around = np.take(d, la - 1, mode="clip")
                np.maximum(around, np.take(d, la + 1, mode="clip"), out=around)
                if gaps is not None and gaps.size:
                    np.maximum(around, np.take(gaps, la - 1, mode="clip"),
                               out=around)
                    np.maximum(around, np.take(gaps, la, mode="clip"),
                               out=around)
                k = _first(dropped[j0:j1] & (around >= dj[:j1 - j0]))
                flank = j0 + k if k >= 0 else -1
        if P.size >= 2:
            checks["star_pairs"] += int(P.size - 1)
        if equal >= 0:
            return fail({"check": "star", "layer": t,
                         "left": int(P[equal]), "right": int(P[equal + 1]),
                         "reason": "equal deltas"})
        if interior >= 0:
            return fail(_interior_failure(deltas, t, int(P[interior]),
                                          int(P[interior + 1])))
        n_drop = int(np.count_nonzero(dropped))
        if n_drop:
            # loc strictly increases: only the ends can lack a neighbor
            if dropped[0] and loc[0] == 0:
                return fail(_boundary_failure(t, int(P[0])))
            if dropped[-1] and loc[-1] >= d.size - 1:
                return fail(_boundary_failure(t, int(P[-1])))
            checks["drop_dominance"] += n_drop
            if flank >= 0:
                k = int(loc[flank])
                # an implicit layer 0 is indexed by position
                left, right = ((k - 1, k + 1) if below is None
                               else (int(below[k - 1]), int(below[k + 1])))
                return fail(_flank_failure(t, int(P[flank]), left, right))
        d, gaps = dP, gP
    return PropertyReport(ok=True, checks=checks, counterexample=None)


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
    N = 1 << D
    # 16-bit uniforms against m / N rounded to 1/2^16; the fix-up below
    # makes the size exact whatever the rounding
    threshold = round(m / N * 65536)
    mark = np.empty(N, dtype=bool)
    for s in range(0, N, _MARK_CHUNK):
        e = min(s + _MARK_CHUNK, N)
        draws = np.frombuffer(rng.bytes(2 * (e - s)), dtype=np.uint16)
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
    q = _as_vertex_array(q)
    header = f"STEPUP-Q v1 count={q.size} bits={D}\n".encode("ascii")
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(q.astype("<u8").tobytes())


def load_q(path) -> tuple[np.ndarray, int]:
    with open(path, "rb") as fh:
        blob = fh.read()
    m = _Q_HEADER_RE.match(blob)
    if not m:
        raise IoError(f"{path}: not a STEPUP-Q v1 file")
    count, D = int(m.group(1)), int(m.group(2))
    if not 2 <= D <= 64:
        raise IoError(f"{path}: bad bits={D}")
    body = blob[m.end():]
    if len(body) != 8 * count:
        raise IoError(
            f"{path}: expected {8 * count} vertex bytes, got {len(body)}")
    q = np.frombuffer(body, dtype="<u8").astype(np.uint64)
    if count == 0:
        raise IoError(f"{path}: empty vertex list")
    if not (q[:-1] < q[1:]).all():
        raise IoError(f"{path}: vertices not strictly increasing")
    if int(q[-1]) >= (1 << D):
        raise IoError(f"{path}: vertex {int(q[-1])} outside [0, 2^{D})")
    return q, D
