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
    asserted.  parents holds for t >= 2 the index of each position of
    layers[t] within layers[t-1], as build_layers records them (layer-1
    positions are their own indices in an implicit layer 0).
    verify_star_property checks them before relying on them; it checks a
    stack with an explicit layer 0, with a missing or stale parents row,
    or with a peak of some layer's deltas left out of the layer above
    against the deltas directly.
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


def _neighbor_in(stack: LayerStack, pos: int, level: int, side: str) -> int:
    """The nearest position of layer `level` on `side` ("left" or "right")
    of pos; an implicit layer 0 holds every position."""
    layer = stack.layers[level]
    if layer is None:
        size = stack.deltas.size
        i = min(pos + (side == "right"), size)
    else:
        # a key of the layer's own dtype keeps numpy from converting it
        i = int(np.searchsorted(layer, layer.dtype.type(pos), side=side))
        size = layer.size
    i -= side == "left"
    if not 0 <= i < size:
        raise InsufficientLayers(
            f"position {pos} has no {side} neighbor in layer {level}")
    return i if layer is None else int(layer[i])


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


def verify_star_property(stack: LayerStack) -> PropertyReport:
    """Check per-layer domination and dropped-element dominance.

    Within any layer t >= 1, consecutive positions a < b must have
    distinct deltas and dominate everything strictly between them.
    Between layers, an element of layer t absent from layer t+1 must
    still dominate the closed interval spanned by its layer t-1
    neighbors.

    A stack of the shape build_layers makes (see _nesting) is checked
    layer on layer: each layer from the deltas of the layer below at its
    own indices and at their two neighbors (see _star_nested).  Any other
    stack, such as one built by hand with an explicit layer 0 or without
    parents, and any stack whose deltas have a peak that the layer above
    leaves out (only corrupted deltas do), is checked against the deltas
    directly by _star_direct.  Both give the same report.
    """
    locs = _nesting(stack)
    report = None if locs is None else _star_nested(stack, locs)
    return _star_direct(stack) if report is None else report


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
                lo, hi = int(a[k]), int(b[k])
                x = lo + 1 + int(np.argmax(deltas[lo + 1:hi]))
                return fail({"check": "star", "layer": t, "left": lo,
                             "right": hi, "position": x,
                             "reason": "interior delta not dominated"})
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


def _boundary_failure(t: int, pos: int) -> dict:
    return {"check": "drop_dominance", "layer": t, "position": pos,
            "reason": "element not interior to layer below"}


def _flank_failure(t: int, pos: int, left: int, right: int) -> dict:
    return {"check": "drop_dominance", "layer": t, "position": pos,
            "left": left, "right": right,
            "reason": "neighborhood not dominated"}


# --- nested star check --------------------------------------------------------
#
# Layers are checked bottom-up, so when layer t is read, layer t-1 already
# has the star property: every delta strictly between its positions k and
# k+1 is below max(d[k], d[k+1]), where d holds layer t-1's deltas at its
# own indices.  Two facts follow, and with them layer t is checked from d
# at its own indices and at their two neighbors, never from the full delta
# sequence or from the gaps between positions.
#
# - A dropped element at index l dominates its flanks (every delta from
#   the position of l-1 to that of l+1) iff d[l-1] < d[l] > d[l+1].
# - Call an interior index k with d[k] >= d[k-1] and d[k] >= d[k+1] a
#   peak.  If every peak is in layer t, no pair of consecutive layer-t
#   indices i < j fails the interior check.  For j = i+1 the star
#   property of layer t-1 dominates the deltas between them; for j > i+1
#   the largest of d[i+1..j-1] is no peak, so it is d[i+1] or d[j-1] and
#   below d[i] or d[j] in turn, which dominates the deltas in between.


def _nesting(stack: LayerStack) -> Optional[list[np.ndarray]]:
    """Index of every layer's positions inside the layer below, or None.

    Only a stack of the shape build_layers makes has them: an implicit
    layer 0 (None), so that layer-1 positions are their own indices; a
    layer 1 that strictly increases inside [0, deltas.size); and for
    every t >= 2 a recorded integer parents[t] that strictly increases
    inside layer t-1 and picks layer t out of it.  Any other stack gets
    None.
    """
    layers, parents, deltas = stack.layers, stack.parents, stack.deltas
    if layers[0] is not None:
        return None
    locs = [None]
    for t in range(1, len(layers)):
        P, loc, bound = layers[t], layers[t], deltas.size
        if t > 1:
            loc = parents[t] if parents and t < len(parents) else None
            bound = layers[t - 1].size
        if not (isinstance(loc, np.ndarray) and loc.dtype.kind in "iu"
                and loc.shape == P.shape):
            return None
        if loc.size and not (loc[0] >= 0 and loc[-1] < bound
                             and (loc[1:] > loc[:-1]).all()
                             and (t == 1 or (layers[t - 1][loc] == P).all())):
            return None
        locs.append(loc)
    return locs


_STAR_CHUNK = 1 << 14  # sublayer elements per slice of the nested check


def _peak_count(d: np.ndarray) -> int:
    """Interior indices k with d[k] >= d[k-1] and d[k] >= d[k+1]."""
    count = 0
    for s in range(1, d.size - 1, _SCAN_CHUNK):
        e = min(s + _SCAN_CHUNK, d.size - 1)
        mid = d[s:e]
        count += int(np.count_nonzero((mid >= d[s - 1:e - 1])
                                      & (mid >= d[s + 1:e + 1])))
    return count


def _first(flags: np.ndarray) -> int:
    return int(np.argmax(flags)) if flags.any() else -1


def _star_nested(stack: LayerStack,
                 locs: list[np.ndarray]) -> Optional[PropertyReport]:
    """verify_star_property for a stack _nesting accepts, or None.

    Layer t is checked from the deltas of layer t-1 at the indices of
    layer t and at their two neighbors (see the note above), in slices of
    _STAR_CHUNK elements, keeping the first failure of every kind; these
    are then reported in the order the direct scan checks them.  This is
    an induction on t: a failure in layer t-1 is reported before layer t
    is read.  Counting the peaks of layer t-1 inside and outside layer t
    stands in for the interior check.  A build_layers stack has every
    peak in the layer above, since its layers hold every strict local
    maximum and a peak that is not strict has an equal neighbor, which
    the equal-deltas check of layer t-1 rules out (in layer 0,
    delta(x, y) != delta(y, z) for x < y < z).  On any other stack an
    equal-deltas failure of layer t is still reported; a peak outside
    layer t then gives None, and the caller runs the direct scan.
    """
    deltas, layers = stack.deltas, stack.layers
    checks = {"star_pairs": 0, "drop_dominance": 0}

    def fail(info):
        return PropertyReport(ok=False, checks=checks, counterexample=info)

    d = deltas  # layer 0 is every position: its deltas are all of them
    for t in range(1, len(layers)):
        P, below, loc = layers[t], layers[t - 1], locs[t]
        kept = locs[t + 1] if t + 1 < len(layers) else loc[:0]
        dP = np.empty(P.size, dtype=deltas.dtype)
        peaks = 0
        equal = flank = -1
        for j0 in range(0, P.size, _STAR_CHUNK):
            j1 = min(j0 + _STAR_CHUNK, P.size)
            lj = loc[j0:j1].astype(np.intp)
            dj = dP[j0:j1]
            np.take(d, lj, out=dj)
            if equal < 0:
                # from the element before the slice, so pairs across
                # slice boundaries are compared too
                run = dP[max(j0 - 1, 0):j1]
                k = _first(run[:-1] == run[1:])
                equal = max(j0 - 1, 0) + k if k >= 0 else -1
            # clipping only touches end elements: they are no peaks, and
            # are either kept or caught by the boundary check first
            left = np.take(d, lj - 1, mode="clip")
            right = np.take(d, lj + 1, mode="clip")
            peak = (dj >= left) & (dj >= right)
            # loc strictly increases, so only the layer's first and last
            # element can sit at an end of layer t-1
            peak[0] &= lj[0] > 0
            peak[-1] &= lj[-1] < d.size - 1
            peaks += int(np.count_nonzero(peak))
            weak = (dj <= left) | (dj <= right)
            if flank < 0 and weak.any():
                lo, hi = np.searchsorted(kept, (j0, j1))
                weak[kept[lo:hi] - j0] = False
                k = _first(weak)
                flank = j0 + k if k >= 0 else -1
        if P.size >= 2:
            checks["star_pairs"] += int(P.size - 1)
        if equal >= 0:
            return fail({"check": "star", "layer": t,
                         "left": int(P[equal]), "right": int(P[equal + 1]),
                         "reason": "equal deltas"})
        if peaks != _peak_count(d):
            return None
        n_drop = P.size - kept.size
        if n_drop:
            # only the ends can lack a neighbor below
            if loc[0] == 0 and not (kept.size and kept[0] == 0):
                return fail(_boundary_failure(t, int(P[0])))
            if loc[-1] == d.size - 1 and not (kept.size
                                              and kept[-1] == P.size - 1):
                return fail(_boundary_failure(t, int(P[-1])))
            checks["drop_dominance"] += n_drop
            if flank >= 0:
                k = int(loc[flank])
                # an implicit layer 0 is indexed by position
                left, right = ((k - 1, k + 1) if below is None
                               else (int(below[k - 1]), int(below[k + 1])))
                return fail(_flank_failure(t, int(P[flank]), left, right))
        d = dP
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
