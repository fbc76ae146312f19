"""The stepping-up 4-graph H on {0,...,2^D - 1}.

A sorted 4-tuple with consecutive deltas (d1, d2, d3) falls into exactly
one structural slot: monotone (rule i), valley with d1 > d3 (rule ii),
valley with d1 < d3 (rule iii), or local-max (never an edge).  The pair
coloring phi then decides edge membership inside the slot:

    rule i:   phi(d1,d2) = phi(d2,d3) != phi(d1,d3)
    rule ii:  phi(d1,d2) = phi(d1,d3) != phi(d2,d3)
    rule iii: phi(d1,d2) = phi(d1,d3) = phi(d2,d3)

In the valley slots d1 = d3 is impossible for genuine vertex tuples
(Property III), so that case is asserted, never branched on.

K5(4)-freeness of H holds for EVERY phi, and check_k5_free verifies it
without enumerating vertices.  A 5-set spans a K5(4) iff the delta
triples of its five 4-subsets, which depend only on its consecutive
deltas (d1, d2, d3, d4), its pattern, are all edges.  A triple's verdict
depends only on its class, the order (<, =, >) and color of each of its
three pairs, so a pattern's depends only on its order type and the colors
among its at most four values: the 34 order types under the 64 colorings
of [0, 4) give 1,616 class tuples, the same at every D.  The check ANDs
H's class verdicts over them; if none fires, no 5-set spans a K5(4).
Otherwise the realizable patterns (two equal entries have a larger one
between them) are scanned in lexicographic order for the first that
fires and whose greedy realization, componentwise minimal and increasing
in pattern order, fits below the vertex cap.  The tests keep a
lexicographic scan of 5-sets as the reference.  The rules exist once, as
_classify_deltas, which _edge3_table reads once per class.

exact_alpha splits [0, 2^D) into halves L = [0, h) and R = [h, 2h),
h = 2^(D-1).  Vertices in different halves have the largest delta D-1,
so a 4-tuple across the halves is never an edge when split 2+2 (deltas
(x, D-1, y), the local-max slot), and is an edge when split 1+3 or 3+1
iff E3[D-1, x, y] or E3[x, y, D-1] holds at the deltas (x, y) of its
triple.  Both halves are translates of one 4-graph, so the split turns
into constraints on each half: pair deltas that no chosen pair may have
(F2) and patterns, consecutive delta pairs, that no chosen triple may
have (F3).  The same lemma splits a constrained half again, so alpha is
a recursion A(k, F2, F3) over blocks [0, 2^k), memoised per level with
F2 and F3 as bitmasks.  The witness, the lexicographically first
maximum independent set, is the lex-smaller of the best set inside L
and the best split set.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from enum import Enum
from itertools import combinations
from typing import Optional

import numpy as np

from .coloring import PairColoring
from .delta import delta_sequence
from .errors import (
    BudgetExceeded,
    EngineDisagreement,
    InvalidD,
    InvalidParams,
    MalformedTuple,
    NoNonEdge,
    SetTooSmall,
)

__all__ = [
    "EdgeRule",
    "StepUpHypergraph",
    "EdgeWitness",
    "FiveSetViolation",
    "AlphaResult",
    "classify_4tuple",
    "is_edge",
    "check_k5_free",
    "delta_patterns",
    "find_nonedge_in_5set",
    "is_independent",
    "exact_alpha",
]

K5_BUDGET_DEFAULT = 5 * 10 ** 9
INDEPENDENT_BUDGET_DEFAULT = 10 ** 8
# states of the alpha recursion: a run that reaches it at D = 64 peaks at
# about 1.7 GB RSS and takes about 2 minutes on a 2-core machine
ALPHA_BUDGET_DEFAULT = 10_000_000


class EdgeRule(Enum):
    RULE_I = "RuleI"
    RULE_II = "RuleII"
    RULE_III = "RuleIII"
    NONE_SLOT = "None"


class StepUpHypergraph:
    """Lazily evaluated 4-graph; edges are never materialized."""

    def __init__(self, coloring: PairColoring):
        D = coloring.D
        if not 2 <= D <= 64:
            raise InvalidD(f"need 2 <= D <= 64, got {D}")
        self.D = D
        self.coloring = coloring

    @property
    def vertex_count(self) -> int:
        return 1 << self.D

    @functools.cached_property
    def _color_rows(self) -> list[list[int]]:
        """phi as nested lists, [a][b] = phi(a, b), for the scalar rules;
        the coloring's bits are read-only, so this never goes stale."""
        return self.coloring.as_matrix().tolist()

    @functools.cached_property
    def _edge3(self) -> np.ndarray:
        """The flattened D^3 edge table of phi (_edge3_table), read-only;
        built on first use and kept for the life of the graph."""
        table = _edge3_table(self.coloring)
        table.setflags(write=False)
        return table

    @functools.cached_property
    def _keys(self) -> np.ndarray:
        """Read-only class keys of the flat delta triples (_triple_keys)."""
        keys = _triple_keys(self.coloring.as_matrix())
        keys.setflags(write=False)
        return keys

    def __repr__(self):
        return f"StepUpHypergraph(D={self.D}, phi_seed={self.coloring.seed})"


@dataclass
class EdgeWitness:
    """A 4-tuple certified as an edge, plus how it was derived."""

    vertices: tuple[int, int, int, int]
    deltas: tuple[int, int, int]
    rule: EdgeRule
    colors: list[tuple[int, int, int]]       # (a, b, phi(a,b)) consulted
    branch: str                              # DirectScanBranch | MonotoneRunBranch | AnchorChainBranch
    candidate_index: Optional[int] = None
    trace: dict = field(default_factory=dict)

    def validate(self, H: StepUpHypergraph) -> bool:
        return is_edge(H, self.vertices)

    def as_dict(self) -> dict:
        return {
            "vertices": [int(v) for v in self.vertices],
            "deltas": [int(d) for d in self.deltas],
            "rule": self.rule.value,
            "colors": [[int(a), int(b), int(c)] for a, b, c in self.colors],
            "branch": self.branch,
            "candidate_index": self.candidate_index,
            "trace": self.trace,
        }


@dataclass
class FiveSetViolation:
    vertices: tuple[int, int, int, int, int]
    subsets: list[dict]  # per 4-subset: vertices, deltas, rule, is_edge

    def as_dict(self) -> dict:
        return {"vertices": [int(v) for v in self.vertices],
                "subsets": self.subsets}


@dataclass
class AlphaResult:
    alpha: int
    witness: tuple[int, ...]
    method: str
    nodes: int       # recursion states solved
    a0: int          # independence number of one half
    aR: int          # ... with no triple that is an edge with a vertex above
    aL: int          # ... with no triple that is an edge with a vertex below
    witness_from: str  # "one-half" | "split"
    level_states: tuple[int, ...]  # states solved at each level k = 0..D

    def as_dict(self) -> dict:
        return {"alpha": self.alpha, "witness": [int(v) for v in self.witness],
                "method": self.method, "nodes": self.nodes, "a0": self.a0,
                "aR": self.aR, "aL": self.aL,
                "witness_from": self.witness_from,
                "level_states": list(self.level_states)}


def _classify_deltas(d1: int, d2: int, d3: int, C) -> tuple[EdgeRule, bool]:
    """Rule slot and edge verdict of the consecutive deltas of a sorted
    4-tuple; C[a][b] is phi(a, b).  The scalar core of classify_4tuple,
    is_edge and is_independent: nothing is validated here."""
    if d1 < d2:
        if d2 < d3:
            rule = EdgeRule.RULE_I
        else:
            return EdgeRule.NONE_SLOT, False  # local max d1 < d2 > d3
    elif d2 > d3:
        rule = EdgeRule.RULE_I  # decreasing
    else:
        # valley d1 > d2 < d3
        assert d1 != d3, "valley with d1 == d3 violates Property III"
        rule = EdgeRule.RULE_II if d1 > d3 else EdgeRule.RULE_III
    c12, c23, c13 = C[d1][d2], C[d2][d3], C[d1][d3]
    if rule is EdgeRule.RULE_I:
        return rule, c12 == c23 != c13
    if rule is EdgeRule.RULE_II:
        return rule, c12 == c13 != c23
    return rule, c12 == c13 == c23


def _validate_4tuple(H: StepUpHypergraph, e) -> tuple[int, int, int, int]:
    vs = tuple(int(v) for v in e)
    if len(vs) != 4:
        raise MalformedTuple(f"need exactly 4 vertices, got {len(vs)}")
    if len(set(vs)) != 4:
        raise MalformedTuple(f"vertices must be distinct: {vs}")
    if any(not 0 <= v < H.vertex_count for v in vs):
        raise MalformedTuple(f"vertices outside [0, 2^{H.D}): {vs}")
    return vs


def _deltas(vs) -> tuple[int, int, int]:
    """Consecutive deltas of a sorted 4-tuple of distinct vertices."""
    a, b, c, d = vs
    return ((a ^ b).bit_length() - 1, (b ^ c).bit_length() - 1,
            (c ^ d).bit_length() - 1)


def classify_4tuple(H: StepUpHypergraph, e) -> tuple[EdgeRule, bool]:
    """Rule slot and edge verdict for a strictly increasing 4-tuple."""
    vs = _validate_4tuple(H, e)
    if any(a >= b for a, b in zip(vs, vs[1:])):
        raise MalformedTuple(f"4-tuple must be strictly increasing: {vs}")
    return _classify_deltas(*_deltas(vs), H._color_rows)


def is_edge(H: StepUpHypergraph, e) -> bool:
    """Edge predicate on any 4 distinct vertices; sorts, then classifies."""
    vs = sorted(_validate_4tuple(H, e))
    return _classify_deltas(*_deltas(vs), H._color_rows)[1]


def _edge_witness_for(H: StepUpHypergraph, vs: tuple[int, int, int, int],
                      branch: str, **kw) -> EdgeWitness:
    rule, verdict = classify_4tuple(H, vs)
    if not verdict:
        raise EngineDisagreement(
            f"4-tuple {vs} was returned as an edge, but classify_4tuple "
            "rejects it; the engines disagree", vertices=vs)
    d1, d2, d3 = delta_sequence(vs)
    phi = H.coloring
    colors = [(min(a, b), max(a, b), phi.color(a, b))
              for a, b in ((d1, d2), (d2, d3), (d1, d3))]
    return EdgeWitness(vertices=vs, deltas=(d1, d2, d3), rule=rule,
                       colors=colors, branch=branch, **kw)


# --- K5(4)-freeness ----------------------------------------------------------

def _triple_keys(pm: np.ndarray) -> np.ndarray:
    """Class key, below 216, of each flat delta triple (d1, d2, d3) under
    color matrix pm: the order and color of (d1, d2), (d2, d3), (d1, d3)."""
    v = np.arange(len(pm))
    # per pair: 2 * (order 0, 1, 2 for <, =, >) + color, below 6
    pair = ((np.sign(v[:, None] - v) + 1) * 2 + pm).astype(np.uint8)
    key = pair[:, :, None] * 36 + pair[None, :, :] * 6 + pair[:, None, :]
    return key.reshape(-1).astype(np.intp)


def _edge3_table(phi: PairColoring) -> np.ndarray:
    """Flattened D^3 lookup: is (d1,d2,d3) an edge-making delta triple;
    False where no 4-tuple has it (d1 = d2, d2 = d3, valley d1 = d3).  The
    rules are read at one triple per class (_triple_keys) of a genuine
    order type, at most 7 x 8 calls, and spread over the grid."""
    D = phi.D
    pm = phi.as_matrix()
    key = _triple_keys(pm)
    some = np.full(216, -1, dtype=np.intp)
    some[key] = np.arange(D ** 3)
    verdict = np.zeros(216, dtype=bool)
    C = pm.tolist()
    for k in np.flatnonzero(some >= 0):
        d1, d2, d3 = (int(d) for d in np.unravel_index(some[k], (D, D, D)))
        if d1 != d2 and d2 != d3 and not (d1 > d2 < d3 and d1 == d3):
            verdict[k] = _classify_deltas(d1, d2, d3, C)[1]
    return verdict[key]


def delta_patterns(D: int):
    """Realizable consecutive-delta patterns (d1, d2, d3, d4) over [0, D).

    A pattern is the delta sequence of some increasing 5-set iff any two
    equal entries have a strictly larger entry between them.  Yields one
    slice per d1, in lexicographic order: the int d1 and the int64 arrays
    d2, d3, d4, so memory stays O(D^3) (10, 64, 220 and 1,190 patterns at
    D = 3, 4, 5 and 7).
    """
    b, c, d = (x.ravel() for x in np.meshgrid(
        np.arange(D), np.arange(D), np.arange(D), indexing="ij"))
    shape_ok = (b != c) & (c != d) & ((b != d) | (c > b))
    for a in range(D):
        ok = (shape_ok & (b != a) & ((c != a) | (b > a))
              & ((d != a) | (np.maximum(b, c) > a)))
        yield a, b[ok], c[ok], d[ok]


def _five_triples(D: int, a, b, c, d) -> np.ndarray:
    """Flat indices of the delta triples of the five 4-subsets of a 5-set
    with deltas (a, b, c, d): (a, b, c), (a, b, max(c, d)), (a, max(b, c),
    d), (max(a, b), c, d) and (b, c, d), one row each."""
    ab = (a * D + b) * D
    return np.stack([ab + c, ab + np.maximum(c, d),
                     (a * D + np.maximum(b, c)) * D + d,
                     (np.maximum(a, b) * D + c) * D + d, (b * D + c) * D + d])


def _realize(pattern) -> tuple:
    """Lexicographically first increasing 5-set with these consecutive deltas.

    From v1 = 0 each step takes the least larger vertex whose top differing
    bit is d: set the bits below d and add one, which carries into bit d.
    On a realizable pattern bit d is always clear before the step, so no
    step can fail (or overflow uint64), and each v_k is at most the k-th
    vertex of any realization: a pattern occurs in [0, V) iff its
    realization ends below V.  Of two patterns that first differ at
    d_k < d_k', the one with d_k gets the smaller v_{k+1}: the realization
    is increasing in pattern order.  The entries after d1 may be uint64
    arrays, realizing one pattern per element.
    """
    vs = [0]
    for d in pattern:
        vs.append((vs[-1] | ((1 << d) - 1)) + 1)
    return tuple(vs)


@functools.cache
def _class_keys() -> np.ndarray:
    """The (5, 1616) read-only table of pattern classes: per column, the
    class keys of a pattern's five triples (_five_triples).  They depend
    only on its order type and the colors among its values, so the 64
    patterns over [0, 4) under the 64 colorings take every class."""
    five = np.hstack([_five_triples(4, *p) for p in delta_patterns(4)])
    keys = [_triple_keys(PairColoring(4, mask >> np.arange(6) & 1).as_matrix())
            for mask in range(64)]
    table = np.ascontiguousarray(np.unique(np.hstack([k[five] for k in keys]),
                                           axis=1))
    table.setflags(write=False)
    return table


def _first_firing_pattern(H: StepUpHypergraph, V: int
                          ) -> tuple[Optional[FiveSetViolation], int]:
    """The lexicographically first violating 5-set of [0, V), or None, and
    the number of patterns checked.  Every delta in [0, V) is below
    L = (V-1).bit_length(): the patterns over [0, L) are read one
    delta_patterns slice at a time, those that end at or past V dropped.
    The first that fires (E3 at all five triples) gives the answer, as the
    realization is increasing in pattern order."""
    D, E3 = H.D, H._edge3
    capped = V < H.vertex_count
    checked = 0
    for a, b, c, d in delta_patterns(min(D, (V - 1).bit_length())):
        fire = E3.take(_five_triples(D, a, b, c, d)).all(axis=0)
        if capped:
            wide = (x.astype(np.uint64) for x in (b, c, d))
            fits = _realize((a, *wide))[-1] < V
            fire &= fits
        if fire.any():
            i = int(np.argmax(fire))
            checked += int(np.count_nonzero(fits[:i + 1])) if capped else i + 1
            pattern = (a, int(b[i]), int(c[i]), int(d[i]))
            return _violation_report(H, _realize(pattern)), checked
        checked += int(np.count_nonzero(fits)) if capped else b.size
    return None, checked


def _check_k5_patterns(H: StepUpHypergraph, V: int
                       ) -> tuple[Optional[FiveSetViolation], dict]:
    """K5 check over the 5-sets of [0, V), V >= 5: the violation (or None)
    and the counters classes_checked, classes_fired and patterns_checked.
    The 216 class verdicts are read off H._edge3, which must be a function
    of H._keys (else EngineDisagreement; a key that no triple of H has
    holds no edge), and ANDed over the rows of _class_keys.  If no class
    fires, no pattern can; else _first_firing_pattern locates the first."""
    E3, keys, classes = H._edge3, H._keys, _class_keys()
    verdict = np.zeros(216, dtype=bool)
    verdict[keys[E3]] = True
    if not np.array_equal(verdict.take(keys), E3):
        raise EngineDisagreement(
            "the delta-triple table is not a function of the triple classes; "
            "the K5 check's class lemma does not apply")
    fired = int(np.count_nonzero(verdict.take(classes).all(axis=0)))
    violation, checked = _first_firing_pattern(H, V) if fired else (None, 0)
    return violation, {"classes_checked": classes.shape[1],
                       "classes_fired": fired, "patterns_checked": checked}


def _violation_report(H: StepUpHypergraph, vs: tuple) -> FiveSetViolation:
    subsets = []
    for sub in combinations(vs, 4):
        rule, verdict = classify_4tuple(H, sub)
        subsets.append({
            "vertices": list(sub),
            "deltas": [int(d) for d in delta_sequence(sub)],
            "rule": rule.value,
            "is_edge": bool(verdict),
        })
    if not all(s["is_edge"] for s in subsets):
        raise EngineDisagreement(
            f"5-set {vs} was reported as a K5(4), but classify_4tuple "
            "rejects some of its 4-subsets; the engines disagree",
            vertices=vs)
    return FiveSetViolation(vertices=vs, subsets=subsets)


def check_k5_free(
    H: StepUpHypergraph,
    vertex_cap: Optional[int] = None,
    *,
    budget: int = K5_BUDGET_DEFAULT,
    force: bool = False,
    threads: int = 1,
    stats: Optional[dict] = None,
) -> Optional[FiveSetViolation]:
    """Exhaustively verify that no 5-set of {0,...,V-1} induces a K5(4).

    V defaults to 2^D, clamped by vertex_cap (a negative cap raises
    InvalidParams).  Returns None (the theorem says always) or the
    lexicographically first violating 5-set, which signals an
    implementation bug and is reported verbatim.  The budget gate counts
    binom(V, 5) five-sets, though the check reads no vertex: it decides
    from the 1,616 pattern classes and scans delta patterns only when a
    class fires (_check_k5_patterns).  `threads` is accepted and has no
    effect.  `stats`, if given, receives the engine name (order-types),
    classes_checked, classes_fired and patterns_checked.
    """
    if vertex_cap is not None and vertex_cap < 0:
        raise InvalidParams(f"need vertex_cap >= 0, got {vertex_cap}")
    V = H.vertex_count if vertex_cap is None else min(vertex_cap, H.vertex_count)
    if V < 5:
        if stats is not None:
            stats.update(engine="order-types", classes_checked=0,
                         classes_fired=0, patterns_checked=0)
        return None
    total = math.comb(V, 5)
    if total > budget and not force:
        raise BudgetExceeded(
            f"binom({V},5) = {total} five-sets exceed budget {budget}; "
            "pass force to run anyway", required=total, budget=budget)
    violation, counts = _check_k5_patterns(H, V)
    if stats is not None:
        stats.update(engine="order-types", **counts)
    return violation


def find_nonedge_in_5set(H: StepUpHypergraph, P) -> tuple[int, int, int, int]:
    """First (lexicographic) non-edge 4-subset of a sorted 5-set."""
    vs = tuple(int(v) for v in P)
    if len(vs) != 5 or any(a >= b for a, b in zip(vs, vs[1:])):
        raise MalformedTuple(f"need 5 strictly increasing vertices, got {vs}")
    for sub in combinations(vs, 4):
        if not is_edge(H, sub):
            return sub
    raise NoNonEdge(
        f"5-set {vs} spans a complete K5(4); the edge predicate is broken",
        vertices=vs)


def _first_edge(H: StepUpHypergraph, vs: list[int]
                ) -> Optional[tuple[int, int, int, int]]:
    """The lexicographically first 4-subset of the sorted distinct vertices
    vs that is an edge, or None.

    For i < j the delta of vs[i], vs[j] is the largest consecutive delta
    between them, so per j the deltas from below, left[j], and per k the
    deltas to above, right[k], are bitmasks built in one pass each.  Any a
    in left[j] and b in right[k] come from one 4-tuple with the middle
    delta x of (j, k), so the pair j < k spans an edge iff the row of
    (a, x), the b making (a, x, b) an edge, meets right[k] for some a in
    left[j].  A row is classified by the scalar rules, each distinct triple
    once and never by the delta-triple table, and only at the b that occur
    in some right[k]; the union of the rows over left[j] is kept per
    (left[j], x).  That decides the set in O(|vs|^2) pair steps.  If it
    spans an edge, the first one is found by walking (i, j) in order
    against the deltas a that start an edge at each second vertex j,
    marked once per j from the runs of k that share a middle delta (at
    most D runs of at most D rows each), and then the first k and m of
    the first such pair: O(|vs|^2 + |vs| D^2) steps.
    """
    n = len(vs)
    C = H._color_rows
    gap = [(u ^ v).bit_length() - 1 for u, v in zip(vs, vs[1:])]
    left, right = [0] * n, [0] * n
    for j in range(1, n):       # the deltas below gap[j-1] rise to it
        g = gap[j - 1]
        left[j] = left[j - 1] >> g << g | 1 << g
    for k in range(n - 2, -1, -1):
        g = gap[k]
        right[k] = right[k + 1] >> g << g | 1 << g
    outgoing = functools.reduce(int.__or__, right, 0)
    right_deltas = [b for b in range(H.D) if outgoing >> b & 1]
    rows: dict[tuple[int, int], int] = {}
    unions: dict[tuple[int, int], int] = {}

    def row(a: int, x: int) -> int:
        bits = rows.get((a, x))
        if bits is None:
            # b = x, and b = a below a valley, occur in no 4-tuple
            bits = rows[a, x] = sum(
                1 << b for b in right_deltas
                if b != x and (b != a or a < x)
                and _classify_deltas(a, x, b, C)[1])
        return bits

    def union(mask: int, x: int) -> int:
        bits = unions.get((mask, x))
        if bits is None:
            bits, rest = 0, mask
            while rest:
                low = rest & -rest
                bits |= row(low.bit_length() - 1, x)
                rest ^= low
            unions[mask, x] = bits
        return bits

    def spans_edge() -> bool:
        for j in range(1, n - 2):
            x = -1
            for k in range(j + 1, n - 1):
                if gap[k - 1] > x:
                    x = gap[k - 1]
                    hits = union(left[j], x)
                if hits & right[k]:
                    return True
        return False

    if not spans_edge():
        return None
    def starts_at(j: int) -> int:
        # the a in left[j] whose row meets right[k] for some k > j, read
        # per middle delta x from the union of right[k] over its run of k
        runs: dict[int, int] = {}
        x = -1
        for k in range(j + 1, n - 1):
            if gap[k - 1] > x:
                x = gap[k - 1]
            runs[x] = runs.get(x, 0) | right[k]
        marks, rest = 0, left[j]
        while rest:
            low = rest & -rest
            a = low.bit_length() - 1
            if any(row(a, x) & bits for x, bits in runs.items()):
                marks |= low
            rest ^= low
        return marks

    starts = [-1] * n   # starts_at(j), once read
    for i in range(n - 3):
        a = -1
        for j in range(i + 1, n - 2):
            if gap[j - 1] > a:
                a = gap[j - 1]
            if starts[j] < 0:
                starts[j] = starts_at(j)
            if not starts[j] >> a & 1:
                continue
            x = -1
            for k in range(j + 1, n - 1):
                if gap[k - 1] > x:
                    x = gap[k - 1]
                    hits = row(a, x)
                if hits & right[k]:
                    b = -1
                    for m in range(k + 1, n):
                        b = max(b, gap[m - 1])
                        if hits >> b & 1:
                            return vs[i], vs[j], vs[k], vs[m]
    raise AssertionError("unreachable: a spanning pair has a first edge")


def is_independent(H: StepUpHypergraph, Q,
                   *, budget: int = INDEPENDENT_BUDGET_DEFAULT
                   ) -> Optional[EdgeWitness]:
    """None if Q spans no edge; otherwise the first edge in lex subset order.

    The vertex set is validated once and gated by its binom(|Q|, 4)
    4-subsets against the budget; _first_edge then reads each delta
    triple that occurs in Q once, by the scalar rules, in O(|Q|^2) steps
    for an independent set and O(|Q|^2 + |Q| D^2) for the first edge.
    """
    vs = sorted(int(v) for v in Q)
    if len(set(vs)) != len(vs):
        raise MalformedTuple("independent-set query requires distinct vertices")
    if len(vs) < 4:
        raise SetTooSmall(f"need at least 4 vertices, got {len(vs)}")
    if any(not 0 <= v < H.vertex_count for v in vs):
        raise MalformedTuple("vertices outside [0, 2^D)")
    total = math.comb(len(vs), 4)
    if total > budget:
        raise BudgetExceeded(
            f"binom({len(vs)},4) = {total} exceeds budget {budget}",
            required=total, budget=budget)
    edge = _first_edge(H, vs)
    if edge is None:
        return None
    return _edge_witness_for(H, edge, branch="DirectScanBranch")


# --- exact independence number ----------------------------------------------

@functools.lru_cache(maxsize=8)
def _pattern_layout(D: int) -> tuple:
    """The tables of the alpha recursion that depend on D alone, built once
    per D and read-only.

    A pattern (a, b), the consecutive deltas of a triple, is bit s(a, b) of
    an F3 mask, laid out in shells of m = max(a, b): s(a, m) = m^2 + a and
    s(m, b) = m^2 + m + b for a, b < m, and s(m, m) = m^2 + 2m.  The
    patterns over [0, j) are then the low j^2 bits, and shell j holds the
    column (a, j) and the row (j, b) as two runs of j bits.  Returns the
    (D, D) array of s; per level j the keep masks (1 << j) - 1 of F2 and
    (1 << j^2) - 1 of F3; and per delta x the patterns with an entry x.
    """
    a = np.arange(D)[:, None]
    b = np.arange(D)[None, :]
    m = np.maximum(a, b)
    shell = np.where(a < m, m * m + a,
                     np.where(b < m, m * m + m + b, m * m + 2 * m))
    shell.setflags(write=False)
    keep2 = tuple((1 << j) - 1 for j in range(D + 1))
    keep3 = tuple((1 << j * j) - 1 for j in range(D + 1))
    with_entry = tuple(sum(1 << int(s) for s in {*shell[x], *shell[:, x]})
                       for x in range(D))
    return shell, keep2, keep3, with_entry


def _split_masks(H: StepUpHypergraph, shell: np.ndarray
                 ) -> tuple[list[int], list[int]]:
    """Per cross delta c, the F3 masks over [0, c)^2 that a split at c adds:
    below[c] holds the patterns (a, b) with E3[a, b, c], a triple of L with
    a vertex of R above it, and above[c] those with E3[c, a, b], a vertex
    of L below a triple of R."""
    D = H.D
    E3 = H._edge3.reshape(D, D, D)
    inside = shell[:, :, None] < np.arange(D) ** 2    # [a, b, c]: a, b < c
    bits = np.zeros((2, D, D * D), dtype=bool)
    bits[0][:, shell.ravel()] = (E3 & inside).transpose(2, 0, 1).reshape(D, -1)
    bits[1][:, shell.ravel()] = (E3 & inside.transpose(2, 0, 1)).reshape(D, -1)
    below, above = ([int.from_bytes(row.tobytes(), "little") for row in half]
                    for half in np.packbits(bits, axis=2, bitorder="little"))
    return below, above


def _alpha_recursion(H: StepUpHypergraph, node_budget: int,
                     f2: int = 0, f3: int = 0) -> AlphaResult:
    """A(D, f2, f3), by default alpha, and its lexicographically first
    witness, by the recursion of exact_alpha.  A state (f2, f3) at level k
    is the block [0, 2^k) under the pair-delta mask f2 and the pattern mask
    f3 (laid out as in _pattern_layout); memo[k] maps it, keyed
    f2 | f3 << k, to size << 1 | split: its A, and whether its witness is
    the split set.  aR = aL = 0 when the top block cannot split."""
    D = H.D
    shell, keep2, keep3, with_entry = _pattern_layout(D)
    below, above = _split_masks(H, shell)
    memo: list[dict[int, int]] = [{} for _ in range(D + 1)]
    implied = {0: 0}    # f2 -> the patterns with an entry in f2
    states = 0

    def drop(f2: int, f3: int) -> tuple[int, int]:
        """The state without the patterns that f2 already forbids: a set
        with no pair delta in f2 has no triple with such a pattern."""
        mask = implied.get(f2)
        if mask is None:
            mask, rest = 0, f2
            while rest:
                low = rest & -rest
                mask |= with_entry[low.bit_length() - 1]
                rest ^= low
            implied[f2] = mask
        return f2, f3 & ~mask

    def halves(k: int, f2: int, f3: int) -> tuple:
        """The states at level k-1 of the best set inside one half and,
        unless the cross delta j = k-1 is in f2, of the L and the R part of
        a split set: L also avoids the pair deltas a with (a, j) in f3 and
        the patterns of below[j], R the b with (j, b) in f3 and above[j]."""
        j = k - 1
        g2, g3 = f2 & keep2[j], f3 & keep3[j]
        if f2 >> j & 1:
            return (g2, g3), None, None
        column = f3 >> j * j & keep2[j]
        row = f3 >> j * j + j & keep2[j]
        return ((g2, g3), drop(g2 | column, g3 | below[j]),
                drop(g2 | row, g3 | above[j]))

    def solve(k: int, f2: int, f3: int) -> int:
        nonlocal states
        table = memo[k]
        key = f2 | f3 << k
        entry = table.get(key)
        if entry is not None:
            return entry >> 1
        size, split = 1, 0    # level 0 is one vertex
        if k:
            one, left, right = halves(k, f2, f3)
            size = solve(k - 1, *one)
            if left is not None:
                both = solve(k - 1, *left) + solve(k - 1, *right)
                # on a tie the split set is first iff its L part holds the
                # least vertex where it and the one-half set differ
                if both > size or (both == size
                                   and compare(k - 1, left, one) < 0):
                    size, split = both, 1
        states += 1
        if states > node_budget:
            raise BudgetExceeded(
                f"the alpha recursion passed its state budget {node_budget} "
                f"at D={D}", required=states, budget=node_budget)
        table[key] = size << 1 | split
        return size

    def parts(k: int, state: tuple) -> tuple:
        """The states at level k-1 of the L part and of the R part (None if
        empty) of the witness of a solved state at level k."""
        one, left, right = halves(k, *state)
        if memo[k][state[0] | state[1] << k] & 1:
            return left, right
        return one, None

    def compare(k: int, s: tuple, t: tuple) -> int:
        """Below 0 if the least vertex where the witnesses of the solved
        states s and t at level k differ is in that of s, above 0 if it is
        in that of t, 0 if the witnesses are equal."""
        if s == t:
            return 0    # always so at level 0
        (ls, rs), (lt, rt) = parts(k, s), parts(k, t)
        order = compare(k - 1, ls, lt)
        if order or rs is None or rt is None:
            return order or (rs is None) - (rt is None)
        return compare(k - 1, rs, rt)

    def collect(k: int, state: tuple, offset: int, out: list) -> None:
        if k == 0:
            out.append(offset)
            return
        low, high = parts(k, state)
        collect(k - 1, low, offset, out)
        if high is not None:
            collect(k - 1, high, offset + (1 << k - 1), out)

    top = drop(f2, f3)
    alpha = solve(D, *top)
    one, left, right = halves(D, *top)
    a0 = solve(D - 1, *one)
    aR, aL = (0, 0) if left is None else (solve(D - 1, *left),
                                          solve(D - 1, *right))
    witness: list[int] = []
    collect(D, top, 0, witness)
    split = memo[D][top[0] | top[1] << D] & 1
    return AlphaResult(
        alpha=alpha, witness=tuple(witness), method="half-split-recursion",
        nodes=states, a0=a0, aR=aR, aL=aL,
        witness_from="split" if split else "one-half",
        level_states=tuple(len(table) for table in memo))


def exact_alpha(H: StepUpHypergraph, *,
                node_budget: int = ALPHA_BUDGET_DEFAULT) -> AlphaResult:
    """Independence number and lexicographically first maximum independent
    set, for every 2 <= D <= 64.

    A(k, F2, F3) is the largest set in [0, 2^k) with no edge, no pair whose
    delta is in F2 and no triple whose consecutive deltas are a pattern of
    F3; alpha = A(D, {}, {}) and A(0, ...) = 1.  By the half-split lemma
    (module docstring), A(k, F2, F3) is the larger of the best set inside
    one half, A(k-1, F2, F3) cut to [0, k-1), and, unless k-1 is in F2,
    the best split set A_L + A_R.  The top level gives a0, aR (= A_L) and
    aL (= A_R).  A pattern with an entry in F2 is dropped from F3, since
    F2 already forbids it.  The witness is the lex-smaller of the best set
    inside L ("one-half") and the best L part followed by the best R part
    ("split").  The witness is checked by is_independent's engine
    (_first_edge), which reads its delta triples by the scalar rules, not
    the recursion's table, in O(alpha^2) steps; an edge in it raises
    EngineDisagreement.

    `nodes` counts the states (k, F2, F3) solved and `level_states` splits
    them by k.  BudgetExceeded is raised once they pass node_budget.
    """
    result = _alpha_recursion(H, node_budget)
    edge = _first_edge(H, list(result.witness))
    if edge is not None:
        raise EngineDisagreement(
            f"alpha witness {result.witness} spans the edge {edge} "
            "under classify_4tuple; the engines disagree",
            vertices=result.witness, edge=edge)
    return result
