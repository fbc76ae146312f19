"""Pair colorings of {0,...,D-1} and the good-triple property.

A coloring assigns Red/Blue to every unordered pair of delta values.  A
triple a < b < c is *good* when phi(a,b) = phi(b,c) != phi(a,c).  The
property that matters downstream is that every n-subset of [0, D) contains
a good triple; certification checks it exactly or by sampling.

Read phi as a tournament on [0, D): a -> b for a < b iff phi(a, b) = Red.
A good triple is then a cyclic triangle, and "certified at n" means "no
transitive subtournament on n vertices", which exact certification checks
by a depth-first search over transitive prefixes.  Random colorings have this
property only when binom(D,n)*(3/4)^(n choose 3 packing) is small, so
the search certifies, after one seeded draw, known tournaments whose
transitive subtournaments are small (the extremal ones of n <= 6, then
Paley tournaments), and only then repairs near-misses by simulated
annealing on the count of good-triple-free subsets; every result is
re-certified from scratch.

Also here: the greedy partial Steiner (n,3,2) packing and the log-space
failure probability bound, both small self-contained proof ingredients.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass, field
from itertools import chain, combinations
from typing import Iterable, Optional

import numpy as np

from .errors import (
    BudgetExceeded,
    EngineDisagreement,
    InvalidD,
    InvalidN,
    InvalidParams,
    IoError,
    SetTooSmall,
)

__all__ = [
    "RED",
    "BLUE",
    "PairColoring",
    "GoodTriple",
    "CertificationResult",
    "SearchResult",
    "SteinerSystem",
    "pair_index",
    "sample_coloring",
    "find_good_triple",
    "certify_good_property",
    "search_certified_coloring",
    "paley_coloring",
    "tt_forcing_order",
    "greedy_steiner",
    "failure_probability_bound",
    "log_failure_probability_bound",
    "save_coloring",
    "load_coloring",
]

RED = 0
BLUE = 1

EXACT_CAP_DEFAULT = 10 ** 7
# bytes that building the annealer's tables may take (_repair_table_bytes)
REPAIR_TABLES_BUDGET = 1 << 30

_HEADER_RE = re.compile(rb"^STEPUP-PHI v1 D=(\d+) seed=(-?\d+)\n")


def pair_index(a: int, b: int, D: int) -> int:
    """Rank of the pair a < b in lexicographic (a, b) order."""
    return a * D - a * (a + 1) // 2 + (b - a - 1)


@functools.lru_cache(maxsize=8)
def _upper_pairs(D: int) -> tuple[np.ndarray, np.ndarray]:
    """np.triu_indices(D, 1), the pairs a < b in lexicographic order, built
    once per D and read-only; building them costs more than the rest of
    as_matrix."""
    rows, cols = np.triu_indices(D, 1)
    rows.setflags(write=False)
    cols.setflags(write=False)
    return rows, cols


class PairColoring:
    """Symmetric 2-coloring of the pairs of {0,...,D-1}.

    Colors are stored as one uint8 per pair (Red=0, Blue=1) in
    lexicographic pair order.  seed records how the bits were drawn;
    -1 means the bits did not come from sample_coloring directly
    (repaired or loaded from an untagged source).
    """

    def __init__(self, D: int, bits: np.ndarray, seed: int = -1):
        if D < 2:
            raise InvalidD(f"need D >= 2, got {D}")
        npairs = D * (D - 1) // 2
        bits = np.asarray(bits, dtype=np.uint8)
        if bits.shape != (npairs,):
            raise InvalidParams(
                f"expected {npairs} pair colors for D={D}, got shape {bits.shape}")
        if bits.max(initial=0) > 1:
            raise InvalidParams("colors must be 0 (Red) or 1 (Blue)")
        self.D = D
        self.bits = bits
        self.bits.setflags(write=False)
        self.seed = int(seed)

    def color(self, a: int, b: int) -> int:
        if a == b:
            raise InvalidParams(f"pair color undefined for equal values a=b={a}")
        if not (0 <= a < self.D and 0 <= b < self.D):
            raise InvalidParams(f"values ({a},{b}) outside [0,{self.D})")
        if a > b:
            a, b = b, a
        return int(self.bits[pair_index(a, b, self.D)])

    def as_matrix(self) -> np.ndarray:
        """Dense symmetric D x D color matrix; the diagonal is never consulted."""
        m = np.zeros((self.D, self.D), dtype=np.uint8)
        iu = _upper_pairs(self.D)
        m[iu] = self.bits
        m.T[iu] = self.bits
        return m

    def __eq__(self, other):
        if not isinstance(other, PairColoring):
            return NotImplemented
        return self.D == other.D and np.array_equal(self.bits, other.bits)

    def __hash__(self):
        return hash((self.D, self.bits.tobytes()))

    def __repr__(self):
        return f"PairColoring(D={self.D}, seed={self.seed})"


@dataclass(frozen=True)
class GoodTriple:
    a: int
    b: int
    c: int
    colors: tuple[int, int, int]  # phi(a,b), phi(b,c), phi(a,c)

    def as_tuple(self) -> tuple[int, int, int]:
        return (self.a, self.b, self.c)


@dataclass
class CertificationResult:
    verdict: str                  # Certified | Refuted | Estimated
    mode: str                     # Exact | Sampled
    D: int
    n: int
    subsets_checked: int
    total: int
    counterexample: Optional[tuple[int, ...]] = None
    seed: Optional[int] = None    # sampling seed, when mode is Sampled
    prefixes_visited: int = 0     # Exact: good-triple-free prefixes searched

    @property
    def certified(self) -> bool:
        return self.verdict == "Certified"

    def as_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "mode": self.mode,
            "D": self.D,
            "n": self.n,
            "subsets_checked": self.subsets_checked,
            "total": self.total,
            "counterexample": list(self.counterexample) if self.counterexample else None,
            "seed": self.seed,
            "prefixes_visited": self.prefixes_visited,
        }


def sample_coloring(D: int, seed: int) -> PairColoring:
    """Uniform random coloring, deterministic in (D, seed)."""
    if D < 2:
        raise InvalidD(f"need D >= 2, got {D}")
    rng = np.random.default_rng(seed)
    bits = rng.integers(0, 2, size=D * (D - 1) // 2, dtype=np.uint8)
    return PairColoring(D, bits, seed=seed)


def find_good_triple(phi: PairColoring, values: Iterable[int]) -> Optional[GoodTriple]:
    """Lexicographically first good triple among the given values, or None."""
    vals = sorted(set(int(v) for v in values))
    if len(vals) < 3:
        raise SetTooSmall(f"need at least 3 distinct values, got {len(vals)}")
    if vals[0] < 0 or vals[-1] >= phi.D:
        raise InvalidParams(f"values outside [0,{phi.D}): {vals[0]}..{vals[-1]}")
    for a, b, c in combinations(vals, 3):
        cab = phi.color(a, b)
        cbc = phi.color(b, c)
        cac = phi.color(a, c)
        if cab == cbc != cac:
            return GoodTriple(a, b, c, (cab, cbc, cac))
    return None


def _good_any(phi_matrix: np.ndarray, subsets: np.ndarray) -> np.ndarray:
    """Row mask: does each subset (sorted values) contain a good triple."""
    n = subsets.shape[1]
    good = np.zeros(len(subsets), dtype=bool)
    for i, j, k in combinations(range(n), 3):
        a, b, c = subsets[:, i], subsets[:, j], subsets[:, k]
        cab = phi_matrix[a, b]
        cbc = phi_matrix[b, c]
        cac = phi_matrix[a, c]
        good |= (cab == cbc) & (cab != cac)
    return good


def _out_masks(phi: PairColoring) -> list[int]:
    """out[v]: bitmask of the w with v -> w (a -> b for a < b iff Red)."""
    pm = phi.as_matrix()
    below = np.tri(phi.D, k=-1, dtype=bool)     # column w < row v
    arrow = np.where(below, pm == BLUE, pm == RED)
    np.fill_diagonal(arrow, False)
    packed = np.packbits(arrow, axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


def _lex_first_transitive(out: list[int], n: int
                          ) -> tuple[Optional[tuple[int, ...]], int]:
    """Lex-first n-subset with no cyclic triangle, and the prefixes visited.

    Depth-first search in lexicographic order over good-triple-free
    prefixes.  avail[k] holds the vertices that can still follow the first
    k chosen ones: larger than the last, and closing no cyclic triangle
    with any chosen pair.  The vertices closing one with x -> y are
    out[y] & ~out[x].  A level with fewer candidates than slots left is
    exhausted.  An explicit stack, because n can exceed the recursion
    limit.
    """
    chosen: list[int] = []
    avail = [(1 << len(out)) - 1]
    visited = 0
    while avail:
        a = avail[-1]
        if a.bit_count() < n - len(chosen):
            avail.pop()
            if chosen:
                chosen.pop()
            continue
        low = a & -a
        v = low.bit_length() - 1
        a ^= low
        avail[-1] = a
        ov = out[v]
        for x in chosen:
            ox = out[x]
            a &= ~(ov & ~ox) if ox & low else ~(ox & ~ov)
        visited += 1
        chosen.append(v)
        if len(chosen) == n:
            return tuple(chosen), visited
        avail.append(a)
    return None, visited


def _lex_rank(subset: tuple[int, ...], D: int) -> int:
    """0-based rank of a sorted n-subset of range(D) in lexicographic order."""
    n = len(subset)
    return math.comb(D, n) - 1 - sum(
        math.comb(D - 1 - v, n - i) for i, v in enumerate(subset))


def certify_good_property(
    phi: PairColoring,
    n: int,
    mode: str = "exact",
    *,
    trials: Optional[int] = None,
    seed: Optional[int] = None,
    cap: int = EXACT_CAP_DEFAULT,
) -> CertificationResult:
    """Check that every n-subset of [0, D) contains a good triple.

    Exact mode returns Certified, or Refuted with the lexicographically
    first bad subset.  It searches depth first, in lexicographic order,
    over good-triple-free prefixes (transitive subtournaments), so it
    visits `prefixes_visited` prefixes instead of all binom(D, n) subsets;
    `subsets_checked` is the lex rank + 1 of the bad subset, or binom(D, n)
    when certified.  Above `cap` = binom(D, n) it still raises
    BudgetExceeded: switch to sampled mode, which draws `trials` uniform
    n-subsets under `seed` and returns Estimated when none of them is bad.
    """
    D = phi.D
    if not 3 <= n <= D:
        raise InvalidN(f"need 3 <= n <= D={D}, got n={n}")
    mode_l = mode.lower()

    if mode_l == "exact":
        total = math.comb(D, n)
        if total > cap:
            raise BudgetExceeded(
                f"binom({D},{n}) = {total} exceeds exact cap {cap}; use sampled mode",
                required=total, budget=cap)
        bad, visited = _lex_first_transitive(_out_masks(phi), n)
        if bad is not None:
            _recheck_counterexample(phi, bad)
            return CertificationResult(
                verdict="Refuted", mode="Exact", D=D, n=n,
                subsets_checked=_lex_rank(bad, D) + 1, total=total,
                counterexample=bad, prefixes_visited=visited)
        return CertificationResult(
            verdict="Certified", mode="Exact", D=D, n=n,
            subsets_checked=total, total=total, prefixes_visited=visited)

    if mode_l == "sampled":
        if trials is None or trials < 1:
            raise InvalidParams("sampled mode requires a positive trials count")
        pm = phi.as_matrix()
        rng = np.random.default_rng(seed)
        done = 0
        chunk = 1 << 16
        while done < trials:
            take = min(chunk, trials - done)
            keys = rng.random((take, D))
            idx = np.argpartition(keys, n - 1, axis=1)[:, :n]
            block = np.sort(idx, axis=1).astype(np.int16)
            good = _good_any(pm, block)
            if not good.all():
                row = int(np.argmin(good))
                bad = tuple(int(v) for v in block[row])
                _recheck_counterexample(phi, bad)
                return CertificationResult(
                    verdict="Refuted", mode="Sampled", D=D, n=n,
                    subsets_checked=done + row + 1, total=trials,
                    counterexample=bad, seed=seed)
            done += take
        return CertificationResult(
            verdict="Estimated", mode="Sampled", D=D, n=n,
            subsets_checked=trials, total=trials, seed=seed)

    raise InvalidParams(f"unknown certification mode {mode!r}")


def _recheck_counterexample(phi: PairColoring, bad: tuple[int, ...]) -> None:
    """A certification counterexample must hold no good triple."""
    triple = find_good_triple(phi, bad)
    if triple is not None:
        raise EngineDisagreement(
            f"certification reported {bad} as good-triple-free, but "
            f"find_good_triple finds {triple.as_tuple()} in it; the engines "
            "disagree", vertices=bad, coloring=phi)


# --- annealing repair -------------------------------------------------------
#
# State: per-subset count of good triples (gc) for all binom(D, n) subsets,
# per triple the colors of its pairs (ab, bc, ac) as a 3-bit code, and per
# pair the change (dsub) that its flip would make to the gc of each subset
# through it.  Flipping one pair's color touches the D-2 triples through
# that pair and, through them, binom(D-3, n-3) subsets each; the tables
# below make that update a handful of gathers.

def _code_good(code: int) -> int:
    """Is the triple with pair colors (ab, bc, ac) = code bits 0, 1, 2 good."""
    ab, bc, ac = code & 1, (code >> 1) & 1, code >> 2
    return int(ab == bc != ac)


# change in a triple's goodness when the pair in slot s flips, by code
_FLIP_DELTA = np.array([[_code_good(c ^ (1 << s)) - _code_good(c) for s in range(3)]
                        for c in range(8)], dtype=np.int8)
_SUM_BLOCK = 1 << 20  # dsub entries summed per add.at call in initial_state


def _repair_table_bytes(D: int, n: int) -> int:
    """Estimated traced peak of _RepairTables(D, n) and its initial_state:
    10 bytes per subset through each pair (pair_subs, the stable sort that
    builds it, dsub), 16 per member of each n-subset (the colex enumeration
    and its sorted copy) and 100 per triple through each pair (the per-pair
    update tables).  tracemalloc read 0.78 to 0.97 times it at (20, 6),
    (26, 6), (30, 6), (24, 7), (22, 8), (40, 4), (60, 4) and (60, 3) to
    (140, 3); below about 1 MB a fixed part dominates."""
    subsets = math.comb(D, n)
    return (10 * math.comb(n, 2) * subsets + 16 * n * subsets
            + 300 * math.comb(D, 3))


class _RepairTables:
    def __init__(self, D: int, n: int):
        required = _repair_table_bytes(D, n)
        if required > REPAIR_TABLES_BUDGET:
            raise BudgetExceeded(
                f"the annealer's tables at D={D}, n={n} need about "
                f"{required} bytes, above the budget {REPAIR_TABLES_BUDGET}",
                required=required, budget=REPAIR_TABLES_BUDGET)
        self.D = D
        self.n = n
        self.npairs = D * (D - 1) // 2
        self.ntriples = math.comb(D, 3)
        self.nsubsets = math.comb(D, n)

        triples = np.array(list(combinations(range(D), 3)), dtype=np.int16)
        self.triples = triples
        ta, tb, tc = triples[:, 0], triples[:, 1], triples[:, 2]
        self.tri_pairs = np.stack([
            _pair_index_arr(ta, tb, D),
            _pair_index_arr(tb, tc, D),
            _pair_index_arr(ta, tc, D),
        ], axis=1).astype(np.int32)

        # subset keys gc * width + bias: key + dsub still decodes to (gc,
        # dsub) for dsub in [-(n-2), n-2], so a lookup tells whether the
        # subset turns bad (gc + dsub == 0 < gc) or stops being bad
        self.bias = n - 2
        self.width = 2 * (n - 2) + 1
        idx = np.arange((math.comb(n, 3) + 1) * self.width)
        gc_old = idx // self.width
        gc_new = gc_old + idx % self.width - self.bias
        # indexed by key + dsub: turn is +1 where the subset turns bad and -1
        # where it stops being bad, so one gather and a sum give a flip's
        # change in the bad count; next_key is the subset's key after it
        self.turn = ((gc_new == 0) & (gc_old != 0)).astype(np.intp) - (
            (gc_old == 0) & (gc_new != 0))
        self.next_key = gc_new * self.width + self.bias

        # per-pair update tables: the triples through the pair, the flat
        # index 3t + slot of the pair in each and that slot's code bit, and
        # the subsets holding the pair.  The pair's triples come in order of
        # their third member, and the subsets, in colex order, are the pair
        # plus each (n-2)-subset of the other members in colex order, so the
        # n-2 triples of the pair inside the s-th subset are, as indices into
        # the pair's triples, the s-th (n-2)-subset of range(D-2) in colex
        # order: one table for every pair, one column per slot
        members = _colex(D - 2, n - 2)
        self.sub_tris = [np.ascontiguousarray(members[:, j])
                         for j in range(n - 2)]
        # flat indices 3t + slot grouped by pair, t increasing in each group
        flat = np.argsort(self.tri_pairs.ravel(), kind="stable").reshape(
            self.npairs, D - 2)
        self.slots = flat
        self.pair_tris = list(flat // 3)
        self.pair_slot = list(flat)
        self.pair_bit = list(1 << flat % 3)
        # the pairs of each n-subset, subsets in colex order: a stable sort by
        # pair groups the subsets by pair, each group in colex order.  Pair
        # ranks take the narrowest unsigned dtype that holds them all (16
        # bits up to D = 362, where numpy's stable sort is a radix sort)
        subsets = _colex(D, n)
        pair_rank = np.zeros((D, D), dtype=np.min_scalar_type(self.npairs - 1))
        pair_rank[_upper_pairs(D)] = np.arange(self.npairs)
        sub_pairs = np.stack([pair_rank[subsets[:, i], subsets[:, j]]
                              for i, j in combinations(range(n), 2)], axis=1)
        pair_subs = np.argsort(sub_pairs.ravel(), kind="stable")
        pair_subs //= sub_pairs.shape[1]
        self.pair_subs = pair_subs.reshape(self.npairs, -1)
        self.pair_sub_uniq = list(self.pair_subs)

        # Flipping pair p changes, in each triple t of p, the flip delta of
        # each other pair q of t by +-1 (of the four codes that the two
        # flips reach, exactly one is good); t is the i-th of q's triples,
        # so q's dsub changes on the subsets through q that hold that
        # triple, row i of subs_of_tri.  Per pair: the flat indices
        # 3t + slot of those other slots, the offset of q's row in the
        # pairs x subsets dsub array (as a column), and i.
        self.subs_per_pair = len(members)
        self.subs_of_tri = (np.argsort(members.ravel(), kind="stable")
                            // (n - 2)).reshape(D - 2, -1)
        place = np.empty(3 * self.ntriples, dtype=np.intp)
        place[flat] = np.arange(D - 2)
        others = (flat - flat % 3)[:, :, None] + (
            flat[:, :, None] % 3 + np.array([1, 2])) % 3
        others = others.reshape(self.npairs, -1)
        self.pair_nbr_slot = list(others)
        self.pair_nbr_row = list(
            self.tri_pairs.ravel()[others, None].astype(np.intp)
            * self.subs_per_pair)
        self.pair_nbr_place = list(place[others])

    def initial_state(self, bits: np.ndarray):
        """Triple codes, flip deltas (triples x 3) and subset keys of bits,
        and per pair the change dsub that flipping it makes to the good
        count of each subset through it (pairs x subsets)."""
        colors = bits[self.tri_pairs].astype(np.intp)
        code = colors[:, 0] | (colors[:, 1] << 1) | (colors[:, 2] << 2)
        delta = _FLIP_DELTA[code]
        dtri = delta.ravel()[self.slots]
        dsub = np.zeros((self.npairs, self.subs_per_pair), dtype=np.int8)
        for col in self.sub_tris:
            dsub += dtri[:, col]
        # a good triple's flip deltas sum to -3, any other's to +1 (it is one
        # flip from one good code), so a subset's dsub summed is C(n, 3) - 4 gc.
        # The sums are taken in the narrowest integer that holds them; dsub
        # is widened a block of rows at a time where that is not int8
        c3 = math.comb(self.n, 3)
        total = np.zeros(self.nsubsets, dtype=np.min_scalar_type(-3 * c3))
        rows = max(1, _SUM_BLOCK // self.subs_per_pair)
        for r in range(0, self.npairs, rows):
            np.add.at(total, self.pair_subs[r:r + rows].ravel(),
                      dsub[r:r + rows].ravel().astype(total.dtype, copy=False))
        gc = (c3 - total.astype(np.intp)) // 4
        return code, delta, gc * self.width + self.bias, dsub


def _colex(N: int, k: int) -> np.ndarray:
    """The k-subsets of range(N) as increasing rows in colex order (largest
    member first, then the next), so that row r is the subset of rank r."""
    subsets = np.fromiter(chain.from_iterable(combinations(range(N), k)),
                          dtype=np.intp, count=math.comb(N, k) * k)
    subsets = subsets.reshape(-1, k)
    return subsets[np.lexsort(subsets.T)]


def _pair_index_arr(a, b, D):
    return a.astype(np.int64) * D - a.astype(np.int64) * (a + 1) // 2 + (b - a - 1)


@functools.lru_cache(maxsize=8)
def _repair_tables(D: int, n: int) -> _RepairTables:
    """The annealer's tables for (D, n), built once and shared by every
    search at that size."""
    return _RepairTables(D, n)


class _PCG64Replay:
    """The values of Generator.integers(k) and Generator.random() on a PCG64
    generator, computed from its raw 64-bit words.

    numpy draws integers(k) for 2 <= k <= 2**32 by Lemire's method on
    32-bit halves of the raw words, low half first, and keeps the high
    half for the next such draw; random() is (w >> 11) * 2**-53 of the
    next whole word w and leaves a kept half in place.  Reading the words
    in blocks turns a call into numpy per draw into integer arithmetic.
    The generator's own state runs ahead of the draws made.  The test
    suite checks the replay against Generator's draws.
    """

    _BLOCK = 1024

    def __init__(self, rng: np.random.Generator):
        bg = rng.bit_generator
        if type(bg) is not np.random.PCG64:
            raise InvalidParams(
                f"the anneal replays PCG64 words, got {type(bg).__name__}")
        if bg.state["has_uint32"]:
            raise InvalidParams(
                "the generator holds a pending 32-bit half; the anneal "
                "needs one that starts on a whole word")
        self._raw = bg.random_raw
        self._words: list[int] = []
        self._next = 0
        self._half = -1

    def _word(self) -> int:
        if self._next == len(self._words):
            self._words = self._raw(self._BLOCK).tolist()
            self._next = 0
        self._next += 1
        return self._words[self._next - 1]

    def _half32(self) -> int:
        half = self._half
        if half < 0:
            word = self._word()
            self._half = word >> 32
            return word & 0xFFFFFFFF
        self._half = -1
        return half

    def integers(self, k: int) -> int:
        m = self._half32() * k
        if m & 0xFFFFFFFF < k:
            threshold = (2 ** 32 - k) % k
            while m & 0xFFFFFFFF < threshold:
                m = self._half32() * k
        return m >> 32

    def random(self) -> float:
        return (self._word() >> 11) * 2.0 ** -53


# the anneal's temperature falls geometrically from _T_START to _T_END
_T_START = 2.0
_T_END = 0.01


def _anneal_repair(bits: np.ndarray, D: int, n: int, rng: np.random.Generator,
                   steps: int):
    """Minimize the number of good-triple-free subsets by pair flips.

    Returns (bits, steps_done, bad_count, accepted_flips).  Stops early at
    zero bad subsets.  Deterministic in (bits, rng state, steps): each step
    draws rng.integers(#pairs) and, for a flip that adds bad subsets,
    rng.random(), replayed from the raw words of rng (a fresh PCG64).
    """
    tab = _repair_tables(D, n)
    draws = _PCG64Replay(rng)
    bits = bits.copy()
    code, delta, keys, dsubs = tab.initial_state(bits)
    flat_delta = delta.reshape(-1)
    flat_dsub = dsubs.reshape(-1)
    nbad = int(np.count_nonzero(keys == tab.bias))
    if nbad == 0:
        return bits, 0, 0, 0
    turn, next_key, subs_of_tri = tab.turn, tab.next_key, tab.subs_of_tri
    accepted = 0
    decay = (_T_END / _T_START) ** (1.0 / max(1, steps))
    temp = _T_START
    for step in range(1, steps + 1):
        temp *= decay
        p = draws.integers(tab.npairs)
        uniq = tab.pair_sub_uniq[p]
        dsub = dsubs[p]
        idx = keys[uniq]
        idx += dsub
        dbad = int(turn[idx].sum())
        # a pair whose flip changes no triple (so dbad = 0) is skipped
        # without a draw; count_nonzero skips the ufunc reduction machinery
        # of any/sum
        if not dbad and not np.count_nonzero(flat_delta[tab.pair_slot[p]]):
            continue
        if dbad <= 0 or draws.random() < math.exp(-dbad / temp):
            accepted += 1
            bits[p] ^= 1
            keys[uniq] = next_key[idx]
            nbr = tab.pair_nbr_slot[p]
            before = flat_delta[nbr]
            tris = tab.pair_tris[p]
            new_code = code[tris] ^ tab.pair_bit[p]
            code[tris] = new_code
            delta[tris] = _FLIP_DELTA[new_code]
            target = subs_of_tri.take(tab.pair_nbr_place[p], axis=0)
            target += tab.pair_nbr_row[p]
            flat_dsub[target] += (flat_delta[nbr] - before)[:, None]
            np.negative(dsub, out=dsub)     # p's own flip deltas change sign
            nbad += dbad
            if nbad == 0:
                return bits, step, 0, accepted
    return bits, steps, nbad, accepted


# --- Paley tournament colorings ---------------------------------------------
#
# The Paley tournament of order q (q = 3 mod 4, so -1 is a non-square) has
# x -> y iff y - x is a nonzero square of GF(q).  Its transitive
# subtournaments are small: GF(27) has none on 6 vertices (Sanchez-Flores
# 1994), while every 28-vertex tournament has one on 6 (Erdos-Moser 1964;
# Reid-Parker 1970).  For prime q it is a circulant tournament: x -> y iff
# (y - x) mod q lies in an arc set S with S and -S splitting the nonzero
# residues.
#
# GF(27) = GF(3)[x] / (x^3 + 2x + 1).  Integer k stands for the element with
# coefficients (k mod 3, k div 3 mod 3, k div 9), constant term first.

def _gf27(k: int) -> tuple[int, int, int]:
    return (k % 3, (k // 3) % 3, k // 9)


def _gf27_code(c) -> int:
    return c[0] + 3 * c[1] + 9 * c[2]


def _gf27_mul(a, b) -> tuple[int, int, int]:
    prod = [0] * 5
    for i in range(3):
        for j in range(3):
            prod[i + j] += a[i] * b[j]
    # x^3 = x + 2 over GF(3), so x^d = x^(d-2) + 2 x^(d-3) for d = 4, 3
    for d in (4, 3):
        c, prod[d] = prod[d], 0
        prod[d - 2] += c
        prod[d - 3] += 2 * c
    return tuple(v % 3 for v in prod[:3])


def _is_paley_order(q: int) -> bool:
    """q = 27, or q a prime congruent to 3 mod 4."""
    if q == 27:
        return True
    return q % 4 == 3 and all(q % p for p in range(2, math.isqrt(q) + 1))


def _circulant_coloring(m: int, arcs, D: int) -> PairColoring:
    """The circulant tournament on Z_m with arc set arcs, cut to its first D
    elements: the pair a < b is Red iff (b - a) mod m is in arcs."""
    bits = [RED if (b - a) % m in arcs else BLUE
            for a, b in combinations(range(D), 2)]
    return PairColoring(D, np.array(bits, dtype=np.uint8))


def paley_coloring(q: int, D: int) -> PairColoring:
    """Paley tournament coloring of order q cut to its first D elements.

    The pair a < b is Red iff b - a is a nonzero square of GF(q), with the
    integers 0..q-1 standing for the field elements (residues mod q for
    prime q, base-3 digits for q = 27).  Supported orders are q = 27 and
    primes q = 3 (mod 4).  The result carries seed -1.
    """
    if not _is_paley_order(q):
        raise InvalidParams(
            f"Paley order must be 27 or a prime = 3 mod 4, got q={q}")
    if not 2 <= D <= q:
        raise InvalidD(f"need 2 <= D <= q={q}, got D={D}")
    if q != 27:
        return _circulant_coloring(q, {k * k % q for k in range(1, q)}, D)
    squares = {_gf27_code(_gf27_mul(_gf27(k), _gf27(k))) for k in range(1, 27)}
    bits = [RED if _gf27_code([(x - y) % 3 for x, y in zip(_gf27(b), _gf27(a))])
            in squares else BLUE
            for a, b in combinations(range(D), 2)]
    return PairColoring(D, np.array(bits, dtype=np.uint8))


# The circulant tournament on Z_13 with this arc set has no transitive
# 5-subtournament.
_Z13_ARCS = frozenset({1, 2, 3, 5, 6, 9})

# n -> (v(n), the extremal tournament's strategy name, and that tournament
# cut to its first D vertices).  Every tournament on v(n) vertices has a
# transitive subtournament on n, and the extremal one, on v(n) - 1
# vertices, has none (Erdos-Moser 1964; Reid-Parker 1970; Sanchez-Flores
# 1994).  Known exactly only up to n = 6.
_TT_FORCING = {
    3: (4, "paley-3", lambda D: paley_coloring(3, D)),
    4: (8, "paley-7", lambda D: paley_coloring(7, D)),
    5: (14, "circulant-13",
        lambda D: _circulant_coloring(13, _Z13_ARCS, D)),
    6: (28, "paley-27", lambda D: paley_coloring(27, D)),
}


def tt_forcing_order(n: int) -> Optional[int]:
    """Least D at which no coloring is certified at n, or None if unknown.

    Known for n <= 6 (4, 8, 14, 28); from this D on every tournament has
    a transitive n-subtournament, so every coloring is refuted.
    """
    known = _TT_FORCING.get(n)
    return None if known is None else known[0]


def _constructions(D: int, n: int):
    """(strategy, coloring) for each construction the search certifies
    before it anneals, for D below tt_forcing_order(n): the extremal
    tournament of n cut to D, then the Paley colorings of orders
    D <= q <= 2D.  Beyond q = 2D the first D elements are a small slice of
    the tournament; the bound keeps a failing step to a handful of exact
    scans."""
    if n in _TT_FORCING:
        _, name, build = _TT_FORCING[n]
        yield name, build(D)
    for q in filter(_is_paley_order, range(D, 2 * D + 1)):
        yield f"paley-{q}", paley_coloring(q, D)


@dataclass
class SearchResult:
    success: bool
    coloring: PairColoring
    certification: CertificationResult
    attempts: int
    repaired: bool
    anneal_steps: int
    best_bad_count: int
    strategy: str               # seeded | annealed | paley-<q> | circulant-13
    anneal_accepted: int = 0    # accepted flips of the reported attempt

    @property
    def certifiable(self) -> Optional[bool]:
        """Does any coloring certified at (D, n) exist; None if unknown."""
        v = tt_forcing_order(self.certification.n)
        return None if v is None else self.coloring.D < v

    def as_dict(self) -> dict:
        return {
            "success": self.success,
            "certifiable": self.certifiable,
            "attempts": self.attempts,
            "repaired": self.repaired,
            "anneal_steps": self.anneal_steps,
            "anneal_accepted": self.anneal_accepted,
            "best_bad_count": self.best_bad_count,
            "strategy": self.strategy,
            "certification": self.certification.as_dict(),
            "coloring_seed": self.coloring.seed,
        }


def search_certified_coloring(
    D: int,
    n: int,
    *,
    attempts: int = 16,
    repair_steps: int = 200_000,
    base_seed: int = 0,
    cap: int = EXACT_CAP_DEFAULT,
) -> SearchResult:
    """Search for a coloring certified in Exact mode at (D, n).

    Attempt k draws sample_coloring(D, base_seed + k) and certifies it.
    When attempt 1's draw is refuted, the constructions come next, before
    any anneal: the extremal tournament of n <= 6 cut to D (paley-3,
    paley-7, circulant-13 or paley-27), then the Paley colorings of orders
    D <= q <= 2D (see paley_coloring), each certified exactly; the first
    certified one is returned with attempts 1 and 0 in the anneal fields.
    Only when none certifies is a refuted draw repaired by seeded
    annealing on the bad-subset count; a repair that reaches zero is
    independently re-certified from scratch before being accepted (the
    annealer's bookkeeping is never trusted as a verdict).  Returns the
    first certified coloring, or the annealed coloring with the fewest bad
    subsets, with its own exact Refuted certificate, and success=False.
    `strategy` names where the coloring came from: seeded, annealed, or
    the construction (paley-<q>, circulant-13).

    From D = tt_forcing_order(n) on, every coloring is refuted, so each
    draw is certified but neither annealed nor followed by the
    constructions: the result is the draw with the fewest bad subsets (the
    annealer's starting count), with its own refutation, strategy seeded.
    """
    if not 3 <= n <= D:
        raise InvalidN(f"need 3 <= n <= D={D}, got n={n}")
    if attempts < 1:
        raise InvalidParams(f"need attempts >= 1, got {attempts}")
    forced = tt_forcing_order(n)
    hopeless = forced is not None and D >= forced
    # (bad count, bits, steps, accepted flips, the draw, its certificate)
    best: Optional[tuple] = None
    for k in range(attempts):
        seed = base_seed + k
        phi = sample_coloring(D, seed)
        res = certify_good_property(phi, n, "exact", cap=cap)
        if res.certified:
            return SearchResult(True, phi, res, k + 1, False, 0, 0, "seeded")
        if k == 0 and not hopeless:
            for name, built in _constructions(D, n):
                built_res = certify_good_property(built, n, "exact", cap=cap)
                if built_res.certified:
                    return SearchResult(True, built, built_res, 1, False, 0, 0,
                                        name)
        rng = np.random.default_rng(np.random.SeedSequence([seed, 1]))
        new_bits, steps_used, nbad, accepted = _anneal_repair(
            phi.bits, D, n, rng, 0 if hopeless else repair_steps)
        if nbad == 0:
            repaired = PairColoring(D, new_bits, seed=-1)
            res2 = certify_good_property(repaired, n, "exact", cap=cap)
            if not res2.certified:
                raise EngineDisagreement(
                    "annealer bad-count reached zero but exact certification "
                    f"refuted with {res2.counterexample}; the two routes must "
                    "agree", vertices=res2.counterexample, coloring=repaired)
            return SearchResult(True, repaired, res2, k + 1, True, steps_used,
                                0, "annealed", accepted)
        if best is None or nbad < best[0]:
            best = (nbad, new_bits, steps_used, accepted, phi, res)
    if hopeless:
        nbad, _, _, _, phi, res = best
        return SearchResult(False, phi, res, attempts, False, 0, nbad, "seeded")
    nbad, bits, steps_used, accepted, _, _ = best
    annealed = PairColoring(D, bits, seed=-1)
    res = certify_good_property(annealed, n, "exact", cap=cap)
    if res.certified:
        raise EngineDisagreement(
            f"annealer kept {nbad} bad subsets but exact certification "
            "certified; the two routes must agree", coloring=annealed)
    return SearchResult(False, annealed, res, attempts, True, steps_used,
                        nbad, "annealed", accepted)


# --- Steiner packing --------------------------------------------------------

@dataclass
class SteinerSystem:
    n: int
    seed: int
    triples: list[tuple[int, int, int]] = field(default_factory=list)

    def pair_disjoint(self) -> bool:
        seen = set()
        for t in self.triples:
            for p in combinations(t, 2):
                if p in seen:
                    return False
                seen.add(p)
        return True

    def as_dict(self) -> dict:
        return {"n": self.n, "seed": self.seed, "count": len(self.triples),
                "triples": [list(t) for t in self.triples]}


def _all_triples(n: int) -> np.ndarray:
    """All C(n,3) sorted triples of range(n), vectorized construction."""
    j, k = np.triu_indices(n, 1)
    reps = j.astype(np.int64)
    tj = np.repeat(j, reps)
    tk = np.repeat(k, reps)
    offsets = np.concatenate([[0], np.cumsum(reps)[:-1]])
    ti = np.arange(reps.sum(), dtype=np.int64) - np.repeat(offsets, reps)
    return np.stack([ti.astype(np.int32), tj.astype(np.int32),
                     tk.astype(np.int32)], axis=1)


def _triple_pairs(triples: np.ndarray, n: int) -> np.ndarray:
    """Pair indices (ab, ac, bc) of each sorted triple (a, b, c)."""
    a, b, c = triples[:, 0], triples[:, 1], triples[:, 2]
    return np.stack([
        _pair_index_arr(a, b, n),
        _pair_index_arr(a, c, n),
        _pair_index_arr(b, c, n),
    ], axis=1)


@functools.lru_cache(maxsize=2)
def _triple_table(n: int) -> tuple[np.ndarray, np.ndarray]:
    """All sorted triples of range(n) and their pair indices, reused per n."""
    triples = _all_triples(n)
    return triples, _triple_pairs(triples, n).astype(np.int32)


def _greedy_pairs(pid: np.ndarray, n: int) -> list[int]:
    """Chunked greedy on the rows' pair indices (_triple_pairs): accept a
    row iff its three pairs are unused, in row order.  tests/test_coloring.py
    holds the plain reference, _greedy_scalar."""
    npairs = n * (n - 1) // 2
    used = np.zeros(npairs, dtype=bool)
    accepted: list[int] = []
    chunk = 16384
    sentinel = np.iinfo(np.int64).max
    for start in range(0, len(pid), chunk):
        block = pid[start:start + chunk]
        rows = np.arange(len(block), dtype=np.int64)
        alive = ~(used[block[:, 0]] | used[block[:, 1]] | used[block[:, 2]])
        while alive.any():
            live_rows = rows[alive]
            live = block[alive]
            first_user = np.full(npairs, sentinel, dtype=np.int64)
            for col in range(3):
                np.minimum.at(first_user, live[:, col], live_rows)
            take = ((first_user[live[:, 0]] == live_rows)
                    & (first_user[live[:, 1]] == live_rows)
                    & (first_user[live[:, 2]] == live_rows))
            chosen = live[take]
            accepted.extend((start + live_rows[take]).tolist())
            used[chosen.ravel()] = True
            alive &= ~(used[block[:, 0]] | used[block[:, 1]] | used[block[:, 2]])
    accepted.sort()
    return accepted


def greedy_steiner(n: int, seed: int) -> SteinerSystem:
    """Greedy pair-disjoint triple packing over a seeded random triple order.

    Runs to completion, so the result is maximal; the Turan argument then
    gives |triples| >= n(n-2)/12 (unused pairs are triangle-free, hence at
    most n^2/4 of them).
    """
    if n < 3:
        raise InvalidN(f"need n >= 3, got {n}")
    rng = np.random.default_rng(seed)
    triples, pid = _triple_table(n)
    order = rng.permutation(len(triples))
    rows = _greedy_pairs(pid[order], n)
    chosen = [tuple(t) for t in triples[order[rows]].tolist()]
    if len(chosen) * 12 < n * (n - 2):
        raise EngineDisagreement(
            f"greedy packing at n={n}, seed={seed} kept {len(chosen)} triples, "
            f"below the Turan floor n(n-2)/12 = {n * (n - 2) / 12:g} of a "
            "maximal packing")
    return SteinerSystem(n=n, seed=seed, triples=chosen)


# --- probability bound ------------------------------------------------------

def log_failure_probability_bound(D: int, n: int, cprime: float) -> float:
    """Natural log of binom(D,n) * (3/4)^(cprime * n^2)."""
    if not 3 <= n <= D:
        raise InvalidParams(f"need 3 <= n <= D, got D={D} n={n}")
    if cprime < 0:
        raise InvalidParams(f"need cprime >= 0, got {cprime}")
    return math.log(math.comb(D, n)) + float(cprime) * n * n * math.log(0.75)


def failure_probability_bound(D: int, n: int, cprime: float) -> float:
    """binom(D,n) * (3/4)^(cprime * n^2), evaluated in log space.

    cprime = 0 is allowed as a testing boundary (the value is then exactly
    binom(D,n)).  May underflow to 0.0 for very large cprime * n^2.
    """
    return math.exp(log_failure_probability_bound(D, n, cprime))


# --- file format -------------------------------------------------------------

def save_coloring(phi: PairColoring, path) -> None:
    header = f"STEPUP-PHI v1 D={phi.D} seed={phi.seed}\n".encode("ascii")
    packed = np.packbits(phi.bits, bitorder="little").tobytes()
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(packed)


def load_coloring(path) -> PairColoring:
    with open(path, "rb") as fh:
        blob = fh.read()
    m = _HEADER_RE.match(blob)
    if not m:
        raise IoError(f"{path}: not a STEPUP-PHI v1 file")
    D = int(m.group(1))
    seed = int(m.group(2))
    if D < 2:
        raise IoError(f"{path}: bad D={D}")
    npairs = D * (D - 1) // 2
    nbytes = (npairs + 7) // 8
    body = blob[m.end():]
    if len(body) != nbytes:
        raise IoError(
            f"{path}: expected {nbytes} color bytes for D={D}, got {len(body)}")
    bits = np.unpackbits(
        np.frombuffer(body, dtype=np.uint8), bitorder="little")[:npairs]
    return PairColoring(D, bits, seed=seed)
