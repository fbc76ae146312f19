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
besides plain seeded sampling there is a search loop that repairs
near-misses by simulated annealing on the count of good-triple-free
subsets, and falls back to Paley tournament colorings, whose transitive
subtournaments are small; every result is re-certified from scratch.

Also here: the greedy partial Steiner (n,3,2) packing and the log-space
failure probability bound, both small self-contained proof ingredients.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass, field
from itertools import combinations
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
# and per triple the colors of its pairs (ab, bc, ac) as a 3-bit code.
# Flipping one pair's color touches the D-2 triples through that pair and,
# through them, binom(D-3, n-3) subsets each; the tables below make that
# update a handful of gathers.

def _code_good(code: int) -> int:
    """Is the triple with pair colors (ab, bc, ac) = code bits 0, 1, 2 good."""
    ab, bc, ac = code & 1, (code >> 1) & 1, code >> 2
    return int(ab == bc != ac)


# change in a triple's goodness when the pair in slot s flips, by code
_FLIP_DELTA = np.array([[_code_good(c ^ (1 << s)) - _code_good(c) for s in range(3)]
                        for c in range(8)], dtype=np.int8)


class _RepairTables:
    def __init__(self, D: int, n: int):
        self.D = D
        self.n = n
        self.npairs = D * (D - 1) // 2
        self.ntriples = math.comb(D, 3)
        self.nsubsets = math.comb(D, n)

        comb_table = np.zeros((D + 1, n + 1), dtype=np.int64)
        for x in range(D + 1):
            for k in range(n + 1):
                comb_table[x, k] = math.comb(x, k)

        triples = np.array(list(combinations(range(D), 3)), dtype=np.int16)
        self.triples = triples
        ta, tb, tc = triples[:, 0], triples[:, 1], triples[:, 2]
        self.tri_pairs = np.stack([
            _pair_index_arr(ta, tb, D),
            _pair_index_arr(tb, tc, D),
            _pair_index_arr(ta, tc, D),
        ], axis=1).astype(np.int32)

        # the subsets through a triple: the triple plus each (n-3)-subset of
        # the other members, in lexicographic order
        self.subs_per_triple = math.comb(D - 3, n - 3)
        rest = np.array(list(combinations(range(D - 3), n - 3)),
                        dtype=np.intp).reshape(self.subs_per_triple, n - 3)
        tri_to_subs = _colex_ranks(triples, rest, comb_table).astype(np.int32)

        # subset keys gc * width + bias: key + dsub still decodes to (gc,
        # dsub) for dsub in [-(n-2), n-2], so a lookup tells whether the
        # subset turns bad (gc + dsub == 0 < gc) or stops being bad
        self.bias = n - 2
        self.width = 2 * (n - 2) + 1
        idx = np.arange((math.comb(n, 3) + 1) * self.width)
        gc_old = idx // self.width
        gc_new = gc_old + idx % self.width - self.bias
        self.turns_bad = (gc_new == 0) & (gc_old != 0)
        self.turns_good = (gc_old == 0) & (gc_new != 0)

        # per-pair update tables: the triples through the pair, the flat
        # index 3t + slot of the pair in each and that slot's code bit, and
        # the subsets holding the pair.  The pair's triples come in order of
        # their third member, and the subsets, in colex order, are the pair
        # plus each (n-2)-subset of the other members in colex order, so the
        # n-2 triples of the pair inside the s-th subset are, as indices into
        # the pair's triples, the s-th (n-2)-subset of range(D-2) in colex
        # order: one table for every pair, one column per slot
        members = np.array(sorted(combinations(range(D - 2), n - 2),
                                  key=lambda c: c[::-1]),
                           dtype=np.intp).reshape(-1, n - 2)
        self.sub_tris = [np.ascontiguousarray(members[:, j])
                         for j in range(n - 2)]
        # flat indices 3t + slot grouped by pair, t increasing in each group
        flat = np.argsort(self.tri_pairs.ravel(), kind="stable").reshape(
            self.npairs, D - 2)
        self.pair_tris = list((flat // 3).astype(np.int32))
        self.pair_slot = list(flat)
        self.pair_bit = list((1 << flat % 3).astype(np.uint8))
        pairs = np.array(list(combinations(range(D), 2)), dtype=np.intp)
        self.pair_sub_uniq = list(_colex_ranks(pairs, members, comb_table))
        self.tri_to_subs = tri_to_subs

    def initial_state(self, bits: np.ndarray):
        """Triple codes, flip deltas (triples x 3) and subset keys of bits."""
        colors = bits[self.tri_pairs]
        code = colors[:, 0] | (colors[:, 1] << 1) | (colors[:, 2] << 2)
        good = _FLIP_DELTA[code, 0] < 0     # a good triple loses by any flip
        gc = np.bincount(
            self.tri_to_subs.ravel(),
            weights=np.repeat(good, self.subs_per_triple),
            minlength=self.nsubsets,
        ).astype(np.intp)
        return code, _FLIP_DELTA[code], gc * self.width + self.bias


def _colex_ranks(fixed: np.ndarray, rest: np.ndarray,
                 comb: np.ndarray) -> np.ndarray:
    """Colex ranks of the sets F | S, one row per F and one column per S.

    comb[x, j] is C(x, j) for x in [0, D].  Row f of `fixed` is an
    increasing k-subset F of [0, D); row s of `rest` is an increasing
    subset S of [0, D - k), read as indices into the members of [0, D)
    outside F in increasing order.  The colex rank of a set is the sum of
    C(v, p + 1) over its members v, p being the number of members below v.
    With low_i = F[i] - i, index v stands for the member v + above[F, v],
    above[F, v] = #{i : low_i <= v} being the members of F below it, and
    F[i] has below[S, low_i], the indices of S under low_i, below it: every
    position is a count, so no set is sorted.
    """
    D, width = comb.shape[0] - 1, comb.shape[1]
    k, r = fixed.shape[1], rest.shape[1]
    flat = comb.ravel()
    fixed = fixed.astype(np.intp)
    lows = fixed - np.arange(k)
    values = np.arange(D - k + 1)
    above = (lows[:, :, None] <= values).sum(axis=1)
    below = np.zeros((len(values), len(rest)), dtype=np.intp)
    for s in rest.T:
        below += s < values[:, None]
    ranks = np.empty((len(fixed), len(rest)), dtype=np.int64)
    step = max(1, (1 << 17) // max(1, len(rest)))    # transients near 1 MB
    for lo in range(0, len(fixed), step):
        part = slice(lo, lo + step)
        total = np.zeros((len(fixed[part]), len(rest)), dtype=np.int64)
        for t in range(r):
            s = rest[:, t]
            total += flat.take(s * width + t + 1
                               + above[part][:, s] * (width + 1))
        for i in range(k):
            total += flat.take(fixed[part, i, None] * width + i + 1
                               + below[lows[part, i]])
        ranks[part] = total
    return ranks


def _pair_index_arr(a, b, D):
    return a.astype(np.int64) * D - a.astype(np.int64) * (a + 1) // 2 + (b - a - 1)


@functools.lru_cache(maxsize=8)
def _repair_tables(D: int, n: int) -> _RepairTables:
    """The annealer's tables for (D, n), built once and shared by every
    search at that size."""
    return _RepairTables(D, n)


def _anneal_repair(bits: np.ndarray, D: int, n: int, rng: np.random.Generator,
                   steps: int, t_start: float = 2.0, t_end: float = 0.01):
    """Minimize the number of good-triple-free subsets by pair flips.

    Returns (bits, steps_done, bad_count).  Stops early at zero bad
    subsets.  Deterministic in (bits, rng state, steps).
    """
    tab = _repair_tables(D, n)
    bits = bits.copy()
    code, delta, keys = tab.initial_state(bits)
    flat_delta = delta.reshape(-1)
    nbad = int(np.count_nonzero(keys == tab.bias))
    if nbad == 0:
        return bits, 0, 0
    first, *rest = tab.sub_tris
    decay = (t_end / t_start) ** (1.0 / max(1, steps))
    temp = t_start
    for step in range(1, steps + 1):
        temp *= decay
        p = int(rng.integers(tab.npairs))
        dtri = flat_delta[tab.pair_slot[p]]
        # count_nonzero skips the ufunc reduction machinery of any/sum
        if not np.count_nonzero(dtri):
            continue
        uniq = tab.pair_sub_uniq[p]
        dsub = dtri[first]
        for col in rest:
            dsub += dtri[col]
        old_keys = keys[uniq]
        idx = old_keys + dsub
        dbad = (np.count_nonzero(tab.turns_bad[idx])
                - np.count_nonzero(tab.turns_good[idx]))
        if dbad <= 0 or rng.random() < math.exp(-dbad / temp):
            bits[p] ^= 1
            keys[uniq] = old_keys + dsub.astype(np.intp) * tab.width
            tris = tab.pair_tris[p]
            new_code = code[tris] ^ tab.pair_bit[p]
            code[tris] = new_code
            delta[tris] = _FLIP_DELTA[new_code]
            nbad += dbad
            if nbad == 0:
                return bits, step, 0
    return bits, steps, nbad


# --- Paley tournament colorings ---------------------------------------------
#
# The Paley tournament of order q (q = 3 mod 4, so -1 is a non-square) has
# x -> y iff y - x is a nonzero square of GF(q).  Its transitive
# subtournaments are small: GF(27) has none on 6 vertices (Sanchez-Flores
# 1994), while every 14-vertex tournament has one on 5 and every 28-vertex
# tournament one on 6 (Erdos-Moser 1964; Reid-Parker 1970).
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
    if q == 27:
        squares = {_gf27_code(_gf27_mul(_gf27(k), _gf27(k))) for k in range(1, 27)}

        def diff(b, a):
            return _gf27_code([(x - y) % 3 for x, y in zip(_gf27(b), _gf27(a))])
    else:
        squares = {k * k % q for k in range(1, q)}

        def diff(b, a):
            return (b - a) % q
    bits = [RED if diff(b, a) in squares else BLUE
            for a, b in combinations(range(D), 2)]
    return PairColoring(D, np.array(bits, dtype=np.uint8))


# v(n): every tournament on v(n) vertices has a transitive subtournament on
# n, and some tournament on v(n) - 1 has none (Erdos-Moser 1964; Reid-Parker
# 1970; Sanchez-Flores 1994).  Known exactly only up to n = 6.
_TT_FORCING_ORDER = {3: 4, 4: 8, 5: 14, 6: 28}


def tt_forcing_order(n: int) -> Optional[int]:
    """Least D at which no coloring is certified at n, or None if unknown.

    Known for n <= 6 (4, 8, 14, 28); from this D on every tournament has
    a transitive n-subtournament, so every coloring is refuted.
    """
    return _TT_FORCING_ORDER.get(n)


@dataclass
class SearchResult:
    success: bool
    coloring: PairColoring
    certification: CertificationResult
    attempts: int
    repaired: bool
    anneal_steps: int
    best_bad_count: int
    strategy: str               # seeded | annealed | paley-<q>

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
    A refuted draw is repaired by seeded annealing on the bad-subset
    count; a repair that reaches zero is independently re-certified from
    scratch before being accepted (the annealer's bookkeeping is never
    trusted as a verdict).  When every attempt fails, the Paley colorings
    of orders D <= q <= 2D (see paley_coloring) are certified in ascending
    order.  Returns the first certified coloring, or the annealed coloring
    with the fewest bad subsets, with its own exact Refuted certificate,
    and success=False.  `strategy` names where the coloring came from:
    seeded, annealed or paley-<q>.
    """
    if not 3 <= n <= D:
        raise InvalidN(f"need 3 <= n <= D={D}, got n={n}")
    if attempts < 1:
        raise InvalidParams(f"need attempts >= 1, got {attempts}")
    best: Optional[tuple[int, np.ndarray, int]] = None
    for k in range(attempts):
        seed = base_seed + k
        phi = sample_coloring(D, seed)
        res = certify_good_property(phi, n, "exact", cap=cap)
        if res.certified:
            return SearchResult(True, phi, res, k + 1, False, 0, 0, "seeded")
        rng = np.random.default_rng(np.random.SeedSequence([seed, 1]))
        new_bits, steps_used, nbad = _anneal_repair(
            phi.bits, D, n, rng, repair_steps)
        if nbad == 0:
            repaired = PairColoring(D, new_bits, seed=-1)
            res2 = certify_good_property(repaired, n, "exact", cap=cap)
            if not res2.certified:
                raise EngineDisagreement(
                    "annealer bad-count reached zero but exact certification "
                    f"refuted with {res2.counterexample}; the two routes must "
                    "agree", vertices=res2.counterexample, coloring=repaired)
            return SearchResult(True, repaired, res2, k + 1, True, steps_used,
                                0, "annealed")
        if best is None or nbad < best[0]:
            best = (nbad, new_bits, steps_used)
    # Beyond q = 2D the first D elements are a small slice of the tournament;
    # the bound keeps a failing fallback to a handful of exact scans.
    for q in filter(_is_paley_order, range(D, 2 * D + 1)):
        paley = paley_coloring(q, D)
        res = certify_good_property(paley, n, "exact", cap=cap)
        if res.certified:
            return SearchResult(True, paley, res, attempts, False, 0, 0,
                                f"paley-{q}")
    nbad, bits, steps_used = best
    annealed = PairColoring(D, bits, seed=-1)
    res = certify_good_property(annealed, n, "exact", cap=cap)
    if res.certified:
        raise EngineDisagreement(
            f"annealer kept {nbad} bad subsets but exact certification "
            "certified; the two routes must agree", coloring=annealed)
    return SearchResult(False, annealed, res, attempts, True, steps_used,
                        nbad, "annealed")


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


def _greedy_scalar(triples: np.ndarray, n: int) -> list[int]:
    """Reference greedy: accept a triple iff its three pairs are unused."""
    used = set()
    out = []
    for row, (a, b, c) in enumerate(triples.tolist()):
        pairs = ((a, b), (a, c), (b, c))
        if any(p in used for p in pairs):
            continue
        used.update(pairs)
        out.append(row)
    return out


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
    """Chunked greedy on the rows' pair indices (_triple_pairs), equivalent
    to _greedy_scalar on the same triple order."""
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
