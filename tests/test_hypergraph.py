"""Tests for the stepping-up 4-graph: edge rules, the K5 checker, alpha."""

import contextlib
import functools
import json
import math
import os
import subprocess
import sys
import time
from itertools import combinations, product

import numpy as np
import pytest
from conftest import (
    flipped_rule2,
    flipped_rule2_deltas,
    tuple_from_distinct_deltas,
)

import stepup.hypergraph as hg
from stepup.coloring import (
    PairColoring,
    find_good_triple,
    paley_coloring,
    sample_coloring,
)
from stepup.delta import delta_sequence
from stepup.errors import (
    BudgetExceeded,
    EngineDisagreement,
    InvalidParams,
    MalformedTuple,
    NoNonEdge,
    SetTooSmall,
)
from stepup.hypergraph import (
    EdgeRule,
    StepUpHypergraph,
    _classify_deltas,
    _edge3_table,
    check_k5_free,
    classify_4tuple,
    delta_patterns,
    exact_alpha,
    find_nonedge_in_5set,
    is_edge,
    is_independent,
)


def coloring_from_mask(D, mask):
    npairs = D * (D - 1) // 2
    bits = np.array([(mask >> i) & 1 for i in range(npairs)], dtype=np.uint8)
    return PairColoring(D, bits)


def constant_coloring(D, color=0):
    npairs = D * (D - 1) // 2
    return PairColoring(D, np.full(npairs, color, dtype=np.uint8))


def graph(D, seed):
    return StepUpHypergraph(sample_coloring(D, seed))


def pair_colors(D, assignment):
    """Coloring with the given {(a,b): color} entries, Red elsewhere."""
    npairs = D * (D - 1) // 2
    bits = np.zeros(npairs, dtype=np.uint8)
    phi = PairColoring(D, bits.copy())
    from stepup.coloring import pair_index

    for (a, b), c in assignment.items():
        bits[pair_index(min(a, b), max(a, b), D)] = c
    return PairColoring(D, bits)


# --- rule slots on worked examples -------------------------------------------

def test_rule_i_worked_example():
    # <0,2,6,14> has deltas 1 < 2 < 3; with phi(1,2)=phi(2,3)=Red and
    # phi(1,3)=Blue the rule (i) equation holds.
    phi = pair_colors(4, {(1, 2): 0, (2, 3): 0, (1, 3): 1})
    H = StepUpHypergraph(phi)
    assert classify_4tuple(H, (0, 2, 6, 14)) == (EdgeRule.RULE_I, True)
    # breaking the inequality side kills the edge
    phi2 = constant_coloring(4)
    assert classify_4tuple(StepUpHypergraph(phi2), (0, 2, 6, 14)) == (
        EdgeRule.RULE_I, False)


def test_rule_ii_worked_example():
    # <0,8,9,13> has deltas 3 > 0 < 2 with d1 > d3: rule (ii) slot, edge
    # exactly when phi(3,0) = phi(3,2) != phi(0,2).
    yes = pair_colors(4, {(0, 3): 1, (2, 3): 1, (0, 2): 0})
    no = pair_colors(4, {(0, 3): 1, (2, 3): 1, (0, 2): 1})
    assert classify_4tuple(StepUpHypergraph(yes), (0, 8, 9, 13)) == (
        EdgeRule.RULE_II, True)
    assert classify_4tuple(StepUpHypergraph(no), (0, 8, 9, 13)) == (
        EdgeRule.RULE_II, False)


def test_rule_iii_worked_example():
    # <0,4,5,13> has deltas 2 > 0 < 3 with d1 < d3; all-equal colors make it
    # an edge under rule (iii).
    H = StepUpHypergraph(constant_coloring(4, color=1))
    assert classify_4tuple(H, (0, 4, 5, 13)) == (EdgeRule.RULE_III, True)
    assert is_edge(H, (0, 4, 5, 13))
    mixed = pair_colors(4, {(0, 2): 1, (0, 3): 1, (2, 3): 0})
    assert classify_4tuple(StepUpHypergraph(mixed), (0, 4, 5, 13)) == (
        EdgeRule.RULE_III, False)


def test_local_max_never_an_edge():
    # <0,1,5,7> has deltas 0 < 2 > 1: no rule covers the pattern.
    for mask in range(8):
        H = StepUpHypergraph(coloring_from_mask(3, mask))
        assert classify_4tuple(H, (0, 1, 5, 7)) == (EdgeRule.NONE_SLOT, False)
    rng = np.random.default_rng(7)
    hits = 0
    while hits < 200:
        vs = np.sort(rng.choice(1 << 10, size=4, replace=False))
        vs = tuple(int(v) for v in vs)
        d1, d2, d3 = (
            (vs[0] ^ vs[1]).bit_length() - 1,
            (vs[1] ^ vs[2]).bit_length() - 1,
            (vs[2] ^ vs[3]).bit_length() - 1,
        )
        if not (d1 < d2 > d3):
            continue
        hits += 1
        assert not is_edge(graph(10, 1), vs)


def test_tuple_validation():
    H = graph(5, 0)
    with pytest.raises(MalformedTuple):
        classify_4tuple(H, (0, 1, 2))
    with pytest.raises(MalformedTuple):
        classify_4tuple(H, (0, 1, 2, 2))
    with pytest.raises(MalformedTuple):
        classify_4tuple(H, (0, 1, 2, 32))
    with pytest.raises(MalformedTuple):
        classify_4tuple(H, (3, 1, 2, 8))  # classify demands sorted input
    assert isinstance(is_edge(H, (3, 1, 2, 8)), bool)  # is_edge sorts


def test_is_edge_permutation_invariant():
    H = graph(12, 3)
    rng = np.random.default_rng(11)
    for _ in range(150):
        vs = rng.choice(1 << 12, size=4, replace=False)
        verdicts = set()
        for _ in range(6):
            rng.shuffle(vs)
            verdicts.add(is_edge(H, tuple(int(v) for v in vs)))
        assert len(verdicts) == 1


def test_classify_agrees_with_table_on_a_million_tuples():
    # Self-consistency sweep at D = 20: the scalar classifier, the flat
    # delta-triple table behind the K5 sweep, and is_edge on shuffled input
    # must tell the same story.
    D = 20
    H = graph(D, 3)
    rng = np.random.default_rng(0)
    vs = rng.integers(0, 1 << D, size=(10 ** 6, 4), dtype=np.int64)
    vs.sort(axis=1)
    vs = vs[(np.diff(vs, axis=1) > 0).all(axis=1)]
    x01 = vs[:, 0] ^ vs[:, 1]
    x12 = vs[:, 1] ^ vs[:, 2]
    x23 = vs[:, 2] ^ vs[:, 3]

    def msb(arr):
        _, e = np.frexp(arr.astype(np.float64))
        return (e - 1).astype(np.int64)

    d1, d2, d3 = msb(x01), msb(x12), msb(x23)
    table = _edge3_table(H.coloring)[(d1 * D + d2) * D + d3]
    scalar = np.fromiter(
        (classify_4tuple(H, tuple(row))[1] for row in vs),
        dtype=bool, count=len(vs))
    assert (table == scalar).all()
    sub = vs[:50_000].copy()
    rng.permuted(sub, axis=1, out=sub)
    shuffled = np.fromiter(
        (is_edge(H, tuple(row)) for row in sub), dtype=bool, count=len(sub))
    assert (shuffled == scalar[:50_000]).all()


def test_monotone_edges_match_good_triple_oracle():
    # On a monotone delta pattern the rule (i) equation is exactly the good
    # triple condition on the three delta values.
    rng = np.random.default_rng(5)
    H = graph(16, 9)
    count = 0
    while count < 400:
        ds = rng.choice(16, size=3, replace=False)
        ds = np.sort(ds)
        if rng.random() < 0.5:
            ds = ds[::-1]
        vs = tuple_from_distinct_deltas([int(d) for d in ds], rng)
        got = find_good_triple(H.coloring, tuple(int(d) for d in ds))
        assert is_edge(H, vs) == (got is not None)
        count += 1


# --- K5(4)-freeness -----------------------------------------------------------

def _scan_scalar_lex(H: StepUpHypergraph, V: int) -> tuple | None:
    """Reference engine for check_k5_free: lexicographic 5-set scan with
    early exit.

    Consecutive deltas are computed per enumeration prefix.  Returns the
    first 5-set whose four-subsets are all edges, or None.
    """
    D = H.D
    E3 = H._edge3.tolist()

    def edge3(d1, d2, d3) -> bool:
        return E3[(d1 * D + d2) * D + d3]

    for v1 in range(V - 4):
        for v2 in range(v1 + 1, V - 3):
            d12 = (v1 ^ v2).bit_length() - 1
            for v3 in range(v2 + 1, V - 2):
                d23 = (v2 ^ v3).bit_length() - 1
                d13 = max(d12, d23)
                for v4 in range(v3 + 1, V - 1):
                    d34 = (v3 ^ v4).bit_length() - 1
                    if not edge3(d12, d23, d34):
                        continue
                    d24 = max(d23, d34)
                    for v5 in range(v4 + 1, V):
                        d45 = (v4 ^ v5).bit_length() - 1
                        if (edge3(d23, d34, d45)
                                and edge3(d13, d34, d45)
                                and edge3(d12, d24, d45)
                                and edge3(d12, d23, max(d34, d45))):
                            return (v1, v2, v3, v4, v5)
    return None


def test_k5_free_d3_all_colorings_both_engines():
    assert math.comb(8, 5) == 56
    for mask in range(8):
        H = StepUpHypergraph(coloring_from_mask(3, mask))
        assert check_k5_free(H) is None
        assert _scan_scalar_lex(H, 8) is None


def test_k5_free_d5_random_colorings():
    for seed in range(6):
        assert check_k5_free(graph(5, seed)) is None
    # scalar reference agrees on a couple of them
    for seed in range(2):
        assert _scan_scalar_lex(graph(5, seed), 32) is None


def test_k5_free_every_coloring_not_only_certified():
    # freeness does not depend on phi being good-triple-free: all-Red is as
    # far from certified as it gets and must still pass
    for D in (3, 4, 5):
        assert check_k5_free(StepUpHypergraph(constant_coloring(D))) is None


def test_k5_checker_thread_invariance():
    H = graph(5, 0)
    assert check_k5_free(H, threads=2) is None
    assert check_k5_free(H, threads=1) is None


def test_k5_budget_and_vertex_cap():
    H8 = graph(8, 0)
    with pytest.raises(BudgetExceeded) as exc:
        check_k5_free(H8)
    assert exc.value.required == math.comb(256, 5)
    assert check_k5_free(H8, vertex_cap=40) is None
    assert check_k5_free(H8, vertex_cap=4) is None  # fewer than 5 vertices
    with pytest.raises(InvalidParams, match="vertex_cap"):
        check_k5_free(H8, vertex_cap=-3)
    H3 = graph(3, 0)
    with pytest.raises(BudgetExceeded):
        check_k5_free(H3, budget=10)
    assert check_k5_free(H3, budget=10, force=True) is None


# --- the delta-pattern engine -------------------------------------------------


def _engine_inputs():
    for D in (3, 5):
        for seed in range(12):
            yield StepUpHypergraph(sample_coloring(D, seed))
    for mask in range(64):  # every coloring at D = 4
        yield StepUpHypergraph(coloring_from_mask(4, mask))


def delta_matrix(V):
    """[u, v] = the delta of u and v, the top bit where they differ."""
    return np.array([[(u ^ v).bit_length() - 1 for v in range(V)]
                     for u in range(V)])


@functools.cache
def _patterns_in_prefix(V):
    """Number of distinct consecutive-delta patterns of the 5-sets of [0, V)."""
    five = np.array(list(combinations(range(V), 5)))
    dt = delta_matrix(V)
    return len(np.unique(dt[five[:, :-1], five[:, 1:]], axis=0))


@pytest.mark.parametrize("flip", [False, True])
def test_pattern_engine_matches_scalar_scan_under_every_cap(flip):
    violations = 0
    with flipped_rule2() if flip else contextlib.nullcontext():
        for H in _engine_inputs():
            n = H.vertex_count
            for V in sorted({min(cap, n) for cap in (5, 9, 17, 20, n - 1, n)}):
                by_pattern, counts = hg._check_k5_patterns(H, V)
                checked = counts["patterns_checked"]
                first = _scan_scalar_lex(H, V)
                by_scan = (None if first is None
                           else hg._violation_report(H, first))
                assert by_pattern == by_scan
                assert counts["classes_checked"] == 1616
                if not counts["classes_fired"]:
                    # no class fires, so no pattern is scanned
                    assert checked == 0
                elif by_pattern is None:
                    # the patterns that occur in [0, V), counted off its
                    # 5-sets
                    assert checked == _patterns_in_prefix(V)
                    if V == n:
                        assert checked == {3: 10, 4: 64, 5: 220}[H.D]
                violations += by_pattern is not None
    # the honest rules never fire; the corrupted ones must, or the
    # comparison says nothing about the violation reports
    assert (violations >= 10) if flip else violations == 0


def test_delta_patterns_are_exactly_the_realizable_ones():
    for D, count in ((3, 10), (4, 64), (5, 220)):
        listed = {(a, int(b), int(c), int(d))
                  for a, bs, cs, ds in delta_patterns(D)
                  for b, c, d in zip(bs, cs, ds)}
        assert len(listed) == count
        five = np.array(list(combinations(range(1 << D), 5)))
        dt = delta_matrix(1 << D)
        seen = {tuple(int(x) for x in row) for row in np.unique(
            dt[five[:, :-1], five[:, 1:]], axis=0)}
        assert seen == listed
        # the greedy realization has exactly the pattern's deltas
        for p in listed:
            vs = hg._realize(p)
            assert tuple(dt[vs[i], vs[i + 1]] for i in range(4)) == p


def test_forced_check_over_2_to_the_20_vertices_is_fast():
    H = graph(20, 4)
    stats = {}
    t0 = time.perf_counter()
    assert check_k5_free(H, force=True, stats=stats) is None
    assert time.perf_counter() - t0 < 1.0
    assert stats == {"engine": "order-types", "classes_checked": 1616,
                     "classes_fired": 0, "patterns_checked": 0}


def test_engine_follows_the_vertex_cap():
    # no class fires under the honest rules, so every prefix is decided by
    # the classes alone and no pattern is scanned
    H = graph(5, 3)
    for cap in (None, 32, 100, 20):
        stats = {}
        assert check_k5_free(H, cap, stats=stats) is None
        assert stats == {"engine": "order-types", "classes_checked": 1616,
                         "classes_fired": 0, "patterns_checked": 0}


def test_capped_check_at_d8_is_fast():
    # every 5-set of [0, 128) at D = 8: binom(128, 5) = 264,566,400 of them
    t0 = time.perf_counter()
    assert check_k5_free(graph(8, 0), vertex_cap=128) is None
    assert time.perf_counter() - t0 < 1.0


# --- the order-type classes ---------------------------------------------------


def per_slice_k5(H, V, E3):
    """The pattern scan without the class lemma: every delta pattern that
    can occur in [0, V), read one d1 slice at a time.  Returns the first
    pattern that fires under the flat table E3, realized (or None), and the
    patterns checked."""
    D = H.D
    capped = V < H.vertex_count
    checked = 0
    for a, b, c, d in delta_patterns(min(D, (V - 1).bit_length())):
        if capped:
            fits = hg._realize((a, b.astype(np.uint64), c.astype(np.uint64),
                                d.astype(np.uint64)))[-1] < V
            b, c, d = b[fits], c[fits], d[fits]
        ab = (a * D + b) * D
        fire = (E3[ab + c] & E3[ab + np.maximum(c, d)]
                & E3[(a * D + np.maximum(b, c)) * D + d]
                & E3[(np.maximum(a, b) * D + c) * D + d]
                & E3[(b * D + c) * D + d])
        if fire.any():
            i = int(np.argmax(fire))
            return (hg._realize((a, int(b[i]), int(c[i]), int(d[i]))),
                    checked + i + 1)
        checked += b.size
    return None, checked


def test_k5_engine_matches_the_per_slice_engine():
    fired = 0
    for D in range(3, 10):
        colorings = [constant_coloring(D, color) for color in (0, 1)]
        colorings += [sample_coloring(D, seed) for seed in range(3)]
        for phi, flip in product(colorings, (False, True)):
            with flipped_rule2() if flip else contextlib.nullcontext():
                H = StepUpHypergraph(phi)
                for cap in (None, 15, 40, 128):
                    V = (H.vertex_count if cap is None
                         else min(cap, H.vertex_count))
                    stats = {}
                    got = check_k5_free(H, cap, force=True, stats=stats)
                    first, checked = per_slice_k5(
                        H, V, hg._edge3_table(H.coloring))
                    if stats["classes_fired"]:
                        assert stats["patterns_checked"] == checked, (
                            D, cap, flip)
                    else:
                        assert stats["patterns_checked"] == 0
                    if first is None:
                        assert got is None
                    else:
                        assert got == hg._violation_report(H, first)
                        fired += 1
    assert fired >= 50


def test_k5_engine_skips_patterns_that_end_past_the_cap():
    # The colorings above, honest or corrupted, never fire a pattern that
    # ends past the cap before one that fits, so random class verdicts,
    # spread over the graph's class keys, stand in for E3; the engine's
    # 5-set then fails the violation re-check.
    rng = np.random.default_rng(5)
    skipped = 0
    for D in (5, 6, 7):
        H = graph(D, 0)
        for _ in range(40):
            E3 = (rng.random(216) < 0.6)[H._keys]
            H.__dict__["_edge3"] = E3        # the cached_property's slot
            for _ in range(4):
                # just above a power of two most patterns over [0, L) end
                # past the cap
                V = (1 << int(rng.integers(2, D))) + int(rng.integers(1, 5))
                first, _ = per_slice_k5(H, V, E3)
                try:
                    got, _ = hg._check_k5_patterns(H, V)
                    got = None if got is None else got.vertices
                except EngineDisagreement as exc:
                    got = exc.vertices
                assert got == first, (D, V)
                # every pattern over [0, L) fits below 2^L
                whole = per_slice_k5(H, 1 << (V - 1).bit_length(), E3)[0]
                skipped += first != whole
    assert skipped >= 40


def test_class_table_holds_the_order_types_under_every_coloring_at_d4():
    # The lemma behind the K5 check: the class keys of a pattern's five
    # triples depend only on its order type and the colors among its at
    # most four values, so the 34 order types, relabelled 0..k-1, under the
    # 64 colorings of [0, 4) give every class, and with the verdicts of
    # _classify_deltas none fires.
    table = hg._class_keys()
    assert table.shape == (5, 1616)
    with pytest.raises(ValueError):
        table[...] = 0
    types = set()
    for a, bs, cs, ds in delta_patterns(4):
        for p in zip([a] * bs.size, bs.tolist(), cs.tolist(), ds.tolist()):
            values = sorted(set(p))
            types.add(tuple(values.index(x) for x in p))
    assert len(types) == 34

    def key(x, y, z, C):
        def pair(u, v):   # order 0, 1, 2 for <, =, >, then color
            return ((u > v) - (u < v) + 1) * 2 + (C[u][v] if u != v else 0)
        return pair(x, y) * 36 + pair(y, z) * 6 + pair(x, z)

    classes = set()
    for mask in range(64):
        C = coloring_from_mask(4, mask).as_matrix().tolist()
        for a, b, c, d in types:
            classes.add(tuple(key(*t, C) for t in (
                (a, b, c), (a, b, max(c, d)), (a, max(b, c), d),
                (max(a, b), c, d), (b, c, d))))
    assert classes == set(map(tuple, table.T.tolist()))

    def fired():
        verdict = np.zeros(216, dtype=bool)
        graphs = [StepUpHypergraph(coloring_from_mask(4, mask))
                  for mask in range(64)]
        for H in graphs:
            verdict[H._keys[H._edge3]] = True
        for H in graphs:   # one verdict per class key across colorings
            assert np.array_equal(verdict[H._keys], H._edge3)
        return int(np.count_nonzero(verdict[table].all(axis=0)))

    assert fired() == 0
    with flipped_rule2():
        assert fired() == 4


def test_edge_table_that_is_not_a_function_of_the_classes_is_refused():
    # the class lemma holds only for a table built per class key; any
    # other table is an engine disagreement, not a verdict
    H = graph(6, 0)
    E3 = H._edge3.copy()
    E3[np.flatnonzero(H._keys == H._keys[np.flatnonzero(E3)[0]])[-1]] ^= True
    H.__dict__["_edge3"] = E3        # the cached_property's slot
    with pytest.raises(EngineDisagreement, match="not a function"):
        check_k5_free(H)
    assert check_k5_free(H, vertex_cap=4) is None   # fewer than 5 vertices


_D64_CHECK = """
import json, resource, time
from stepup.coloring import sample_coloring
from stepup.hypergraph import StepUpHypergraph, check_k5_free

def peak():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024

H = StepUpHypergraph(sample_coloring(64, 0))
out = {"baseline": peak(), "stats": {}}
t0 = time.perf_counter()
out["free"] = check_k5_free(H, force=True, stats=out["stats"]) is None
out["seconds"] = time.perf_counter() - t0
out["peak"] = peak()
print(json.dumps(out))
"""


def test_forced_check_at_d64_is_fast_and_small():
    # the first check builds the graph's D^3 tables (262,144 triples, about
    # 2.5 MB of keys and verdicts) and reads the 1,616 classes; no table of
    # delta patterns is built
    src = os.path.dirname(os.path.dirname(hg.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", _D64_CHECK], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": src}, timeout=300)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["free"]
    assert out["stats"] == {"engine": "order-types", "classes_checked": 1616,
                            "classes_fired": 0, "patterns_checked": 0}
    assert out["seconds"] < 0.5
    assert out["peak"] - out["baseline"] < 64 << 20


# --- the corrupted predicate --------------------------------------------------
#
# conftest.flipped_rule2 installs rule (ii) with its leading d1 > d2
# comparison reversed as both copies of the edge rules.  Any coloring that is
# monochromatic along an increasing delta chain then yields a K5; the checker
# has to catch it at D = 4.

def test_mutation_flipped_rule_ii_inequality_violates_at_d4():
    H = StepUpHypergraph(constant_coloring(4))
    assert check_k5_free(H) is None
    with flipped_rule2():
        v = check_k5_free(StepUpHypergraph(constant_coloring(4)))
    assert v is not None
    assert v.vertices == (0, 1, 2, 4, 8)
    for sub in v.subsets:
        assert sub["is_edge"]
        assert sub["rule"] == "RuleIII"
        d = sub["deltas"]
        assert d[0] < d[1] < d[2]
    # the honest classifier rejects the same subsets
    for sub in combinations(v.vertices, 4):
        assert not is_edge(H, sub)
    # once the context exits, graphs read the honest rules again
    for G in (H, StepUpHypergraph(constant_coloring(4))):
        assert check_k5_free(G) is None
        assert np.array_equal(G._edge3, _edge3_table(G.coloring))


def test_first_k5_check_builds_the_class_keys_once(monkeypatch):
    """A fresh graph's first check_k5_free builds its triple class keys
    once, for H._keys, and the edge table reads them from there."""
    hg._class_keys()   # cached per process, and built from its own keys
    calls = []
    real = hg._triple_keys

    def counted(pm):
        calls.append(len(pm))
        return real(pm)

    monkeypatch.setattr(hg, "_triple_keys", counted)
    for D in (5, 7, 64):
        calls.clear()
        H = StepUpHypergraph(sample_coloring(D, 1))
        assert check_k5_free(H, force=True) is None
        assert calls == [D]
        assert np.array_equal(H._edge3, _edge3_table(H.coloring))


def test_mutation_violation_found_for_random_seed_too():
    # seed 5 is the first sampled coloring at D = 4 that the corrupted
    # classifier trips over
    H = StepUpHypergraph(sample_coloring(4, 5))
    assert check_k5_free(H) is None
    with flipped_rule2():
        v = check_k5_free(StepUpHypergraph(sample_coloring(4, 5)))
    assert v is not None and v.vertices == (0, 1, 2, 4, 8)


def test_corrupted_engines_and_threads_agree():
    with flipped_rule2():
        H = StepUpHypergraph(constant_coloring(4))
        by_pattern, _ = hg._check_k5_patterns(H, 15)
        assert by_pattern.vertices == (0, 1, 2, 4, 8)
        assert _scan_scalar_lex(H, 16) == (0, 1, 2, 4, 8)
        v = check_k5_free(H, threads=2)
        assert v.vertices == (0, 1, 2, 4, 8)
        assert check_k5_free(H, 15, threads=2) == by_pattern
        # verdict direction: the corrupted classifier flags the corrupted edge
        assert classify_4tuple(H, (0, 1, 2, 4)) == (EdgeRule.RULE_III, True)
    assert classify_4tuple(H, (0, 1, 2, 4)) == (EdgeRule.RULE_I, False)


def test_violation_report_rejects_a_5set_the_classifier_clears():
    # (0, 1, 2, 4, 8) spans a K5 only under the corrupted rules; reporting
    # it under the honest ones is an engine disagreement, raised as a typed
    # error rather than an assert that python -O strips
    H = StepUpHypergraph(constant_coloring(4))
    with pytest.raises(EngineDisagreement, match=r"\(0, 1, 2, 4, 8\)") as exc:
        hg._violation_report(H, (0, 1, 2, 4, 8))
    assert exc.value.vertices == (0, 1, 2, 4, 8)


def test_edge_table_is_the_scalar_rules_on_every_genuine_triple():
    # a genuine delta triple is one that some 4-tuple has: no two equal
    # neighbours and no valley with d1 = d3; the table is False elsewhere
    colorings = [coloring_from_mask(4, mask) for mask in range(64)]
    colorings += [sample_coloring(D, seed)
                  for D in range(5, 9) for seed in range(4)]
    colorings += [sample_coloring(26, 0)]
    for phi in colorings:
        D, C = phi.D, phi.as_matrix().tolist()
        E3 = _edge3_table(phi).reshape(D, D, D)
        genuine = 0
        for a, b, c in np.ndindex(D, D, D):
            if a != b and b != c and not (a > b < c and a == c):
                assert E3[a, b, c] == _classify_deltas(a, b, c, C)[1]
                genuine += 1
            else:
                assert not E3[a, b, c]
        assert genuine == D * (D - 1) ** 2 - D * (D - 1) // 2


def test_edge_table_reads_the_scalar_rules_once_per_class():
    # the table is derived from _classify_deltas: one call per genuine
    # order type and color triple, never on a triple that no 4-tuple has
    for phi in (sample_coloring(26, 0), constant_coloring(9),
                paley_coloring(27, 26)):
        classes = []

        def counted(d1, d2, d3, C):
            assert d1 != d2 and d2 != d3 and not (d1 > d2 < d3 and d1 == d3)
            classes.append(((d1 > d2) - (d1 < d2), (d2 > d3) - (d2 < d3),
                            (d1 > d3) - (d1 < d3),
                            C[d1][d2], C[d2][d3], C[d1][d3]))
            return _classify_deltas(d1, d2, d3, C)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(hg, "_classify_deltas", counted)
            table = _edge3_table(phi)
        assert 0 < len(classes) == len(set(classes)) <= 7 * 8
        assert np.array_equal(table, _edge3_table(phi))


def test_mutant_reaches_the_table_through_the_scalar_rules():
    # flipped_rule2 patches _classify_deltas alone; a graph built inside
    # the context tables the mutant on every genuine triple
    colorings = [coloring_from_mask(4, mask) for mask in range(64)]
    colorings += [sample_coloring(D, seed)
                  for D in range(5, 9) for seed in range(2)]
    colorings += [constant_coloring(7), sample_coloring(26, 0)]
    changed = 0
    for phi in colorings:
        D, C = phi.D, phi.as_matrix().tolist()
        with flipped_rule2():
            E3 = StepUpHypergraph(phi)._edge3.reshape(D, D, D)
        changed += not np.array_equal(E3.ravel(), _edge3_table(phi))
        for a, b, c in np.ndindex(D, D, D):
            if a != b and b != c and not (a > b < c and a == c):
                assert E3[a, b, c] == flipped_rule2_deltas(a, b, c, C)[1]
            else:
                assert not E3[a, b, c]
    assert changed == len(colorings)


# --- non-edge extraction from 5-sets ------------------------------------------

def test_find_nonedge_spec_examples():
    H = graph(3, 0)
    sub = find_nonedge_in_5set(H, (0, 1, 2, 3, 4))
    assert sub == (0, 1, 2, 3)  # delta pattern 0 < 1 > 0 is a local max
    assert classify_4tuple(H, sub) == (EdgeRule.NONE_SLOT, False)
    # monotone 5-set whose first 4-subtuple fails rule (i): all-Red makes
    # every rule (i) equation fail
    H4 = StepUpHypergraph(constant_coloring(4))
    assert find_nonedge_in_5set(H4, (0, 1, 2, 4, 8)) == (0, 1, 2, 4)


def test_find_nonedge_random_sweep_d24():
    H = graph(24, 12)
    rng = np.random.default_rng(3)
    for _ in range(10 ** 4):
        vs = np.sort(rng.choice(1 << 24, size=5, replace=False))
        vs = tuple(int(v) for v in vs)
        sub = find_nonedge_in_5set(H, vs)
        assert set(sub) < set(vs)
        assert not is_edge(H, sub)


def test_find_nonedge_validation_and_bug_trap(monkeypatch):
    H = graph(4, 0)
    with pytest.raises(MalformedTuple):
        find_nonedge_in_5set(H, (0, 1, 2, 3))
    with pytest.raises(MalformedTuple):
        find_nonedge_in_5set(H, (0, 1, 2, 3, 3))
    monkeypatch.setattr(hg, "is_edge", lambda H, e: True)
    with pytest.raises(NoNonEdge) as exc:
        find_nonedge_in_5set(H, (0, 1, 2, 3, 4))
    assert exc.value.vertices == (0, 1, 2, 3, 4)


# --- independence -------------------------------------------------------------

def bad_subset_table(H, F2=(), F3=()):
    """bad[mask] == True iff the vertex set of mask contains an edge, a pair
    whose delta is in F2 or a triple whose consecutive deltas are in F3."""
    V = H.vertex_count
    bad = np.zeros(1 << V, dtype=bool)
    for sub in combinations(range(V), 4):
        if is_edge(H, sub):
            bad[sum(1 << v for v in sub)] = True
    for u, v in combinations(range(V), 2):
        if delta_sequence((u, v))[0] in F2:
            bad[1 << u | 1 << v] = True
    for sub in combinations(range(V), 3):
        if tuple(delta_sequence(sub)) in F3:
            bad[sum(1 << v for v in sub)] = True
    idx = np.arange(1 << V)
    for b in range(V):
        has = (idx >> b) & 1 == 1
        bad[idx[has]] |= bad[idx[has] ^ (1 << b)]
    return bad


def lex_first_max_set(bad):
    """Lexicographically first largest vertex set that bad does not mark."""
    V = int(bad.size).bit_length() - 1
    sizes = np.bitwise_count(np.arange(bad.size))
    alpha = sizes[~bad].max()
    return min(tuple(v for v in range(V) if (int(m) >> v) & 1)
               for m in np.flatnonzero(~bad & (sizes == alpha)))


def test_is_independent_examples():
    H = StepUpHypergraph(constant_coloring(4, color=1))
    w = is_independent(H, (0, 4, 5, 13))  # known rule (iii) edge
    assert w is not None
    assert w.vertices == (0, 4, 5, 13)
    assert w.branch == "DirectScanBranch"
    assert w.rule == EdgeRule.RULE_III
    assert w.validate(H)
    d = w.as_dict()
    assert d["vertices"] == [0, 4, 5, 13] and d["rule"] == "RuleIII"

    H2 = graph(2, 0)
    assert is_independent(H2, (0, 1, 2, 3)) is None

    with pytest.raises(SetTooSmall):
        is_independent(H, (0, 1, 2))
    with pytest.raises(MalformedTuple):
        is_independent(H, (0, 1, 2, 2, 5))
    with pytest.raises(BudgetExceeded):
        is_independent(H, range(12), budget=100)


def test_is_independent_traps_a_non_edge_from_its_engine(monkeypatch):
    # an engine bug that returns a non-edge must not be reported as a
    # witness, with or without python -O
    H = graph(5, 2)
    vs = (0, 1, 2, 3)
    assert not is_edge(H, vs)
    monkeypatch.setattr(hg, "_first_edge", lambda H, q: vs)
    with pytest.raises(EngineDisagreement, match=r"\(0, 1, 2, 3\)") as exc:
        is_independent(H, range(8))
    assert exc.value.vertices == vs


def test_is_independent_agrees_with_bitmask_oracle():
    rng = np.random.default_rng(17)
    for seed in range(5):
        H = graph(4, seed)
        bad = bad_subset_table(H)
        # every 4-subset, plus random larger queries across all sizes
        for sub in combinations(range(16), 4):
            mask = sum(1 << v for v in sub)
            assert (is_independent(H, sub) is None) == (not bad[mask])
        for _ in range(300):
            k = int(rng.integers(5, 13))
            q = tuple(int(v) for v in rng.choice(16, size=k, replace=False))
            mask = sum(1 << v for v in q)
            assert (is_independent(H, q) is None) == (not bad[mask])


# --- exact independence number ------------------------------------------------

def test_exact_alpha_d2_trivial():
    r = exact_alpha(graph(2, 0))
    assert r.alpha == 4
    assert r.witness == (0, 1, 2, 3)
    assert r.method == "half-split-recursion"


def test_exact_alpha_d3_matches_brute_oracle_all_colorings():
    for mask in range(8):
        H = StepUpHypergraph(coloring_from_mask(3, mask))
        best = 0
        for m in range(256):
            q = [v for v in range(8) if (m >> v) & 1]
            if len(q) < 4:
                best = max(best, len(q))
                continue
            if all(not is_edge(H, sub) for sub in combinations(q, 4)):
                best = max(best, len(q))
        r = exact_alpha(H)
        assert r.alpha == best
        assert r.witness == lex_first_max_set(bad_subset_table(H))


def test_exact_alpha_d4_matches_bitmask_oracle():
    idx = np.arange(1 << 16, dtype=np.uint32)
    sizes = np.bitwise_count(idx).astype(np.int8)
    for seed in range(12):
        H = graph(4, seed)
        bad = bad_subset_table(H)
        want = int(sizes[~bad].max())
        r = exact_alpha(H)
        assert r.alpha == want
        assert is_independent(H, r.witness) is None
        assert len(r.witness) == r.alpha
        assert r.witness == lex_first_max_set(bad)


def test_exact_alpha_d5_branch_and_bound():
    r = exact_alpha(graph(5, 1))
    assert r.alpha == 12
    assert r.method == "half-split-recursion"
    assert r.nodes == 19 == sum(r.level_states)
    assert r.level_states == (1, 2, 6, 6, 3, 1)
    assert r.witness == (0, 1, 2, 4, 5, 6, 7, 16, 18, 19, 24, 25)
    assert is_independent(graph(5, 1), r.witness) is None


def test_exact_alpha_d5_benchmark_instance():
    H = graph(5, 2)
    r = exact_alpha(H)
    assert (r.alpha, r.nodes, r.method) == (11, 18, "half-split-recursion")
    assert r.witness == (0, 1, 2, 3, 4, 8, 10, 11, 12, 14, 15)


# alpha and witness of sample_coloring(5, s), s = 0..11, as computed by the
# include-first branch and bound that the half split replaced
D5_ALPHA_AND_WITNESS = [
    (11, (0, 1, 2, 3, 4, 8, 10, 11, 12, 14, 15)),
    (12, (0, 1, 2, 4, 5, 6, 7, 16, 18, 19, 24, 25)),
    (11, (0, 1, 2, 3, 4, 8, 10, 11, 12, 14, 15)),
    (14, (0, 1, 2, 4, 8, 10, 16, 17, 24, 25, 28, 29, 30, 31)),
    (15, (0, 1, 4, 6, 7, 8, 12, 13, 16, 20, 21, 24, 26, 28, 29)),
    (13, (0, 1, 4, 8, 10, 16, 17, 18, 20, 24, 25, 28, 29)),
    (12, (0, 1, 8, 10, 12, 13, 16, 20, 22, 24, 25, 28)),
    (16, (0, 1, 4, 5, 6, 8, 12, 13, 16, 17, 18, 19, 24, 25, 26, 27)),
    (13, (0, 2, 4, 6, 8, 12, 13, 16, 20, 24, 25, 28, 30)),
    (18, (0, 1, 2, 3, 4, 8, 10, 11, 12, 14, 15, 16, 18, 24, 26, 28, 30, 31)),
    (13, (0, 1, 2, 8, 12, 16, 17, 18, 20, 24, 25, 26, 27)),
    (15, (0, 1, 4, 5, 6, 8, 10, 16, 17, 18, 19, 24, 25, 26, 27)),
]


def test_exact_alpha_d5_matches_branch_and_bound_table():
    for seed, want in enumerate(D5_ALPHA_AND_WITNESS):
        r = exact_alpha(graph(5, seed))
        assert (r.alpha, r.witness) == want, seed


def pattern_masks(D, F2, F3):
    """Pair deltas F2 and patterns F3 as the recursion's bitmasks."""
    shell = hg._pattern_layout(D)[0]
    return (sum(1 << a for a in F2),
            sum(1 << int(shell[a, b]) for a, b in F3))


def test_constrained_recursion_matches_brute_force():
    """A(k, F2, F3) and its lex-first witness against every subset of
    [0, 2^k), on seeded random constraints at k = 3 and 4."""
    rng = np.random.default_rng(11)
    checked = 0
    for k, instances in ((3, 48), (4, 40)):
        for _ in range(instances):
            H = graph(k, int(rng.integers(1 << 30)))
            F2 = {a for a in range(k) if rng.random() < 0.2}
            F3 = {(a, b) for a in range(k) for b in range(k)
                  if a != b and rng.random() < 0.25}
            r = hg._alpha_recursion(H, 10 ** 6, *pattern_masks(k, F2, F3))
            want = lex_first_max_set(bad_subset_table(H, F2, F3))
            assert (r.alpha, r.witness) == (len(want), want), (k, F2, F3)
            assert r.alpha == max(r.a0, r.aR + r.aL)
            checked += 1
    assert checked >= 80


def test_exact_alpha_paley_gf27_at_d26():
    H = StepUpHypergraph(paley_coloring(27, 26))
    r = exact_alpha(H)
    assert (r.alpha, r.nodes, r.witness_from) == (74, 40_587, "split")
    assert len(r.level_states) == 27 and sum(r.level_states) == r.nodes
    assert len(r.witness) == 74 and is_independent(H, r.witness) is None


def test_half_split_lemma_on_every_4tuple():
    """Across the halves of [0, 32) a 4-tuple is an edge exactly as the
    split rules say; inside R it is an edge iff its translate into L is."""
    D, h = 5, 16
    for seed in range(3):
        H = graph(D, seed)
        E3 = _edge3_table(H.coloring).reshape(D, D, D)
        for t in combinations(range(2 * h), 4):
            verdict = classify_4tuple(H, t)
            d1, d2, d3 = delta_sequence(t)
            in_low = sum(v < h for v in t)
            if in_low == 2:
                assert verdict == (EdgeRule.NONE_SLOT, False)
            elif in_low == 1:
                assert d1 == D - 1 and verdict[1] == E3[D - 1, d2, d3]
            elif in_low == 3:
                assert d3 == D - 1 and verdict[1] == E3[d1, d2, D - 1]
            elif in_low == 0:
                assert verdict == classify_4tuple(H, [v - h for v in t])


def test_exact_alpha_ge_greedy_invariant():
    for seed in (2, 3):
        H = graph(4, seed)
        chosen = []
        for v in range(16):
            trial = chosen + [v]
            if len(trial) < 4 or all(
                    not is_edge(H, sub) for sub in combinations(trial, 4)):
                chosen.append(v)
        assert exact_alpha(H).alpha >= len(chosen)


def test_exact_alpha_budgets():
    r = exact_alpha(graph(6, 0))
    assert (r.alpha, r.nodes) == (21, 34)
    assert exact_alpha(graph(6, 0), node_budget=34) == r
    with pytest.raises(BudgetExceeded, match="state budget 33") as exc:
        exact_alpha(graph(6, 0), node_budget=33)
    assert (exc.value.required, exc.value.budget) == (34, 33)
    with pytest.raises(BudgetExceeded):
        exact_alpha(graph(40, 0), node_budget=1000)


# --- the witness oracle and the per-D tables ----------------------------------

def scalar_first_edge(H, vertices):
    """First 4-subset (lex order) that classify_4tuple calls an edge, as the
    EdgeWitness fields is_independent reports, or None."""
    phi = H.coloring
    for sub in combinations(sorted(vertices), 4):
        rule, verdict = classify_4tuple(H, sub)
        if verdict:
            d1, d2, d3 = delta_sequence(sub)
            colors = [(min(a, b), max(a, b), phi.color(a, b))
                      for a, b in ((d1, d2), (d2, d3), (d1, d3))]
            return sub, (d1, d2, d3), rule, colors
    return None


def test_is_independent_returns_the_scalar_scans_first_edge():
    rng = np.random.default_rng(29)
    found = {True: 0, False: 0}
    for D in range(3, 9):
        for seed in range(4):
            H = graph(D, seed)
            for _ in range(40):
                k = int(rng.integers(4, min(14, 1 << D) + 1))
                q = [int(v) for v in rng.choice(1 << D, size=k, replace=False)]
                want = scalar_first_edge(H, q)
                got = is_independent(H, q)
                found[want is not None] += 1
                if want is None:
                    assert got is None
                    continue
                assert (got.vertices, got.deltas, got.rule, got.colors) == want
                assert got.branch == "DirectScanBranch"
                assert got.validate(H)
    # exact_alpha witnesses, in reverse order, are independent sets
    for D in (3, 4, 5):
        for seed in range(4):
            H = graph(D, seed)
            w = exact_alpha(H).witness
            assert scalar_first_edge(H, w) is None
            assert is_independent(H, w[::-1]) is None
    assert found[True] > 100 and found[False] > 100


def test_edge_engine_matches_the_scalar_scan_up_to_40_vertices():
    rng = np.random.default_rng(43)
    found = {True: 0, False: 0}
    for D in range(3, 10):
        for seed in range(3):
            H = graph(D, seed)
            for _ in range(60):
                k = int(rng.integers(4, min(40, 1 << D) + 1))
                q = [int(v) for v in rng.choice(1 << D, size=k, replace=False)]
                want = scalar_first_edge(H, q)
                got = is_independent(H, q)
                found[want is not None] += 1
                if want is None:
                    assert got is None
                else:
                    assert (got.vertices, got.deltas, got.rule,
                            got.colors) == want
    # an independent set plus one vertex: the first edge may start late
    for D in (7, 8):
        for seed in range(3):
            H = graph(D, seed)
            w = exact_alpha(H).witness
            for v in rng.choice(sorted(set(range(1 << D)) - set(w)), size=8,
                                replace=False):
                q = [*w, int(v)]
                want = scalar_first_edge(H, q)
                got = is_independent(H, q)
                found[want is not None] += 1
                assert (None if got is None else got.vertices) == (
                    None if want is None else want[0])
    assert found[True] > 100 and found[False] > 100


def test_first_edge_walk_matches_the_scalar_scan_where_edges_start_late():
    """The locate walk finds the scan's first edge when the early vertex
    pairs start none: exact-alpha witnesses with one or two vertices
    added, in reverse order, at D = 5 to 8."""
    rng = np.random.default_rng(47)
    late = 0
    for D in (5, 6, 7, 8):
        for seed in range(4):
            H = graph(D, seed)
            w = exact_alpha(H).witness
            rest = sorted(set(range(1 << D)) - set(w))
            for extra in (1, 2) * 4:
                q = [*w, *(int(v) for v in rng.choice(rest, size=extra,
                                                      replace=False))]
                want = scalar_first_edge(H, q)
                got = is_independent(H, q[::-1])
                assert (None if got is None else got.vertices) == (
                    None if want is None else want[0])
                # pairs (0, 1) to (0, 3) start no edge
                late += want is not None and sorted(q).index(want[0][1]) > 3
    assert late > 40


def test_exact_alpha_checks_witnesses_above_222_vertices():
    # binom(232, 4) = 117M 4-subsets: over the independence budget, which
    # gates is_independent but not the witness check
    H = StepUpHypergraph(constant_coloring(21))
    r = exact_alpha(H)
    assert r.alpha == len(r.witness) == 232
    assert list(r.witness) == sorted(set(r.witness))
    with pytest.raises(BudgetExceeded):
        is_independent(H, r.witness)
    assert is_independent(H, r.witness, budget=math.comb(232, 4)) is None
    # a second, plain route: classify_4tuple on a seeded sample
    picks = np.sort(np.random.default_rng(21).integers(232, size=(120_000, 4)))
    picks = picks[(np.diff(picks, axis=1) > 0).all(axis=1)][:10 ** 5]
    assert len(picks) == 10 ** 5
    w = np.array(r.witness)
    assert not any(classify_4tuple(H, sub)[1] for sub in w[picks])


def test_is_independent_errors_are_unchanged():
    H = graph(4, 0)
    with pytest.raises(MalformedTuple,
                       match="^independent-set query requires distinct vertices$"):
        is_independent(H, (0, 1, 2, 3, 3))
    with pytest.raises(SetTooSmall, match="^need at least 4 vertices, got 3$"):
        is_independent(H, (0, 1, 2))
    with pytest.raises(MalformedTuple, match=r"^vertices outside \[0, 2\^D\)$"):
        is_independent(H, (0, 1, 2, 16))
    with pytest.raises(MalformedTuple, match=r"^vertices outside \[0, 2\^D\)$"):
        is_independent(H, (-1, 1, 2, 3))
    with pytest.raises(BudgetExceeded,
                       match=r"^binom\(12,4\) = 495 exceeds budget 100$") as exc:
        is_independent(H, range(12), budget=100)
    assert (exc.value.required, exc.value.budget) == (495, 100)


def test_exact_alpha_d5_seed_9_is_pinned():
    H = graph(5, 9)
    r = exact_alpha(H)
    assert r.as_dict() == {
        "alpha": 18,
        "witness": [0, 1, 2, 3, 4, 8, 10, 11, 12, 14, 15, 16, 18, 24, 26, 28,
                    30, 31],
        "method": "half-split-recursion", "nodes": 16, "a0": 11, "aR": 11,
        "aL": 7, "witness_from": "split", "level_states": [1, 2, 4, 6, 2, 1]}
    assert is_independent(H, r.witness) is None
    r2 = exact_alpha(graph(5, 2))
    assert (r2.a0, r2.aR, r2.aL, r2.witness_from) == (11, 4, 7, "one-half")


def test_exact_alpha_cache_holds_no_coloring_state():
    # no memo or result outlives a call: interleaved calls, on fresh graphs
    # and on graphs reused across calls, give what a first call gives
    cases = [(5, 9), (4, 1), (5, 2), (3, 0), (2, 0), (5, 1), (4, 3), (8, 2)]
    fresh = {case: exact_alpha(graph(*case)).as_dict() for case in cases}
    reused = {case: graph(*case) for case in cases}
    for case in cases * 3:
        assert exact_alpha(graph(*case)).as_dict() == fresh[case]
        assert exact_alpha(reused[case]).as_dict() == fresh[case]
    for (D, _), H in reused.items():
        # a graph keeps only its coloring's own read-only tables
        assert set(vars(H)) <= {"D", "coloring", "_color_rows", "_edge3",
                                "_keys"}
        with pytest.raises(ValueError):
            H._edge3[...] = False
        # the class keys are below 216, a byte per triple
        assert H._keys.dtype == np.uint8 and not H._keys.flags.writeable
        with pytest.raises(ValueError):
            H._keys[...] = 0
        # the per-D tables say nothing of phi and cannot be written
        shell, keep2, keep3, with_entry = hg._pattern_layout(D)
        assert sorted(shell.ravel()) == list(range(D * D))
        with pytest.raises(ValueError):
            shell[...] = 0
        assert all(isinstance(t, tuple) for t in (keep2, keep3, with_entry))


def test_exact_alpha_witness_spanning_an_edge_at_d5_is_a_typed_error(
        monkeypatch):
    H = graph(5, 2)
    honest = exact_alpha(H)
    spanning = tuple(range(honest.alpha))
    first_edge = scalar_first_edge(H, spanning)[0]

    def engine(H, node_budget):
        return hg.AlphaResult(alpha=honest.alpha, witness=spanning,
                              method="half-split-recursion", nodes=18,
                              a0=honest.a0, aR=honest.aR, aL=honest.aL,
                              witness_from="one-half",
                              level_states=honest.level_states)

    monkeypatch.setattr(hg, "_alpha_recursion", engine)
    with pytest.raises(EngineDisagreement, match="spans the edge") as exc:
        exact_alpha(H)
    assert exc.value.vertices == spanning
    assert exc.value.edge == first_edge
