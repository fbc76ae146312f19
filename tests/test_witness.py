"""Tests for layered witness extraction."""

import hashlib
import json
import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from conftest import tuple_from_distinct_deltas
from hypothesis import given, settings
from hypothesis import strategies as st

import stepup.witness as w
from stepup.coloring import (
    PairColoring,
    certify_good_property,
    find_good_triple,
    pair_index,
    paley_coloring,
    sample_coloring,
    search_certified_coloring,
)
from stepup.delta import PropertyReport
from stepup.errors import (
    ExtractorError,
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
from stepup.hypergraph import EdgeRule, StepUpHypergraph, is_independent
from stepup.witness import (
    LayerStack,
    MonotoneRun,
    build_layers,
    edge_from_monotone_run,
    extract_edge,
    extract_with_layers,
    guarantee_threshold,
    load_q,
    random_subset,
    save_q,
    select_anchors,
    verify_star_property,
)

RULER = np.arange(1024, dtype=np.uint64)


def pair_colors(D, assignment):
    """Coloring with the given {(a,b): color} entries, Red elsewhere."""
    npairs = D * (D - 1) // 2
    bits = np.zeros(npairs, dtype=np.uint8)
    for (a, b), c in assignment.items():
        bits[pair_index(min(a, b), max(a, b), D)] = c
    return PairColoring(D, bits)


def constant_graph(D, color=0):
    npairs = D * (D - 1) // 2
    phi = PairColoring(D, np.full(npairs, color, dtype=np.uint8))
    return StepUpHypergraph(phi)


def _layer(stack, t):
    """Layer t as a position array, materialising an implicit layer 0 (every
    position) or layer 1 (the interior strict maxima of the stack's own
    deltas)."""
    layer = stack.layers[t]
    if layer is not None:
        return layer
    if t == 0:
        return np.arange(stack.deltas.size, dtype=np.int32)
    return _strict_maxima(stack.deltas)


def _strict_maxima(d):
    """The positions of the interior strict local maxima of d, as int32."""
    peak = (d[1:-1] > d[:-2]) & (d[1:-1] > d[2:])
    return (np.flatnonzero(peak) + 1).astype(np.int32)


def _with_layer1(stack):
    """The same stack with layer 1 stored, read from its own deltas."""
    return replace(stack, layers=[None, _layer(stack, 1)] + stack.layers[2:])


@pytest.fixture(scope="module")
def certified12():
    res = search_certified_coloring(12, 5)
    assert res.success
    return StepUpHypergraph(res.coloring)


# --- build_layers -------------------------------------------------------------


def test_build_layers_smallest_example():
    with pytest.raises(InsufficientLayers, match="layer 2"):
        build_layers([0, 1, 2, 3], 5)


def test_build_layers_rejects_bad_inputs():
    with pytest.raises(InvalidN):
        build_layers(RULER, 2)
    with pytest.raises(SetTooSmall):
        build_layers([7], 5)
    with pytest.raises(MalformedTuple):
        build_layers([3, 3, 5, 9], 5)
    with pytest.raises(MalformedTuple):
        build_layers(np.zeros((2, 2), dtype=np.uint64), 5)


def test_ruler_stack_has_halving_layers():
    stack = build_layers(RULER, 5)
    assert isinstance(stack, LayerStack)
    assert stack.layer_sizes == [1023, 511, 255, 127, 63, 31, 15, 7]
    # the ruler's t-th layer holds exactly the positions = 2^t - 1 mod 2^t
    for t in range(len(stack.layers)):
        layer = _layer(stack, t)
        step = 1 << t
        assert layer[0] == step - 1 and np.all(np.diff(layer) == step)
    assert [round(b, 4) for b in stack.beta[:3]] == [1023, 102.3, 10.23]
    assert all(entry["meets_beta"] for entry in stack.beta_report())


def test_monotone_run_short_circuits_layering(certified12):
    # multiples of 64 never form a 3-run; the spliced chain is the leftmost
    base = {64 * a for a in range(32)}
    chain = {1024 + x for x in (1, 3, 7, 15, 31)}
    q = np.array(sorted(base | chain), dtype=np.uint64)
    run = build_layers(q, 5)
    assert isinstance(run, MonotoneRun)
    assert run.layer == 0
    assert run.direction == "Increasing"
    assert run.positions == (16, 17, 18, 19, 20)
    assert run.values == (0, 1, 2, 3, 4)
    wit = extract_edge(certified12, q, 5)
    assert wit.branch == "MonotoneRunBranch"
    assert wit.vertices == (1024, 1025, 1027, 1039)
    assert wit.rule is EdgeRule.RULE_I


def test_run_scan_prefers_leftmost_window():
    vs = tuple_from_distinct_deltas((11, 9, 7, 5, 2, 3, 4, 6, 8, 10))
    run = build_layers(vs, 5)
    assert isinstance(run, MonotoneRun)
    assert run.direction == "Decreasing"
    assert run.positions == (0, 1, 2, 3, 4)
    assert run.values == (11, 9, 7, 5, 2)


def _realize(deltas):
    """The smallest increasing vertices from 0 whose consecutive deltas
    are the given ones (each step sets its bit and clears those below)."""
    vs = [0]
    for d in deltas:
        assert not vs[-1] >> d & 1, "delta sequence is not realizable"
        vs.append((vs[-1] | 1 << d) >> d << d)
    return np.array(vs, dtype=np.uint64)


def _leftmost_run(v, n):
    """(start, direction) of the leftmost n strictly monotone values."""
    for i in range(len(v) - n + 1):
        win = v[i:i + n]
        if all(x < y for x, y in zip(win, win[1:])):
            return i, "Increasing"
        if all(x > y for x, y in zip(win, win[1:])):
            return i, "Decreasing"
    return None


def _reference_build(q, n):
    """build_layers' outcome from stored layers: the leftmost n-run of
    layer 0, 1, ... in that order, as (layer, positions, direction), or
    the layer sizes; a layer that comes out empty gives its number."""
    d = w.consecutive_deltas(q)
    layer = np.arange(d.size)
    sizes = []
    for t in range(8):
        v = d[layer].tolist()
        sizes.append(len(v))
        hit = _leftmost_run(v, n)
        if hit is not None:
            return t, tuple(layer[hit[0]:hit[0] + n].tolist()), hit[1]
        if t == 7:
            return sizes
        layer = layer[[i for i in range(1, len(v) - 1)
                       if v[i - 1] < v[i] > v[i + 1]]]
        if layer.size == 0:
            return t + 1


def _spiky_q(rng, length, D):
    """Vertices whose deltas alternate 0 and a random higher delta, with
    one random delta in ten: layer 1 holds the higher ones, and layer 0
    has a run only where the random deltas make one."""
    vs = [0]
    for i in range(length):
        free = [b for b in range(D) if not vs[-1] >> b & 1]
        if i % 2 == 0 and rng.random() > 0.1:
            free = free[:1]
        elif len(free) > 1 and rng.random() > 0.1:
            free = free[1:]
        if not free:
            break
        b = free[int(rng.integers(len(free)))]
        vs.append((vs[-1] | 1 << b) >> b << b)
    return np.array(vs, dtype=np.uint64)


def _built(q, n):
    try:
        built = build_layers(q, n)
    except InsufficientLayers as exc:
        return exc.trace["layer"]
    if isinstance(built, MonotoneRun):
        return built.layer, built.positions, built.direction
    assert built.layers[:2] == [None, None]
    return built.layer_sizes


@pytest.mark.parametrize("chunk", [2, 7, None])
def test_layer1_runs_are_found_in_the_scan_of_layer0(monkeypatch, chunk):
    """A run in layer 1 is found without storing layer 1, and a run in
    layer 0 anywhere, even right of it, comes first.

    Slices of 2 and 7 deltas put slice boundaries inside every run; chunk
    None keeps the default slices.  Random Qs at n = 3 to 5, and spiky
    ones at n = 3 and 4, many of which end in a layer-1 run or in a
    layer-0 run right of one, must give the outcome of stored layers.
    """
    if chunk is not None:
        monkeypatch.setattr(w, "_SCAN_CHUNK", chunk)
    # layer 1 is 5, 6, 7 at positions 1, 3, 5; layer 0 has no 3-run
    run = build_layers(_realize([0, 5, 0, 6, 0, 7, 0]), 3)
    assert run == MonotoneRun(layer=1, positions=(1, 3, 5),
                              direction="Increasing", values=(5, 6, 7))
    # the same behind a layer-1 prefix that is no run: 9, 4, 8, 5, 6, 7
    run = build_layers(_realize([0, 9, 0, 4, 0, 8, 0, 5, 0, 6, 0, 7, 0]), 3)
    assert run == MonotoneRun(layer=1, positions=(7, 9, 11),
                              direction="Increasing", values=(5, 6, 7))
    # a layer-0 run (3, 2, 1) right of the layer-1 run (5, 6, 7)
    run = build_layers(_realize([0, 5, 0, 6, 0, 7, 0, 4, 0, 3, 2, 1]), 3)
    assert run == MonotoneRun(layer=0, positions=(9, 10, 11),
                              direction="Decreasing", values=(3, 2, 1))
    rng = np.random.default_rng(37)
    for _ in range(100):
        D = int(rng.integers(6, 11))
        q = random_subset(D, int(rng.integers(8, min(1 << D, 400))),
                          int(rng.integers(1 << 30)))
        n = int(rng.integers(3, 6))
        assert _built(q, n) == _reference_build(q, n)
    layer1_runs = shadowed = 0
    for _ in range(200):
        q = _spiky_q(rng, int(rng.integers(10, 150)), 24)
        n = int(rng.integers(3, 5))
        want = _reference_build(q, n)
        assert _built(q, n) == want
        if isinstance(want, tuple) and want[0] == 1:
            layer1_runs += 1
        elif isinstance(want, tuple) and want[0] == 0:
            # a layer-1 run left of the layer-0 run that is returned
            d = w.consecutive_deltas(q)
            P = _strict_maxima(d)
            hit = _leftmost_run(d[P].tolist(), n)
            shadowed += hit is not None and P[hit[0]] < want[1][0]
    assert layer1_runs > 30 and shadowed > 40


# --- monotone-run mapping -----------------------------------------------------


def test_increasing_run_maps_good_triple_to_rule_i_edge():
    rng = np.random.default_rng(7)
    H = StepUpHypergraph(sample_coloring(16, seed=2))
    q = np.array(tuple_from_distinct_deltas((2, 5, 7, 9, 11), rng=rng),
                 dtype=np.uint64)
    run = build_layers(q, 5)
    assert isinstance(run, MonotoneRun) and run.direction == "Increasing"
    wit = edge_from_monotone_run(H, q, run)
    gt = find_good_triple(H.coloring, run.values)
    assert wit.deltas == gt.as_tuple()
    assert wit.rule is EdgeRule.RULE_I
    assert wit.branch == "MonotoneRunBranch"
    assert wit.validate(H)
    assert wit.trace["good_triple"] == list(gt.as_tuple())


def test_decreasing_run_maps_in_value_order():
    rng = np.random.default_rng(8)
    H = StepUpHypergraph(sample_coloring(16, seed=2))
    q = np.array(tuple_from_distinct_deltas((11, 9, 7, 5, 2), rng=rng),
                 dtype=np.uint64)
    run = build_layers(q, 5)
    assert isinstance(run, MonotoneRun) and run.direction == "Decreasing"
    wit = edge_from_monotone_run(H, q, run)
    gt = find_good_triple(H.coloring, run.values)
    assert wit.deltas == (gt.c, gt.b, gt.a)
    assert wit.rule is EdgeRule.RULE_I
    assert wit.validate(H)


def test_run_without_good_triple_is_typed_failure():
    # every pair Red means no triple can have an odd color out
    H = constant_graph(16, color=0)
    q = np.array(tuple_from_distinct_deltas((2, 5, 7, 9, 11)), dtype=np.uint64)
    run = build_layers(q, 5)
    with pytest.raises(NoGoodTripleInRun):
        edge_from_monotone_run(H, q, run)


def test_lying_run_record_trips_the_gap_trap():
    H = StepUpHypergraph(sample_coloring(16, seed=2))
    q = np.array(tuple_from_distinct_deltas((2, 5, 7, 9, 11)), dtype=np.uint64)
    run = build_layers(q, 5)
    lying = MonotoneRun(layer=0, positions=run.positions,
                        direction="Decreasing",
                        values=tuple(reversed(run.values)))
    with pytest.raises(ProofGapTrap):
        edge_from_monotone_run(H, q, lying)


# --- anchor selection ---------------------------------------------------------


def test_ruler_anchors_climb_the_dyadic_tree():
    stack = build_layers(RULER, 5)
    anc = select_anchors(stack, sample_coloring(10, seed=3))
    assert (anc.a, anc.b1, anc.b2, anc.b3) == (127, 63, 95, 111)
    assert anc.deltas["a"] == 7
    assert (anc.deltas["b1"], anc.deltas["b2"], anc.deltas["b3"]) == (6, 5, 4)
    assert anc.b1 < anc.b2 < anc.b3 < anc.a


def test_pigeonhole_pair_priority_and_descent_chain():
    # colors consulted on the ruler are phi(6,7), phi(5,7), phi(4,7)
    stack = build_layers(RULER, 5)
    cases = [
        ({}, (1, 3), 63, 111, 4, (103, 107, 105, 106)),
        ({(5, 7): 1}, (1, 3), 63, 111, 4, (103, 107, 105, 106)),
        ({(4, 7): 1}, (1, 2), 63, 95, 5, (79, 87, 83, 85)),
        ({(6, 7): 1}, (2, 3), 95, 111, 4, (103, 107, 105, 106)),
    ]
    for assign, pair, B1, B3, ell, cdef in cases:
        anc = select_anchors(stack, pair_colors(10, assign))
        assert anc.pigeonhole_pair == pair, assign
        assert (anc.B1, anc.B3) == (B1, B3)
        assert anc.levels["B3"] == ell
        assert (anc.c, anc.d, anc.e, anc.f) == cdef
        assert anc.c < anc.e < anc.f < anc.d < anc.B3
        ds = anc.deltas
        assert ds["B3"] > ds["c"] > ds["d"] > ds["e"] > ds["f"]
        assert anc.levels["c"] == ell - 1 and anc.levels["f"] == ell - 4


def test_select_anchors_requires_full_stack():
    stack = build_layers(RULER, 5)
    shallow = LayerStack(q=stack.q, deltas=stack.deltas,
                         layers=stack.layers[:7], n=5, beta=stack.beta)
    with pytest.raises(InsufficientLayers):
        select_anchors(shallow, sample_coloring(10, seed=3))


def test_select_anchors_traps_an_out_of_order_chain():
    # a stack whose deltas break the anchor order is a proof gap, raised as
    # a typed error with the chain rather than an assert that python -O
    # strips
    stack = build_layers(random_subset(12, 2000, seed=4), 5)
    a = int(stack.layers[7][0])
    stack.deltas[a] = 0
    with pytest.raises(ProofGapTrap, match="anchor") as exc:
        select_anchors(stack, sample_coloring(12, seed=3))
    positions = exc.value.trace["positions"]
    assert positions["a"] == a
    assert exc.value.trace["deltas"] == {
        k: int(stack.deltas[p]) for k, p in positions.items()}
    assert exc.value.trace["deltas"]["a"] == 0


def test_layer1_neighbors_match_the_stored_layer(monkeypatch):
    """_neighbor_in reads an implicit layer 1 as searchsorted reads it
    stored: at every layer-1 lookup the anchor selection makes (each
    selection makes one, for e or f), and at random positions, where
    those off an end must raise InsufficientLayers."""
    lookups = []
    real = w._neighbor_in

    def spy(stack, pos, level, side):
        got = real(stack, pos, level, side)
        if level == 1:
            lookups.append((stack, pos, side, got))
        return got

    monkeypatch.setattr(w, "_neighbor_in", spy)
    rng = np.random.default_rng(43)
    stacks = []
    for _ in range(60):
        q = random_subset(12, int(rng.integers(1000, 4000)),
                          int(rng.integers(1 << 30)))
        try:
            stack = build_layers(q, 7)
        except InsufficientLayers:
            continue
        if isinstance(stack, LayerStack):
            stacks.append(stack)
            select_anchors(stack, sample_coloring(12, int(rng.integers(50))))
    assert len(lookups) == len(stacks) > 50
    for stack in stacks[:10]:
        for side in ("left", "right"):
            for pos in rng.integers(stack.deltas.size, size=20):
                lookups.append((stack, int(pos), side, None))
            lookups.append((stack, 0 if side == "left" else
                            stack.deltas.size - 1, side, None))
    ends = 0
    for stack, pos, side, got in lookups:
        P = _layer(stack, 1)
        i = int(np.searchsorted(P, pos, side=side)) - (side == "left")
        if not 0 <= i < P.size:
            ends += 1
            with pytest.raises(InsufficientLayers, match="layer 1"):
                real(stack, pos, 1, side)
            continue
        assert real(stack, pos, 1, side) == P[i]
        assert got is None or got == P[i]
    assert ends >= 20


# --- extract_edge -------------------------------------------------------------


def test_extract_direct_scan_on_small_q():
    H = constant_graph(4, color=1)
    q = np.array([0, 4, 5, 13], dtype=np.uint64)
    wit = extract_edge(H, q, 5)
    assert wit.branch == "DirectScanBranch"
    assert wit.vertices == (0, 4, 5, 13)
    assert wit.rule is EdgeRule.RULE_III
    assert wit.trace == {"path": "small-q scan"}
    # the scan is is_independent's: the same first edge, traced
    rng = np.random.default_rng(41)
    for q in [q] + [random_subset(7, int(rng.integers(4, 25)),
                                  int(rng.integers(1 << 30)))
                    for _ in range(40)]:
        H = StepUpHypergraph(sample_coloring(7, seed=int(rng.integers(100))))
        want = is_independent(H, q)
        if want is None:
            with pytest.raises(NeedMoreVertices):
                extract_edge(H, q, 5)
            continue
        assert extract_edge(H, q, 5).as_dict() == \
            {**want.as_dict(), "trace": {"path": "small-q scan"}}


def test_extract_rejects_bad_q():
    H = constant_graph(4)
    with pytest.raises(SetTooSmall):
        extract_edge(H, [0, 1, 2], 5)
    with pytest.raises(MalformedTuple):
        extract_edge(H, [0, 1, 2, 16], 5)
    with pytest.raises(MalformedTuple):
        extract_edge(H, [0, 2, 2, 3], 5)
    with pytest.raises(InvalidN):
        extract_edge(H, [0, 1, 2, 3], 2)


def test_extract_small_q_without_edge_asks_for_more():
    H = constant_graph(2)
    with pytest.raises(NeedMoreVertices):
        extract_edge(H, np.arange(4, dtype=np.uint64), 5)


def test_extract_needs_more_vertices_when_layering_dies(certified12):
    # 200 of 256 vertices is too dense for runs and too small for 7 layers
    res = search_certified_coloring(8, 5, base_seed=17, attempts=1)
    assert res.success
    H = StepUpHypergraph(res.coloring)
    q = random_subset(8, 200, seed=1)
    with pytest.raises(NeedMoreVertices):
        extract_edge(H, q, 5)


def test_extract_run_branch_at_certified_small_scale(certified12):
    q = random_subset(12, 100, seed=6)
    wit = extract_edge(certified12, q, 5)
    assert wit.branch == "MonotoneRunBranch"
    assert wit.vertices == (754, 995, 1013, 1019)
    assert wit.rule is EdgeRule.RULE_I
    assert wit.trace["run"]["direction"] == "Decreasing"
    assert set(wit.vertices) <= set(int(v) for v in q)


def test_extract_anchor_branch_at_certified_small_scale(certified12):
    q = random_subset(12, 2000, seed=4)
    wit = extract_edge(certified12, q, 5)
    assert wit.branch == "AnchorChainBranch"
    assert wit.vertices == (767, 895, 896, 1025)
    assert wit.rule is EdgeRule.RULE_III
    assert wit.candidate_index is not None
    assert wit.trace["candidates"][-1]["verdict"] is True
    assert wit.trace["anchors"]["a"] > wit.trace["anchors"]["B3"]
    assert set(wit.vertices) <= set(int(v) for v in q)


def test_extract_is_deterministic(certified12):
    q = random_subset(12, 2000, seed=4)
    w1 = extract_edge(certified12, q, 5)
    w2 = extract_edge(certified12, q, 5)
    assert w1.as_dict() == w2.as_dict()


def _holds_an_array(x) -> bool:
    if isinstance(x, np.ndarray):
        return True
    if isinstance(x, dict):
        return any(_holds_an_array(v) for v in x.values())
    if isinstance(x, (list, tuple)):
        return any(_holds_an_array(v) for v in x)
    return False


def test_extraction_hands_back_what_it_built(certified12):
    # the stack the anchor chain was read from, the run that was mapped,
    # and nothing for a direct scan, each as build_layers builds it anew
    for q, kind in ((random_subset(12, 2000, seed=4), LayerStack),
                    (random_subset(12, 100, seed=6), MonotoneRun),
                    (random_subset(12, 20, seed=0), type(None))):
        wit, built = extract_with_layers(certified12, q, 5)
        assert type(built) is kind
        assert wit.as_dict() == extract_edge(certified12, q, 5).as_dict()
        assert not _holds_an_array(vars(wit))
        if kind is type(None):
            assert wit.branch == "DirectScanBranch"
            continue
        fresh = build_layers(q, 5)
        if kind is MonotoneRun:
            assert built == fresh and wit.trace["run"] == built.as_dict()
            continue
        assert np.array_equal(built.q, q) and np.array_equal(built.deltas,
                                                              fresh.deltas)
        assert built.layers[:2] == [None, None]
        assert built.layer_sizes == fresh.layer_sizes
        for t in range(2, len(fresh.layers)):
            assert np.array_equal(built.layers[t], fresh.layers[t])
        assert verify_star_property(built) == verify_star_property(fresh)
        assert wit.trace["stack"] == built.as_dict()


def test_interval_q_full_scale_anchor_chain():
    H = StepUpHypergraph(sample_coloring(24, seed=11))
    q = np.arange(5_000_000, 15_000_001, dtype=np.uint64)
    stack = build_layers(q, 5)
    assert isinstance(stack, LayerStack)
    assert stack.layer_sizes == [10_000_000, 4_999_999, 2_499_999, 1_249_999,
                                 624_999, 312_499, 156_249, 78_123]
    anc = select_anchors(stack, H.coloring)
    assert (anc.a, anc.b1, anc.b2, anc.b3) == (191, 127, 159, 175)
    assert anc.deltas["a"] == 10
    wit = extract_edge(H, q, 5)
    assert wit.branch == "AnchorChainBranch"
    assert wit.vertices == (5_000_127, 5_000_151, 5_000_152, 5_000_160)
    assert wit.rule is EdgeRule.RULE_II
    assert wit.candidate_index == 7
    report = verify_star_property(stack)
    assert report.ok
    assert report.checks == {"star_pairs": 9_921_860, "drop_dominance": 4_999_999}


_N7_TRIAL = """
import json, resource
import numpy as np
from stepup.coloring import certify_good_property, paley_coloring
from stepup.hypergraph import StepUpHypergraph
from stepup.witness import (LayerStack, build_layers, extract_edge,
                            guarantee_threshold, random_subset,
                            verify_star_property)

def peak():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024

phi = paley_coloring(27, 27)
out = {"certified": certify_good_property(phi, 7).certified}
H = StepUpHypergraph(phi)
out["baseline"] = peak()
q = random_subset(27, guarantee_threshold(7), seed=0)
out["q_size"], out["q_bytes"] = int(q.size), int(q.nbytes)
wit = extract_edge(H, q, 7)
vs = np.array(wit.vertices, dtype=np.uint64)
out["valid"] = bool(wit.validate(H) and (q[np.searchsorted(q, vs)] == vs).all())
built = build_layers(q, 7)
if isinstance(built, LayerStack):
    out["star_ok"] = bool(verify_star_property(built).ok)
    out["sizes"] = built.layer_sizes
    out["layer1_held"] = built.layers[1] is not None
out["peak"] = peak()
print(json.dumps(out))
"""


def test_guarantee_scale_trial_at_n7():
    """One trial under the guarantee at n = 7: |Q| = 14^7 + 1 of 2^27.

    The Paley tournament on GF(27) has no transitive 7-subtournament, so
    extraction must succeed (about 3-4 s on a 2-core machine).  The trial
    runs in a fresh interpreter, whose peak RSS must stay within the
    larger of its two phases, on top of what the interpreter held before
    Q was drawn: the sampler's, Q and its byte map of the 2^27 vertices,
    and the stack's, Q, the int8 deltas and layers 2-7 at five bytes per
    element (int32 positions, and the values a scan reads and writes).
    It peaks at 1.07 GiB, most of it the stack as built; 1.26 GiB while
    layer 1 was stored, 1.37 GiB with index rows into the layer below,
    1.46 GiB while the star check copied whole layers.
    """
    src = os.path.dirname(os.path.dirname(w.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", _N7_TRIAL], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": src}, timeout=600)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["certified"] and out["valid"]
    assert out["q_size"] == 105_413_505
    sampler = out["q_bytes"] + (1 << 27)
    stack = out["q_bytes"]
    if "sizes" in out:
        assert out["star_ok"] and not out["layer1_held"]
        stack += out["sizes"][0] + 5 * sum(out["sizes"][2:])
    assert out["peak"] - out["baseline"] <= max(sampler, stack)


def test_extraction_guarantee_trips_gap_trap_not_retry(monkeypatch):
    H = StepUpHypergraph(sample_coloring(24, seed=11))
    q = np.arange(5_000_000, 15_000_001, dtype=np.uint64)
    assert q.size >= guarantee_threshold(5)
    monkeypatch.setattr(w, "is_edge", lambda H, vs: False)
    with pytest.raises(ProofGapTrap):
        extract_edge(H, q, 5)
    # same exhaustion below the threshold is merely NeedMoreVertices
    H10 = StepUpHypergraph(sample_coloring(10, seed=3))
    with pytest.raises(NeedMoreVertices):
        extract_edge(H10, RULER, 5)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10 ** 6), m=st.integers(30, 300))
def test_extract_returns_member_edge_or_typed_error(seed, m):
    H = StepUpHypergraph(sample_coloring(16, seed=5))
    q = random_subset(16, m, seed=seed)
    try:
        wit = extract_edge(H, q, 5)
    except ExtractorError:
        return
    assert wit.validate(H)
    assert set(wit.vertices) <= set(int(v) for v in q)
    assert wit.branch in {"DirectScanBranch", "MonotoneRunBranch",
                          "AnchorChainBranch"}


# --- star property ------------------------------------------------------------


def _star_reference(stack):
    """verify_star_property's reference oracle: each pair and each dropped
    element checked against the full delta sequence, on any stack whose
    layer 0 is implicit or an array, nested or not."""
    deltas = stack.deltas
    dpad = np.concatenate([deltas, np.array([-1], dtype=deltas.dtype)])
    checks = {"star_pairs": 0, "drop_dominance": 0}

    def fail(info):
        return PropertyReport(ok=False, checks=checks, counterexample=info)

    for t in range(1, len(stack.layers)):
        P = _layer(stack, t)
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
        nxt = _layer(stack, t + 1) if t + 1 < len(stack.layers) else P[:0]
        drop = np.setdiff1d(P, nxt, assume_unique=True).astype(np.int64)
        if drop.size == 0:
            continue
        prev = _layer(stack, t - 1)
        loc = np.searchsorted(prev, drop)
        edge = (loc == 0) | (loc >= prev.size - 1)
        if edge.any():
            return fail({"check": "drop_dominance", "layer": t,
                         "position": int(drop[int(np.argmax(edge))]),
                         "reason": "element not interior to layer below"})
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
            return fail({"check": "drop_dominance", "layer": t,
                         "position": int(drop[k]), "left": int(jm[k]),
                         "right": int(jp[k]),
                         "reason": "neighborhood not dominated"})
    return PropertyReport(ok=True, checks=checks, counterexample=None)


def test_star_property_holds_on_built_stacks(certified12):
    for stack in (build_layers(RULER, 5),
                  build_layers(random_subset(12, 2000, seed=4), 5)):
        report = verify_star_property(stack)
        assert report.ok
        assert report.counterexample is None
        assert report.checks["star_pairs"] > 0
        assert report.checks["drop_dominance"] > 0


def test_find_run_matches_brute_force():
    rng = np.random.default_rng(3)
    for _ in range(3000):
        n = int(rng.integers(3, 9))
        vals = rng.integers(0, int(rng.integers(1, 8)),
                            size=int(rng.integers(0, 30)))
        up, down = vals[1:] > vals[:-1], vals[1:] < vals[:-1]
        assert w._find_run(up, down, n) == _leftmost_run(vals.tolist(), n)


def test_build_layers_does_not_depend_on_scan_slices(monkeypatch):
    rng = np.random.default_rng(23)

    def outcome(q, n):
        try:
            built = build_layers(q, n)
        except InsufficientLayers as exc:
            return str(exc)
        if isinstance(built, MonotoneRun):
            return built.as_dict()
        return [_layer(built, t).tolist() for t in range(len(built.layers))]

    for _ in range(100):
        D = int(rng.integers(6, 12))
        q = random_subset(D, int(rng.integers(10, min(1 << D, 1000))),
                          int(rng.integers(1 << 30)))
        n = int(rng.integers(3, 8))
        whole = outcome(q, n)
        for chunk in (2, 7):
            monkeypatch.setattr(w, "_SCAN_CHUNK", chunk)
            assert outcome(q, n) == whole
        monkeypatch.undo()


def _local_maxima_stack(q):
    """All seven local-maxima layers, built without the run shortcut.

    The stack has the shape build_layers gives it: layers 0 and 1
    implicit and int32 positions in every other layer.
    """
    d = w.consecutive_deltas(q)
    layers = [None]
    prev = np.arange(d.size, dtype=np.int32)
    for t in range(1, 8):
        v = d[prev]
        idx = np.flatnonzero((v[1:-1] > v[:-2]) & (v[1:-1] > v[2:])) + 1
        if idx.size == 0:
            break
        prev = prev[idx]
        layers.append(None if t == 1 else prev)
    return LayerStack(q=q, deltas=d, layers=layers, n=5, beta=())


def _with_element_added(stack, rng):
    """The stack with one more element of some layer t-1 put into layer t.

    The element is an end of layer t-1 half the time it can be; the
    stack keeps build_layers' shape.
    """
    t = int(rng.integers(1, len(stack.layers)))
    below = _layer(stack, t - 1)
    own = np.searchsorted(below, _layer(stack, t))
    free = np.setdiff1d(np.arange(below.size), own)
    ends = np.intersect1d(free, [0, below.size - 1])
    pool = ends if ends.size and rng.integers(2) else free
    if pool.size == 0:
        return stack
    i = int(rng.choice(pool))
    k = int(np.searchsorted(own, i))
    layers = list(stack.layers)
    layers[t] = np.insert(_layer(stack, t), k, below[i]).astype(np.int32)
    return replace(stack, layers=layers)


def _with_element_removed(stack, rng):
    """The stack with one element of some layer t taken out; the stack
    is no longer nested when layer t+1 held it."""
    t = int(rng.integers(1, len(stack.layers)))
    P = _layer(stack, t)
    if P.size < 2:
        return stack
    k = int(rng.integers(P.size))
    layers = list(stack.layers)
    layers[t] = np.delete(P, k)
    return replace(stack, layers=layers)


def _first_unnested(stack):
    """The first layer with a position outside the layer below, or None."""
    for t in range(1, len(stack.layers)):
        if not np.isin(_layer(stack, t), _layer(stack, t - 1)).all():
            return t
    return None


def _random_stack(rng):
    """A seeded random Q's stack of build_layers' shape: as built, or all
    seven local-maxima layers where build_layers finds a run or fails."""
    D = int(rng.integers(6, 12))
    m = int(rng.integers(40, min(1 << D, 1000)))
    q = random_subset(D, m, int(rng.integers(1 << 30)))
    try:
        stack = build_layers(q, 7)
    except InsufficientLayers:
        stack = None
    if not isinstance(stack, LayerStack):
        stack = _local_maxima_stack(q)
    return D, stack


def _with_corrupted_deltas(stack, D, rng):
    """The stack with one to three deltas set to random values."""
    deltas = stack.deltas.copy()
    idx = rng.integers(deltas.size, size=int(rng.integers(1, 4)))
    deltas[idx] = rng.integers(0, D + 2, size=idx.size)
    return replace(stack, deltas=deltas)


@pytest.mark.parametrize("chunk", [2, None])
def test_nested_star_check_agrees_with_direct_scan(monkeypatch, chunk):
    """The layer-on-layer star check reports exactly what a direct scan does.

    Stacks of build_layers' shape are compared with the reference scan as
    built, with corrupted deltas, and with an element added to or removed
    from a layer.  A removal that leaves a layer outside the one below is
    refused, and the scan reports a failure on every such stack, so no
    passing stack is refused.  An explicit layer 0, and a layer out of
    order, with a repeated element or off the layer below are refused,
    naming the layer.  Windows of 2 put window boundaries inside every
    gap and run; chunk None keeps the default windows.
    """
    if chunk is not None:
        monkeypatch.setattr(w, "_STAR_CHUNK", chunk)
    rng = np.random.default_rng(17)
    compared = failing = refused = 0
    for _ in range(800):
        D, stack = _random_stack(rng)
        kind = int(rng.integers(7))
        bad_layer = None
        if kind == 1:
            # layer 1 stored, so that it stays what it was built as
            stack = _with_corrupted_deltas(_with_layer1(stack), D, rng)
        elif kind == 2 and len(stack.layers) > 1:
            stack = _with_element_removed(stack, rng)
        elif kind == 3 and len(stack.layers) > 1:
            # an explicit layer 0, whole or with holes the upper layers avoid
            base = _layer(stack, 0)
            if rng.integers(2):
                free = np.setdiff1d(base, _layer(stack, 1))
                holes = rng.choice(free, size=min(3, free.size), replace=False)
                base = np.setdiff1d(base, holes)
            stack.layers = [base] + list(stack.layers[1:])
            bad_layer = 0
        elif kind == 4 and len(stack.layers) > 2:
            # a higher layer reversed, or with one element repeated: its
            # positions are all in the layer below, but out of order
            rows = [t for t in range(2, len(stack.layers))
                    if stack.layers[t].size > 1]
            if rows:
                bad_layer = rows[int(rng.integers(len(rows)))]
                stack.layers = list(stack.layers)
                P = stack.layers[bad_layer]
                k = int(rng.integers(P.size))
                stack.layers[bad_layer] = (P[::-1].copy() if rng.integers(2)
                                           else np.insert(P, k, P[k]))
        elif kind == 5 and len(stack.layers) > 2:
            stack = _with_element_added(stack, rng)
        elif kind == 6 and len(stack.layers) > 1:
            # layer 1 out of order, or a higher layer moved off the layer
            # below: maxima are never adjacent, so p + 1 is no position there
            bad_layer = int(rng.integers(1, len(stack.layers)))
            stack.layers = list(stack.layers)
            P = _layer(stack, bad_layer)
            if bad_layer == 1 and P.size > 1:
                stack.layers[1] = P[::-1].copy()
            elif bad_layer > 1:
                stack.layers[bad_layer] = P + (np.arange(P.size) == P.size // 2)
            else:
                bad_layer = None
        reference = _star_reference(stack)
        if kind == 2:
            bad_layer = _first_unnested(stack)
            # a removal only unnests a stack the reference scan fails
            assert bad_layer is None or not reference.ok
        if bad_layer is not None:
            with pytest.raises(InvalidParams, match=f"layer {bad_layer} "):
                verify_star_property(stack)
            refused += 1
            continue
        assert _report_of(verify_star_property(stack)) == _report_of(reference)
        compared += 1
        failing += not reference.ok
    assert compared > 350 and failing > 200 and refused > 300


def _outcome(stack):
    """verify_star_property's report, or the message of its InvalidParams."""
    try:
        return _report_of(verify_star_property(stack))
    except InvalidParams as exc:
        return str(exc)


@pytest.mark.parametrize("chunk", [2, None])
def test_implicit_layer1_matches_its_stored_form(monkeypatch, chunk):
    """An implicit layer 1 is checked as the same layer stored.

    The stacks are drawn as in test_nested_star_check_agrees_with_direct_scan,
    as built and with corrupted deltas, which move an implicit layer 1
    with them.  On each, the report (or refusal) is the one for the stack
    with layer 1 stored from its own deltas, and a report is the
    reference scan's.  Windows of 2 put a window boundary at every delta.
    """
    if chunk is not None:
        monkeypatch.setattr(w, "_STAR_CHUNK", chunk)
    rng = np.random.default_rng(17)
    reports = failing = refused = 0
    for _ in range(200):
        D, built = _random_stack(rng)
        for stack in (built, _with_corrupted_deltas(built, D, rng)):
            assert stack.layers[1] is None
            got = _outcome(stack)
            assert got == _outcome(_with_layer1(stack))
            if isinstance(got, str):
                assert "layer 2 " in got
                refused += 1
                continue
            assert got == _report_of(_star_reference(stack))
            reports += 1
            failing += not got[0]
    assert reports > 250 and failing > 60 and refused > 40


@pytest.mark.parametrize("chunk", [2, None])
def test_stale_layer_is_refused_before_a_lower_failure(monkeypatch, chunk):
    """A layer out of shape is refused whatever a lower layer fails.

    Each stack has a delta raised inside a layer-1 gap, so that layer 1
    fails the interior check, and a higher layer reversed, or with one
    element moved off the layer below: maxima are never adjacent, so
    p + 1 is no position there.  The check raises InvalidParams naming
    that layer, not the failure of layer 1.
    """
    if chunk is not None:
        monkeypatch.setattr(w, "_STAR_CHUNK", chunk)
    rng = np.random.default_rng(31)
    stacks = 0
    while stacks < 30:
        q = random_subset(12, int(rng.integers(1000, 4000)),
                          int(rng.integers(1 << 30)))
        stack = build_layers(q, 7)
        if not isinstance(stack, LayerStack):
            continue
        stacks += 1
        P = _layer(stack, 1)
        k = int(np.argmax(P[1:] - P[:-1] >= 2))
        deltas = stack.deltas.copy()
        deltas[P[k] + 1] = 100              # above every delta
        # layer 1 stored, so that it stays what it was built as
        low = replace(stack, deltas=deltas,
                      layers=[None, P] + stack.layers[2:])
        reference = _star_reference(low)
        assert reference.counterexample["layer"] == 1
        assert _report_of(verify_star_property(low)) == _report_of(reference)
        t = int(rng.integers(3, len(stack.layers)))
        layers = list(low.layers)
        P = layers[t]
        if rng.integers(2) and P.size > 1:
            layers[t] = P[::-1].copy()
        else:
            layers[t] = P + (np.arange(P.size) == int(rng.integers(P.size)))
        with pytest.raises(InvalidParams, match=f"layer {t} "):
            verify_star_property(replace(low, layers=layers))


def test_layer_stack_memory_stays_lean():
    """Traced peaks of the stack build and the star check, against |Q|.

    An interval Q of 2^21 vertices always builds all seven layers.  Layer
    0 is left implicit and deltas are int8, so neither stage allocates an
    array of every position (an int32 layer 0 alone is half of q.nbytes).
    """
    q = np.arange(1 << 21, dtype=np.uint64)
    tracemalloc.start()
    try:
        stack = build_layers(q, 6)
        _, build_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        held, _ = tracemalloc.get_traced_memory()
        report = verify_star_property(stack)
        _, star_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert isinstance(stack, LayerStack) and len(stack.layers) == 8
    assert report.ok
    assert build_peak <= 1.25 * q.nbytes
    assert star_peak - held <= 0.4 * q.nbytes


def test_build_layers_holds_positions_and_values_only():
    """build_layers' traced peak is what its scans are built to hold.

    Layers 0 and 1 are read in one scan of the deltas, which holds them
    and layer 2's two buffers, positions and values, each sized for the
    ((|layer 0| - 1) // 2 - 1) // 2 strict maxima that a layer 1 of at
    most (|layer 0| - 1) // 2 elements can have.  While a layer t >= 3
    is scanned, the build holds the deltas, the positions of layers
    2..t-1, the deltas at layer t-1's positions and layer t's buffers,
    sized for (|layer t-1| - 1) // 2.  A scanned slice adds its flags,
    indices and the layer-1 elements it finds, under 16 bytes per delta
    of a slice.  No term holds layer 1: its positions alone would not
    fit.
    """
    q = random_subset(24, 1 << 23, seed=0)
    tracemalloc.start()
    try:
        stack = build_layers(q, 6)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert isinstance(stack, LayerStack) and len(stack.layers) == 8
    assert not hasattr(stack, "parents")
    assert stack.layers[0] is None and stack.layers[1] is None
    sizes = stack.layer_sizes
    entry = stack.layers[2].itemsize + stack.deltas.itemsize
    scans = [((sizes[0] - 1) // 2 - 1) // 2 * entry] + [
        sum(stack.layers[s].nbytes for s in range(2, t))
        + sizes[t - 1] * stack.deltas.itemsize + (sizes[t - 1] - 1) // 2 * entry
        for t in range(3, 8)]
    assert peak <= stack.deltas.nbytes + max(scans) + 16 * w._SCAN_CHUNK


def test_q_file_io_holds_one_copy(tmp_path):
    """save_q writes from the vertex array and load_q reads into one, so
    neither holds a second copy of Q (the file's bytes, a body slice, a
    converted array)."""
    q = np.arange(1 << 22, dtype=np.uint64) * np.uint64(3)
    path = tmp_path / "q.bin"
    tracemalloc.start()
    try:
        save_q(q, 24, path)
        _, save_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        held, _ = tracemalloc.get_traced_memory()
        q2, D = load_q(path)
        _, load_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert D == 24 and q2.dtype == np.uint64 and np.array_equal(q2, q)
    assert save_peak <= 1.05 * q.nbytes
    assert q.nbytes <= load_peak - held <= 1.05 * q.nbytes


def test_star_check_allocates_nothing_that_grows_with_q():
    """The star check's traced peak, above what the stack holds, is under
    2 MB on 2^23 random vertices of 2^24 and on the interval Q of 2^21.

    Each layer is read in windows of the layer below, so no array of a
    whole layer is made (a copy of layer 1's deltas alone is 3.3 MB on
    the random Q).  A window holds a fixed count of indices of the layer
    below, so a sparse layer above does not make it grow: a layer 1 of
    only the largest delta, which passes, spans all of the interval Q
    (its flags alone would be 8 MB).
    """
    stacks = [build_layers(random_subset(24, 1 << 23, seed=0), 6),
              build_layers(np.arange(1 << 21, dtype=np.uint64), 6)]
    for stack in stacks:
        assert isinstance(stack, LayerStack) and len(stack.layers) == 8
    top = np.array([np.argmax(stack.deltas)], dtype=np.int32)
    stacks.append(replace(stack, layers=[None, top]))
    for stack in stacks:
        tracemalloc.start()
        try:
            held, _ = tracemalloc.get_traced_memory()
            report = verify_star_property(stack)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.ok
        assert peak - held < 2 * 1024 * 1024


def _explicit_base(stack):
    """The same stack with layer 0 stored as an array of every position."""
    return LayerStack(q=stack.q, deltas=stack.deltas,
                      layers=[_layer(stack, 0)] + list(stack.layers[1:]),
                      n=stack.n, beta=stack.beta)


def _report_of(rep):
    return rep.ok, rep.checks, rep.counterexample


def _extraction(H, q, n):
    try:
        return extract_edge(H, q, n).as_dict()
    except ExtractorError as exc:
        return type(exc).__name__, str(exc), exc.trace


def test_plateau_peak_outside_layer1_is_located():
    """Equal neighboring deltas make a peak that build_layers leaves out.

    Deltas of distinct vertices never repeat next to each other, so only a
    corrupted stack has such a plateau.  Between two layer-1 positions it
    hides the largest inner delta from their neighbors, so the pair's
    interior failure is found by a maximum over the gap, not from them.
    """
    stack = build_layers(random_subset(12, 2000, seed=2), 5)
    P = _layer(stack, 1)
    k = int(np.argmax(P[1:] - P[:-1] >= 5))
    i, j = int(P[k]), int(P[k + 1])
    assert j - i >= 5
    stack.deltas = stack.deltas.copy()
    stack.deltas[i + 2] = stack.deltas[i + 3] = 20   # above every delta
    # the neighbors of i and j stay below them, and layer 1, left
    # implicit, is what it was built as
    assert max(stack.deltas[i + 1], stack.deltas[j - 1]) < \
        max(stack.deltas[i], stack.deltas[j])
    assert stack.layers[1] is None and np.array_equal(_layer(stack, 1), P)
    report = verify_star_property(stack)
    assert _report_of(report) == _report_of(_star_reference(stack))
    assert _report_of(verify_star_property(_with_layer1(stack))) == \
        _report_of(report)
    assert report.counterexample == {
        "check": "star", "layer": 1, "left": i, "right": j,
        "position": i + 2, "reason": "interior delta not dominated"}


def test_layer_end_does_not_stand_in_for_a_left_out_peak():
    """An element at an end of the layer below is no peak of it.

    Position 0 is put into layer 1 with d[0] > d[1], and one delta inside
    a wide layer-1 gap is raised into a peak that layer 1 leaves out.
    Counting position 0 as a peak would balance the count and hide that
    pair's interior failure; the reference scan reports it first.
    """
    stack = build_layers(random_subset(12, 2000, seed=7), 5)
    P = _layer(stack, 1)
    k = int(np.argmax(P[1:] - P[:-1] >= 5))
    i, j = int(P[k]), int(P[k + 1])
    assert P[0] == 2 and j - i >= 5
    deltas = stack.deltas.copy()
    deltas[0] = deltas[2] + 1       # above d[1], unequal to d[2]
    deltas[i + 2] = 20
    s = replace(stack, deltas=deltas,
                layers=[None, np.insert(P, 0, 0)] + stack.layers[2:])
    report = verify_star_property(s)
    assert _report_of(report) == _report_of(_star_reference(s))
    assert report.counterexample == {
        "check": "star", "layer": 1, "left": i, "right": j,
        "position": i + 2, "reason": "interior delta not dominated"}


@pytest.mark.parametrize("chunk", [2, None])
def test_implicit_layer0_matches_explicit(monkeypatch, certified12, chunk):
    """Layer 0 left implicit reads exactly like an np.arange layer 0.

    Anchors and extraction agree on the two forms; the star check takes
    only the implicit one, and reports what the reference scan reports
    on either.  chunk None keeps the default slice sizes; 2 puts slice
    boundaries inside every run and gap.
    """
    if chunk is not None:
        monkeypatch.setattr(w, "_SCAN_CHUNK", chunk)
        monkeypatch.setattr(w, "_STAR_CHUNK", chunk)
    rng = np.random.default_rng(29)
    H = certified12
    stacks = failing = 0
    for _ in range(100):
        D = int(rng.integers(6, 13))
        m = int(rng.integers(40, min(1 << D, 2000)))
        q = random_subset(D, m, int(rng.integers(1 << 30)))
        n = int(rng.integers(5, 9))
        try:
            stack = build_layers(q, n)
        except InsufficientLayers as exc:
            assert exc.trace["sizes"][0] == q.size - 1
            continue
        if not isinstance(stack, LayerStack):
            continue
        stacks += 1
        assert stack.layers[0] is None
        full = _explicit_base(stack)
        assert stack.layer_sizes == full.layer_sizes
        assert stack.layer_sizes[0] == q.size - 1
        assert stack.as_dict() == full.as_dict()
        with pytest.raises(InvalidParams, match="layer 0"):
            verify_star_property(full)
        if len(stack.layers) == 8:
            assert select_anchors(stack, H.coloring).as_dict() == \
                select_anchors(full, H.coloring).as_dict()
        # as built, and with one delta corrupted
        corrupt = stack.deltas.copy()
        corrupt[int(rng.integers(corrupt.size))] = int(rng.integers(D + 2))
        for deltas in (stack.deltas, corrupt):
            # corrupted deltas keep layer 1 as built, stored
            layers = (stack.layers if deltas is stack.deltas else
                      _with_layer1(stack).layers)
            s1 = LayerStack(q=q, deltas=deltas, layers=layers, n=n,
                            beta=stack.beta)
            first, *rest = [_report_of(r) for r in (
                verify_star_property(s1), _star_reference(s1),
                _star_reference(_explicit_base(s1)))]
            assert all(r == first for r in rest)
            if deltas is stack.deltas:
                assert first[0]
            failing += not first[0]
    assert stacks > 25 and failing > 10

    # extract_edge on the explicit form gives the same witness or error
    implicit = build_layers

    def explicit(q, n):
        built = implicit(q, n)
        return _explicit_base(built) if isinstance(built, LayerStack) else built

    qs = [random_subset(12, int(rng.integers(100, 3000)),
                        int(rng.integers(1 << 30))) for _ in range(16)]
    want = [_extraction(H, q, 5) for q in qs]
    monkeypatch.setattr(w, "build_layers", explicit)
    assert [_extraction(H, q, 5) for q in qs] == want
    assert sum(isinstance(x, dict) and x["branch"] == "AnchorChainBranch"
               for x in want) > 3


def test_corrupted_interior_delta_is_caught():
    # layer 1 stored, so that it stays what it was built as
    stack = _with_layer1(build_layers(RULER, 5))
    stack.deltas = stack.deltas.copy()
    stack.deltas[2] = 9
    report = verify_star_property(stack)
    assert not report.ok
    assert report.counterexample == {
        "check": "star", "layer": 1, "left": 1, "right": 3, "position": 2,
        "reason": "interior delta not dominated"}


def test_corrupted_neighborhood_is_caught_by_observation_check():
    stack = _with_layer1(build_layers(RULER, 5))
    stack.deltas = stack.deltas.copy()
    stack.deltas[0] = 5
    report = verify_star_property(stack)
    assert not report.ok
    assert report.counterexample["check"] == "drop_dominance"
    assert report.counterexample["position"] == 1


# --- Q sampling and files -----------------------------------------------------


def test_random_subset_is_sorted_distinct_and_seeded():
    a = random_subset(24, 10_000, seed=3)
    b = random_subset(24, 10_000, seed=3)
    c = random_subset(24, 10_000, seed=4)
    assert (a == b).all() and not (a == c).all()
    assert a.dtype == np.uint64
    assert (a[:-1] < a[1:]).all()
    assert int(a.max()) < (1 << 24)


def test_random_subset_dense_path_is_exact_and_seeded():
    m = 1_200_000
    a = random_subset(21, m, seed=5)
    assert a.size == m and a.dtype == np.uint64
    assert (a[:-1] < a[1:]).all() and int(a.max()) < (1 << 21)
    assert (a == random_subset(21, m, seed=5)).all()
    assert not (a == random_subset(21, m, seed=6)).all()
    # every vertex is drawn with probability m / 2^21
    counts = np.zeros(1 << 21)
    for seed in range(30):
        counts[random_subset(21, m, seed=seed)] += 1
    share = m / (1 << 21)
    assert abs(counts.mean() - 30 * share) < 1e-9
    assert abs(counts.std() - (30 * share * (1 - share)) ** 0.5) < 0.05


@pytest.mark.parametrize("D, m, seed, digest", [
    (21, 1_200_000, 5,
     "44ccbbb1fbd1d49885cbe94956cc4f7b2aa53465cc11d2c32a7e46243edd556c"),
    (22, 2_000_000, 1,
     "1945bf398ee1848d4fe4de6d890059a0fc74df6754a8c83075120512a312de10"),
])
def test_random_subset_dense_stream_is_pinned(D, m, seed, digest):
    """Dense draws keep the vertex sets of the rng.bytes sampler."""
    q = random_subset(D, m, seed)
    assert hashlib.sha256(q.astype("<u8").tobytes()).hexdigest() == digest


def test_random_subset_large_universe_path():
    s = random_subset(27, 5000, seed=9)
    assert s.size == np.unique(s).size == 5000
    assert (s[:-1] < s[1:]).all()
    assert int(s.max()) < (1 << 27)
    assert (s == random_subset(27, 5000, seed=9)).all()


def test_random_subset_sparse_stream_path():
    # sparse draws from at least 2^20 vertices take the iid-stream path
    m = 3000
    counts = np.zeros(16, dtype=np.int64)
    for seed in range(40):
        s = random_subset(22, m, seed=seed)
        assert s.size == np.unique(s).size == m
        assert (s[:-1] < s[1:]).all() and int(s.max()) < (1 << 22)
        counts += np.bincount((s >> np.uint64(18)).astype(np.int64),
                              minlength=16)
    assert (s == random_subset(22, m, seed=39)).all()
    # 120,000 draws over 16 equal buckets: 7,500 each, sd about 84
    assert np.abs(counts - 7500).max() < 500


def test_random_subset_can_exhaust_the_universe():
    s = random_subset(3, 8, seed=0)
    assert list(s) == list(range(8))


def test_random_subset_rejects_bad_params():
    with pytest.raises(InvalidParams):
        random_subset(3, 9, seed=0)
    with pytest.raises(InvalidParams):
        random_subset(3, 0, seed=0)
    with pytest.raises(InvalidD):
        random_subset(1, 1, seed=0)


def test_q_file_round_trip(tmp_path):
    q = random_subset(24, 1000, seed=2)
    path = tmp_path / "q.bin"
    save_q(q, 24, path)
    q2, D = load_q(path)
    assert D == 24
    assert (q == q2).all()
    header = path.read_bytes().split(b"\n", 1)[0]
    assert header == b"STEPUP-Q v1 count=1000 bits=24"


def test_q_file_rejects_malformed_input(tmp_path):
    q = random_subset(24, 100, seed=2)
    good = tmp_path / "good.bin"
    save_q(q, 24, good)
    blob = good.read_bytes()
    nl = blob.index(b"\n") + 1
    bad_cases = {
        "magic": b"NOPE" + blob[4:],
        "truncated": blob[:-8],
        "unordered": blob[:nl] + q[::-1].astype("<u8").tobytes(),
        "out_of_range": blob[:nl] + np.arange(1 << 24, (1 << 24) + 100,
                                              dtype="<u8").tobytes(),
        "trailing": blob + b"\0",
        "bits": blob.replace(b"bits=24", b"bits=65", 1),
        "empty": b"STEPUP-Q v1 count=0 bits=24\n",
    }
    for name, payload in bad_cases.items():
        path = tmp_path / name
        path.write_bytes(payload)
        with pytest.raises(IoError):
            load_q(path)


def test_guarantee_threshold_value():
    assert guarantee_threshold(5) == 10_000_001
    assert guarantee_threshold(3) == 6 ** 7 + 1
