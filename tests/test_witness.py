"""Tests for layered witness extraction."""

import hashlib
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
        layer = stack.layer(t)
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
        assert built.layers[0] is None and built.parents[:2] == [None, None]
        for t in range(1, len(fresh.layers)):
            assert np.array_equal(built.layers[t], fresh.layers[t])
        for t in range(2, len(fresh.parents)):
            assert np.array_equal(built.parents[t], fresh.parents[t])
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


def test_guarantee_scale_trial_at_n7():
    """One trial under the guarantee at n = 7: |Q| = 14^7 + 1 of 2^27.

    The Paley tournament on GF(27) has no transitive 7-subtournament, so
    extraction must succeed (about 8 s and 1.6 GB on a 2-core machine).
    """
    phi = paley_coloring(27, 27)
    assert certify_good_property(phi, 7).certified
    H = StepUpHypergraph(phi)
    q = random_subset(27, guarantee_threshold(7), seed=0)
    assert q.size == 105_413_505
    wit = extract_edge(H, q, 7)
    assert wit.validate(H)
    vs = np.array(wit.vertices, dtype=np.uint64)
    assert (q[np.searchsorted(q, vs)] == vs).all()
    built = build_layers(q, 7)
    if isinstance(built, LayerStack):
        assert verify_star_property(built).ok


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

    def reference(vals, n):
        for i in range(len(vals) - n + 1):
            win = vals[i:i + n]
            if all(x < y for x, y in zip(win, win[1:])):
                return i, "Increasing"
            if all(x > y for x, y in zip(win, win[1:])):
                return i, "Decreasing"
        return None

    for _ in range(3000):
        n = int(rng.integers(3, 9))
        vals = rng.integers(0, int(rng.integers(1, 8)),
                            size=int(rng.integers(0, 30)))
        up, down = vals[1:] > vals[:-1], vals[1:] < vals[:-1]
        assert w._find_run(up, down, n) == reference(vals.tolist(), n)


def test_build_layers_does_not_depend_on_scan_slices(monkeypatch):
    rng = np.random.default_rng(23)

    def outcome(q, n):
        try:
            built = build_layers(q, n)
        except InsufficientLayers as exc:
            return str(exc)
        if isinstance(built, MonotoneRun):
            return built.as_dict()
        return [built.layer(t).tolist() for t in range(len(built.layers))]

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

    The stack has the shape build_layers gives it: layer 0 implicit and
    parents recorded from layer 2 on.
    """
    d = w.consecutive_deltas(q)
    layers, parents = [None], [None]
    prev = np.arange(d.size, dtype=np.int32)
    for t in range(1, 8):
        v = d[prev]
        idx = np.flatnonzero((v[1:-1] > v[:-2]) & (v[1:-1] > v[2:])) + 1
        if idx.size == 0:
            break
        prev = prev[idx]
        layers.append(prev)
        parents.append(idx.astype(np.int32) if t > 1 else None)
    return LayerStack(q=q, deltas=d, layers=layers, n=5, beta=(),
                      parents=parents)


def _with_element_added(stack, rng):
    """The stack with one more element of some layer t-1 put into layer t.

    The element is an end of layer t-1 half the time it can be; parents
    are renumbered, so the stack keeps the shape _nesting accepts.
    """
    t = int(rng.integers(1, len(stack.layers)))
    below = stack.layer(t - 1)
    own = stack.layers[t] if t == 1 else stack.parents[t]
    free = np.setdiff1d(np.arange(below.size), own)
    ends = np.intersect1d(free, [0, below.size - 1])
    pool = ends if ends.size and rng.integers(2) else free
    if pool.size == 0:
        return stack
    i = int(rng.choice(pool))
    k = int(np.searchsorted(own, i))
    layers, parents = list(stack.layers), list(stack.parents)
    layers[t] = np.insert(layers[t], k, below[i]).astype(np.int32)
    if t > 1:
        parents[t] = np.insert(parents[t], k, i).astype(np.int32)
    if t + 1 < len(layers):
        up = parents[t + 1]
        parents[t + 1] = (up + (up >= k)).astype(np.int32)
    return replace(stack, layers=layers, parents=parents)


@pytest.mark.parametrize("chunk", [2, 1 << 14])
def test_nested_star_check_agrees_with_direct_scan(monkeypatch, chunk):
    """The layer-on-layer star check reports exactly what a direct scan does.

    Small slices put slice boundaries inside every gap and run.  Stacks
    not of build_layers' shape (an explicit layer 0, stale parents) are
    refused by _nesting and checked by the direct scan.  On corrupted
    deltas, or with an element added to a layer, a layer's deltas may
    have a peak outside the layer above; _star_nested then returns None
    and only the public report, the direct one, is compared.
    """
    monkeypatch.setattr(w, "_STAR_CHUNK", chunk)
    rng = np.random.default_rng(17)
    compared = failing = 0
    for _ in range(800):
        D = int(rng.integers(6, 12))
        m = int(rng.integers(40, min(1 << D, 1000)))
        q = random_subset(D, m, int(rng.integers(1 << 30)))
        try:
            stack = build_layers(q, 7)      # records parents
        except InsufficientLayers:
            stack = None
        if not isinstance(stack, LayerStack):
            stack = _local_maxima_stack(q)
        kind = int(rng.integers(6))
        if kind == 1:
            stack.deltas = stack.deltas.copy()
            idx = rng.integers(stack.deltas.size, size=int(rng.integers(1, 4)))
            stack.deltas[idx] = rng.integers(0, D + 2, size=idx.size)
        elif kind == 2 and len(stack.layers) > 2:
            t = int(rng.integers(1, len(stack.layers)))
            if stack.layers[t].size > 1:
                stack.layers = list(stack.layers)
                stack.layers[t] = np.delete(
                    stack.layers[t], rng.integers(stack.layers[t].size))
        elif kind == 3 and len(stack.layers) > 1:
            # a layer 0 with holes that the upper layers avoid
            base, above = stack.layer(0), stack.layers[1]
            free = np.setdiff1d(base, above)
            holes = rng.choice(free, size=min(3, free.size), replace=False)
            stack.layers = [np.setdiff1d(base, holes)] + list(stack.layers[1:])
        elif kind == 4:
            # stale parents must not be trusted: one row reversed
            rows = [t for t in range(2, len(stack.layers))
                    if stack.parents[t].size > 1]
            if rows:
                t = rows[int(rng.integers(len(rows)))]
                stack.parents = list(stack.parents)
                stack.parents[t] = stack.parents[t][::-1].copy()
            else:
                kind = 0
        elif kind == 5 and len(stack.layers) > 2:
            # one more element of the layer below, often one at its end,
            # with the parents rows renumbered to match
            stack = _with_element_added(stack, rng)
        direct = w._star_direct(stack)
        assert _report_of(verify_star_property(stack)) == _report_of(direct)
        locs = w._nesting(stack)
        if kind in (3, 4) and len(stack.layers) > 1:
            assert locs is None
        if locs is None:
            continue
        nested = w._star_nested(stack, locs)
        if kind == 0:
            assert nested is not None
        if nested is None:
            continue
        assert _report_of(nested) == _report_of(direct)
        compared += 1
        failing += not direct.ok
    assert compared > 150 and failing > 40


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


def _explicit_base(stack):
    """The same stack with layer 0 stored as an array of every position."""
    return LayerStack(q=stack.q, deltas=stack.deltas,
                      layers=[stack.layer(0)] + list(stack.layers[1:]),
                      n=stack.n, beta=stack.beta, parents=stack.parents)


def _report_of(rep):
    return rep.ok, rep.checks, rep.counterexample


def _extraction(H, q, n):
    try:
        return extract_edge(H, q, n).as_dict()
    except ExtractorError as exc:
        return type(exc).__name__, str(exc), exc.trace


def test_star_check_routes_by_stack_shape(monkeypatch):
    """Only a stack of build_layers' shape takes the nested star check.

    Stacks as built, at (12, 5) on q-seeds 1-12 and on an interval Q of
    2^21 vertices, never reach the direct scan.  The same stacks with an
    explicit layer 0, without parents, or with one stale parents row go
    to the direct scan and get its report.
    """
    stacks = [build_layers(random_subset(12, 2000, seed), 5)
              for seed in range(1, 13)]
    stacks = [s for s in stacks if isinstance(s, LayerStack)]
    stacks.append(build_layers(np.arange(1 << 21, dtype=np.uint64), 6))
    assert len(stacks) >= 6
    assert all(len(s.layers) == 8 for s in stacks)
    direct = w._star_direct

    def refuse(*args):
        raise AssertionError("star check took the wrong engine")

    monkeypatch.setattr(w, "_star_direct", refuse)
    want = [_report_of(verify_star_property(s)) for s in stacks]
    assert all(report[0] for report in want)
    monkeypatch.setattr(w, "_star_direct", direct)
    monkeypatch.setattr(w, "_star_nested", refuse)
    for s, report in zip(stacks[:2] + stacks[-1:], want[:2] + want[-1:]):
        stale = list(s.parents)
        stale[4] = stale[4][::-1].copy()
        for other in (_explicit_base(s), replace(s, parents=None),
                      replace(s, parents=stale)):
            assert _report_of(verify_star_property(other)) == \
                _report_of(direct(other)) == report


def test_plateau_peak_outside_layer1_goes_to_the_direct_scan(monkeypatch):
    """Equal neighboring deltas make a peak that build_layers leaves out.

    Deltas of distinct vertices never repeat next to each other, so only a
    corrupted stack has such a plateau.  Between two layer-1 positions it
    hides the largest inner delta from their neighbors, so layer 1 cannot
    be checked from them: the nested check returns None and the public
    report is the direct scan's, here an undominated interior delta.
    """
    stack = build_layers(random_subset(12, 2000, seed=2), 5)
    P = stack.layers[1]
    k = int(np.argmax(P[1:] - P[:-1] >= 5))
    i, j = int(P[k]), int(P[k + 1])
    assert j - i >= 5
    stack.deltas = stack.deltas.copy()
    stack.deltas[i + 2] = stack.deltas[i + 3] = 20   # above every delta
    # the neighbors of i and j stay below them
    assert max(stack.deltas[i + 1], stack.deltas[j - 1]) < \
        max(stack.deltas[i], stack.deltas[j])
    assert w._star_nested(stack, w._nesting(stack)) is None
    calls = []
    direct = w._star_direct

    def counted(s):
        calls.append(s)
        return direct(s)

    monkeypatch.setattr(w, "_star_direct", counted)
    report = verify_star_property(stack)
    assert calls == [stack]
    assert _report_of(report) == _report_of(direct(stack))
    assert report.counterexample == {
        "check": "star", "layer": 1, "left": i, "right": j,
        "position": i + 2, "reason": "interior delta not dominated"}


def test_layer_end_does_not_stand_in_for_a_left_out_peak():
    """An element at an end of the layer below is no peak of it.

    Position 0 is put into layer 1 with d[0] > d[1], and one delta inside
    a wide layer-1 gap is raised into a peak that layer 1 leaves out.
    Counting position 0 as a peak would balance the count and hide that
    pair's interior failure; the direct scan reports it first.
    """
    stack = build_layers(random_subset(12, 2000, seed=7), 5)
    P = stack.layers[1]
    k = int(np.argmax(P[1:] - P[:-1] >= 5))
    i, j = int(P[k]), int(P[k + 1])
    assert P[0] == 2 and j - i >= 5
    deltas = stack.deltas.copy()
    deltas[0] = deltas[2] + 1       # above d[1], unequal to d[2]
    deltas[i + 2] = 20
    parents = list(stack.parents)
    parents[2] = parents[2] + 1
    s = replace(stack, deltas=deltas, parents=parents,
                layers=[None, np.insert(P, 0, 0)] + stack.layers[2:])
    assert w._nesting(s) is not None
    assert w._star_nested(s, w._nesting(s)) is None
    report = verify_star_property(s)
    assert _report_of(report) == _report_of(w._star_direct(s))
    assert report.counterexample == {
        "check": "star", "layer": 1, "left": i, "right": j,
        "position": i + 2, "reason": "interior delta not dominated"}


@pytest.mark.parametrize("chunk", [2, None])
def test_implicit_layer0_matches_explicit(monkeypatch, certified12, chunk):
    """Layer 0 left implicit reads exactly like an np.arange layer 0.

    chunk None keeps the default slice sizes; 2 puts slice boundaries
    inside every run and gap.
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
        locs = w._nesting(stack)
        assert locs is not None
        assert w._nesting(full) is None     # goes to the direct scan
        if len(stack.layers) == 8:
            assert select_anchors(stack, H.coloring).as_dict() == \
                select_anchors(full, H.coloring).as_dict()
        # as built, and with one delta corrupted
        corrupt = stack.deltas.copy()
        corrupt[int(rng.integers(corrupt.size))] = int(rng.integers(D + 2))
        for deltas in (stack.deltas, corrupt):
            s1 = LayerStack(q=q, deltas=deltas, layers=stack.layers, n=n,
                            beta=stack.beta, parents=stack.parents)
            s2 = _explicit_base(s1)
            nested = w._star_nested(s1, locs)
            if deltas is stack.deltas:
                assert nested is not None
            first, *rest = [_report_of(r) for r in (
                verify_star_property(s1), verify_star_property(s2),
                w._star_direct(s1), w._star_direct(s2))]
            assert all(r == first for r in rest)
            if nested is not None:
                assert _report_of(nested) == first
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
    stack = build_layers(RULER, 5)
    stack.deltas = stack.deltas.copy()
    stack.deltas[2] = 9
    report = verify_star_property(stack)
    assert not report.ok
    assert report.counterexample == {
        "check": "star", "layer": 1, "left": 1, "right": 3, "position": 2,
        "reason": "interior delta not dominated"}


def test_corrupted_neighborhood_is_caught_by_observation_check():
    stack = build_layers(RULER, 5)
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
    }
    for name, payload in bad_cases.items():
        path = tmp_path / name
        path.write_bytes(payload)
        with pytest.raises(IoError):
            load_q(path)


def test_guarantee_threshold_value():
    assert guarantee_threshold(5) == 10_000_001
    assert guarantee_threshold(3) == 6 ** 7 + 1
