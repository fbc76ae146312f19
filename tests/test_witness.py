"""Tests for layered witness extraction."""

import numpy as np
import pytest
from conftest import tuple_from_distinct_deltas
from hypothesis import given, settings
from hypothesis import strategies as st

import stepup.witness as w
from stepup.coloring import (
    PairColoring,
    find_good_triple,
    pair_index,
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
from stepup.hypergraph import EdgeRule, StepUpHypergraph
from stepup.witness import (
    LayerStack,
    MonotoneRun,
    build_layers,
    edge_from_monotone_run,
    extract_edge,
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
    for t, layer in enumerate(stack.layers):
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


# --- extract_edge -------------------------------------------------------------


def test_extract_direct_scan_on_small_q():
    H = constant_graph(4, color=1)
    wit = extract_edge(H, np.array([0, 4, 5, 13], dtype=np.uint64), 5)
    assert wit.branch == "DirectScanBranch"
    assert wit.vertices == (0, 4, 5, 13)
    assert wit.rule is EdgeRule.RULE_III


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
        return [layer.tolist() for layer in built.layers]

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
    """All seven local-maxima layers, built without the run shortcut."""
    d = w.consecutive_deltas(q)
    layers = [np.arange(d.size, dtype=np.int32)]
    for _ in range(7):
        v = d[layers[-1]]
        keep = (v[1:-1] > v[:-2]) & (v[1:-1] > v[2:])
        if not keep.any():
            break
        layers.append(layers[-1][1:-1][keep])
    return LayerStack(q=q, deltas=d, layers=layers, n=5, beta=())


@pytest.mark.parametrize("chunk", [2, 1 << 14])
def test_nested_star_check_agrees_with_direct_scan(monkeypatch, chunk):
    """The layer-on-layer star check reports exactly what a direct scan does.

    Small slices put slice boundaries inside every gap and run.
    """
    monkeypatch.setattr(w, "_STAR_CHUNK", chunk)
    rng = np.random.default_rng(17)
    compared = failing = 0
    for _ in range(250):
        D = int(rng.integers(6, 12))
        m = int(rng.integers(40, min(1 << D, 1000)))
        q = random_subset(D, m, int(rng.integers(1 << 30)))
        try:
            stack = build_layers(q, 7)      # records parents
        except InsufficientLayers:
            stack = None
        if not isinstance(stack, LayerStack):
            stack = _local_maxima_stack(q)
        kind = int(rng.integers(5))
        if kind == 4 and stack.parents is not None and len(stack.layers) > 2:
            # stale parents must not be trusted
            t = int(rng.integers(2, len(stack.layers)))
            stack.parents = list(stack.parents)
            stack.parents[t] = stack.parents[t][::-1].copy()
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
            base, above = stack.layers[0], stack.layers[1]
            free = np.setdiff1d(base, above)
            holes = rng.choice(free, size=min(3, free.size), replace=False)
            stack.layers = [np.setdiff1d(base, holes)] + list(stack.layers[1:])
        locs = w._nesting(stack.layers)
        if locs is None:
            continue
        direct, nested = w._star_direct(stack), w._star_nested(stack, locs)
        assert (nested.ok, nested.checks, nested.counterexample) == \
            (direct.ok, direct.checks, direct.counterexample)
        compared += 1
        failing += not direct.ok
    assert compared > 150 and failing > 40


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
