"""The four benchmark workloads, each run in a closed loop by one client.

Every workload builds its inputs in a set-up step (timed several times,
median reported), then repeats one round of operations until the next
round would end past the deadline (always at least one round).  Each op
is checked; a failed check or an exception counts as a failed op and the
run goes on.  With tracing on, the same rounds run with span wrappers
installed, and the per-layer metrics are read off the spans.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import statistics
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from stepup import cli, coloring, hypergraph, witness

from inputs import (
    ALPHA_COLORING_SEED,
    K5_COLORING_SEED,
    SEARCH_BASE_SEEDS,
    SMALL_COLORING_BASE_SEED,
    GateFailed,
    derive,
    gated_paley,
    paley_gf27,
)
from tracing import Tracer

SETUP_REPEATS = 3

TRIAL_D, TRIAL_N = 26, 6            # guarantee scale: |Q| = 12^7 + 1
SMALL_D, SMALL_N, SMALL_Q, SMALL_BATCH = 12, 5, 2000, 50
REFUTE_D, REFUTE_N, REFUTE_DRAWS = 24, 5, 50
K5_D, ALPHA_D = 7, 5


@dataclass
class Result:
    """What one workload run measured and checked."""

    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)
    setup_s: float = 0.0
    round_s: float = 0.0
    named: list = field(default_factory=list)     # (name, value, unit, note)
    record: dict = field(default_factory=dict)
    layers: dict = field(default_factory=dict)    # per-layer metrics, traced run
    tracer: Optional[Tracer] = None               # timing pass of a traced run
    memory: Optional[Tracer] = None               # tracemalloc pass

    def check(self, label: str, fn: Callable[[], bool]) -> bool:
        """One checked op: fn returns whether its output is correct."""
        self.attempted += 1
        try:
            ok = bool(fn())
            why = "check failed"
        except Exception:  # a broken op is counted, never fatal to the run
            ok = False
            why = traceback.format_exc(limit=-2).strip().splitlines()[-1]
        if not ok:
            self.failed += 1
            self.failures.append(f"{label}: {why}")
        return ok

    def report(self, name: str, value: float, unit: str, note: str = ""):
        self.named.append((name, value, unit, note))


def measure_setup(import_s: float, build: Callable):
    """import time plus the median of SETUP_REPEATS input builds."""
    times, inputs = [], None
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        inputs = build()
        times.append(time.perf_counter() - t0)
    return import_s + statistics.median(times), inputs


def timed(res: Result, label: str, call: Callable, ok: Callable) -> float:
    """One checked op timed around call() only; ok(value) is the check."""
    out = {}

    def op():
        t0 = time.perf_counter()
        out["value"] = call()
        out["s"] = time.perf_counter() - t0
        return ok(out["value"])

    res.check(label, op)
    return out.get("s", 0.0)


def closed_loop(seconds: float, body: Callable[[int], None],
                tracer: Optional[Tracer] = None,
                done: Callable[[int], bool] = lambda n: True) -> list[float]:
    """Run body(i) back to back until done(calls so far) holds and the next
    call would end past the deadline; returns each call's wall time."""
    times: list[float] = []
    start = time.perf_counter()
    while True:
        if tracer is not None:
            tracer.op = len(times)
        t0 = time.perf_counter()
        body(len(times))
        times.append(time.perf_counter() - t0)
        if done(len(times)) and time.perf_counter() - start + times[-1] > seconds:
            return times


# --- tracing: wrappers at module attributes ----------------------------------

def _note_extract(args, kwargs, w):
    return {"branch": w.branch, "candidates": len(w.trace.get("candidates", []))}


def _note_layers(args, kwargs, built):
    if isinstance(built, witness.LayerStack):
        return {"layer_sizes": built.layer_sizes}
    return {}


def _note_deltas(args, kwargs, d):
    # computed bytes: the vertex array read plus the delta array written
    return {"bytes": int(np.asarray(args[0]).nbytes + d.nbytes)}


def _note_star(args, kwargs, rep):
    return {"checks": int(sum(rep.checks.values())), "ok": bool(rep.ok)}


def _note_certify(args, kwargs, res):
    return {"verdict": res.verdict, "subsets": int(res.subsets_checked)}


def _note_search(args, kwargs, res):
    return {"anneal_steps": int(res.anneal_steps)}


def _note_k5(args, kwargs, res):
    return {"threads": kwargs.get("threads", 1),
            "five_sets": math.comb(args[0].vertex_count, 5)}


def _note_alpha(args, kwargs, res):
    return {"nodes": int(res.nodes)}


def install_tracer(memory: bool) -> Tracer:
    tr = Tracer(memory)
    # cli imported its own references to the witness functions
    for module in (witness, cli):
        tr.wrap(module, "random_subset", "witness.random_subset")
        tr.wrap(module, "extract_edge", "witness.extract_edge", _note_extract)
        tr.wrap(module, "build_layers", "witness.build_layers", _note_layers)
        tr.wrap(module, "verify_star_property", "witness.verify_star_property",
                _note_star)
    tr.wrap(witness, "consecutive_deltas", "delta.consecutive_deltas", _note_deltas)
    tr.wrap(witness, "is_edge", "hypergraph.is_edge")
    tr.wrap(cli, "load_coloring", "coloring.load_coloring")
    tr.wrap(cli, "main", "cli.main")
    tr.wrap(coloring, "certify_good_property", "coloring.certify_good_property",
            _note_certify)
    tr.wrap(coloring, "search_certified_coloring",
            "coloring.search_certified_coloring", _note_search)
    tr.wrap(hypergraph, "check_k5_free", "hypergraph.check_k5_free", _note_k5)
    tr.wrap(hypergraph, "exact_alpha", "hypergraph.exact_alpha", _note_alpha)
    tr.start()
    return tr


def _mean(xs) -> float:
    xs = list(xs)
    return sum(xs) / len(xs) if xs else 0.0


def layer_metrics(tr: Tracer, mem: Tracer, ops: int) -> dict:
    """Every per-layer metric, per op of the timing pass (peaks from the
    memory pass); 0 where the workload does not reach the layer."""
    ext = tr.named("witness.extract_edge")
    stacks = [s.notes["layer_sizes"] for s in tr.named("witness.build_layers")
              if "layer_sizes" in s.notes]
    k5 = {s.notes["threads"]: s.dur_s for s in tr.named("hypergraph.check_k5_free")}
    five_sets = max((s.notes["five_sets"] for s in tr.named("hypergraph.check_k5_free")),
                    default=0)
    cert = tr.named("coloring.certify_good_property")
    search_ids = {s.id for s in tr.named("coloring.search_certified_coloring")}
    cert_s = sum(s.self_s for s in cert)
    subsets = sum(s.notes.get("subsets", 0) for s in cert)

    def per_op(x):
        return x / ops

    m = {
        "delta.consecutive_deltas_s": per_op(tr.self_s("delta.consecutive_deltas")),
        "delta.bytes_computed": per_op(sum(
            s.notes.get("bytes", 0) for s in tr.named("delta.consecutive_deltas"))),
        "witness.random_subset_s": per_op(tr.self_s("witness.random_subset")),
        "witness.random_subset_peak_mb": mem.peak_mb("witness.random_subset"),
        "witness.extract_edge_s": per_op(tr.self_s("witness.extract_edge")),
        "witness.extract_edge_peak_mb": mem.peak_mb("witness.extract_edge"),
        "witness.build_layers_s": per_op(tr.self_s("witness.build_layers")),
        "witness.build_layers_peak_mb": mem.peak_mb("witness.build_layers"),
        "witness.build_layers_calls": per_op(len(tr.named("witness.build_layers"))),
        "witness.verify_star_property_s": per_op(
            tr.self_s("witness.verify_star_property")),
        "witness.verify_star_property_peak_mb": mem.peak_mb(
            "witness.verify_star_property"),
        "witness.star_checks": per_op(sum(
            s.notes.get("checks", 0) for s in tr.named("witness.verify_star_property"))),
    }
    for t in range(1, 8):
        m[f"witness.layer{t}_size"] = _mean(sizes[t] for sizes in stacks)
    m.update({
        "witness.candidates_tested": _mean(s.notes.get("candidates", 0) for s in ext),
        "witness.monotone_run_share": _mean(
            s.notes.get("branch") == "MonotoneRunBranch" for s in ext),
        "hypergraph.is_edge_calls": (len(tr.named("hypergraph.is_edge")) / len(ext)
                                     if ext else 0.0),
        "hypergraph.check_k5_free_s": k5.get(1, 0.0),
        "hypergraph.five_sets_per_s": five_sets / k5[1] if 1 in k5 else 0.0,
        "hypergraph.check_k5_free_t2_s": k5.get(2, 0.0),
        "hypergraph.k5_scaling_eff": k5[1] / (2 * k5[2]) if {1, 2} <= k5.keys() else 0.0,
        "hypergraph.exact_alpha_s": per_op(tr.self_s("hypergraph.exact_alpha")),
        "hypergraph.alpha_nodes": per_op(sum(
            s.notes.get("nodes", 0) for s in tr.named("hypergraph.exact_alpha"))),
        "coloring.search_s": per_op(tr.self_s("coloring.search_certified_coloring")),
        "coloring.anneal_steps": per_op(sum(
            s.notes.get("anneal_steps", 0)
            for s in tr.named("coloring.search_certified_coloring"))),
        "coloring.certify_calls": per_op(sum(s.parent in search_ids for s in cert)),
        "coloring.certify_certified_s": per_op(sum(
            s.self_s for s in cert if s.notes.get("verdict") == "Certified")),
        "coloring.certify_refuted_s": per_op(sum(
            s.self_s for s in cert if s.notes.get("verdict") == "Refuted")),
        "coloring.subsets_checked": per_op(subsets),
        "coloring.subsets_per_s": subsets / cert_s if cert_s else 0.0,
        "coloring.load_coloring_s": per_op(tr.self_s("coloring.load_coloring")),
        "cli.main_self_ms": per_op(tr.self_s("cli.main")) * 1e3,
        "cli.report_bytes": 0.0,
        "trace.overhead_trial_s": 0.0,
        "trace.overhead_extract_p50_ms": 0.0,
    })
    return m


def _pass(memory: bool, seconds: float, body: Callable[[int], None]):
    tr = install_tracer(memory)
    try:
        return tr, closed_loop(seconds, body, tr)
    finally:
        tr.stop()


def _traced(res: Result, seconds: float, body: Callable[[int], None],
            peaks: bool = True, ops_per_round: int = 1) -> list[float]:
    """A timing pass (spans only) for `seconds`, then, if `peaks`, one round
    with tracemalloc on for allocation peaks; returns the timing pass's round
    times."""
    res.tracer, times = _pass(False, seconds, body)
    if peaks:
        res.memory, _ = _pass(True, 0.0, body)
    res.layers = layer_metrics(res.tracer, res.memory or Tracer(),
                               len(times) * ops_per_round)
    return times


# --- guarantee_trial -----------------------------------------------------------

MAX_TRIALS = 8   # stop looking for an anchor-chain Q after this many trials


def guarantee_trial(seed: int, seconds: float, trace: bool, import_s: float) -> Result:
    """Criterion-6 trial at guarantee scale on the Paley GF(27) coloring.

    About one Q in three has n strictly monotone consecutive deltas in layer
    0; its trial takes the monotone-run branch, builds no stack and skips
    the star check, so it costs about half as much as an anchor-chain trial.
    trial_s is the median over anchor-chain trials, and the loop runs until
    it has at least one; monotone-run trials are checked and timed apart.
    """
    res = Result()
    res.setup_s, H = measure_setup(
        import_s, lambda: hypergraph.StepUpHypergraph(gated_paley(TRIAL_D, TRIAL_N)))
    m = witness.guarantee_threshold(TRIAL_N)
    res.record.update({
        "D": TRIAL_D, "n": TRIAL_N, "q_size": m,
        "q_bytes": 8 * m, "delta_bytes": 2 * (m - 1),
        "permutation_bytes": 8 * (1 << TRIAL_D),
    })
    stacks = {}   # Q index -> layer sizes, or None for a monotone run

    def trial(j: int):
        q_seed = derive(seed, "q", j)

        def op():
            q = witness.random_subset(TRIAL_D, m, q_seed)
            w = witness.extract_edge(H, q, TRIAL_N)
            vs = np.array(w.vertices, dtype=np.uint64)
            idx = np.minimum(np.searchsorted(q, vs), q.size - 1)
            valid = w.validate(H) and bool((q[idx] == vs).all())
            built = witness.build_layers(q, TRIAL_N)
            if isinstance(built, witness.LayerStack):
                stacks[j] = built.layer_sizes
                return valid and witness.verify_star_property(built).ok
            stacks[j] = None
            return valid and w.branch == "MonotoneRunBranch"

        res.check(f"trial q_seed={q_seed}", op)

    def anchored(n: int) -> bool:
        return any(stacks.values()) or n >= MAX_TRIALS

    times = closed_loop(0.0 if trace else seconds, trial, done=anchored)
    anchor = [j for j in range(len(times)) if stacks.get(j)]
    if trace and anchor:
        # trace the first anchor-chain Q again, so the overhead compares like
        # with like
        j = anchor[0]
        traced = _traced(res, 0.0, lambda _: trial(j))
        res.layers["trace.overhead_trial_s"] = traced[0] - times[j]
    res.round_s = statistics.median(times[j] for j in anchor) if anchor else max(times)
    res.report("trial_s", res.round_s, "s", f"median of {len(anchor)} anchor-chain trials")
    monotone = [t for j, t in enumerate(times) if j in stacks and stacks[j] is None]
    if monotone:
        res.report("monotone_trial_s", statistics.median(monotone), "s",
                   f"median of {len(monotone)} monotone-run trials")
    if anchor:
        res.record["layer_sizes"] = stacks[anchor[0]]
    return res


# --- small_extract ---------------------------------------------------------------

def small_extract(seed: int, seconds: float, trace: bool, import_s: float) -> Result:
    """Desk-scale extract-witness CLI requests, in process, stdout captured.

    Request latency is bimodal (monotone-run and anchor-chain branches, about
    half each), so its median jumps between the modes from run to run.  A
    round is therefore a batch of SMALL_BATCH requests, and round_s is the
    median over batches of their summed request latency.
    """
    res = Result()
    out = Path(__file__).resolve().parent / "out"
    out.mkdir(exist_ok=True)
    path = out / "small_extract-phi.bin"

    def build():
        found = coloring.search_certified_coloring(
            SMALL_D, SMALL_N, base_seed=SMALL_COLORING_BASE_SEED)
        if not found.success:
            raise GateFailed(f"no certified ({SMALL_D}, {SMALL_N}) coloring found")
        coloring.save_coloring(found.coloring, path)
        return hypergraph.StepUpHypergraph(found.coloring)

    res.setup_s, H = measure_setup(import_s, build)
    replies = []   # (q_seed, exit code, report or None, stdout bytes, latency)

    def batch(b: int):
        for i in range(b * SMALL_BATCH, (b + 1) * SMALL_BATCH):
            q_seed = derive(seed, "q", i)
            argv = ["extract-witness", "--coloring", str(path), "--n", str(SMALL_N),
                    "--q-seed", str(q_seed), "--q-size", str(SMALL_Q), "--check-star"]
            buf = io.StringIO()
            t0 = time.perf_counter()
            try:
                with contextlib.redirect_stdout(buf):
                    code = cli.main(argv)
            except Exception:  # counted as a failed op by the checks below
                code = None
            latency = time.perf_counter() - t0
            text = buf.getvalue()
            try:
                rep = json.loads(text)
                rep = (rep["verdict"], rep.get("star_property", {}).get("ok"),
                       rep.get("witness", {}).get("vertices"),
                       rep.get("witness", {}).get("branch"))
            except ValueError:
                rep = None
            replies.append((q_seed, code, rep, len(text), latency))

    def rounds(rs) -> list[float]:
        return [sum(r[4] for r in rs[k:k + SMALL_BATCH])
                for k in range(0, len(rs), SMALL_BATCH)]

    if trace:
        closed_loop(seconds / 2, batch)
        n = len(replies)
        n_traced = SMALL_BATCH * len(
            _traced(res, seconds / 2, batch, ops_per_round=SMALL_BATCH))
        untraced, traced = replies[:n], replies[n:n + n_traced]
        res.layers["trace.overhead_extract_p50_ms"] = 1e3 * (
            statistics.median(r[4] for r in traced)
            - statistics.median(r[4] for r in untraced))
        res.layers["cli.report_bytes"] = _mean(r[3] for r in traced)
    else:
        closed_loop(seconds, batch)
        untraced = replies
    lat = [r[4] for r in untraced]

    for q_seed, code, rep, _, _ in replies:
        def op():
            verdict, star_ok, vs, _ = rep
            q = witness.random_subset(SMALL_D, SMALL_Q, cli.derive_seed(q_seed, "q"))
            return (code == 0 and verdict == "WitnessFound" and star_ok
                    and bool(np.isin(np.array(vs, dtype=np.uint64), q).all())
                    and hypergraph.is_edge(H, tuple(vs)))
        res.check(f"extract-witness q_seed={q_seed}", op)

    res.round_s = statistics.median(rounds(untraced))
    p99 = float(np.percentile(lat, 99))
    res.report("extract_p50_ms", 1e3 * statistics.median(lat), "ms",
               f"{len(lat)} requests")
    res.report("extract_p99_ms", 1e3 * p99, "ms",
               f"{len(lat)} requests, {sum(x > p99 for x in lat)} beyond p99")
    res.report("extract_per_s", len(lat) / sum(lat), "1/s", "closed loop, 1 client")
    res.record["monotone_run_share"] = _mean(
        r[2] is not None and r[2][3] == "MonotoneRunBranch" for r in untraced)
    return res


# --- certify_search ----------------------------------------------------------------

def certify_search(seed: int, seconds: float, trace: bool, import_s: float) -> Result:
    """Annealing search, full-scan certification and early-exit refutation."""
    res = Result()
    res.setup_s, paley = measure_setup(import_s, lambda: paley_gf27(TRIAL_D))
    parts = {"search_s": [], "certify_s": [], "refute_s": []}

    def round_(r: int):
        draws = [coloring.sample_coloring(REFUTE_D, derive(seed, "refute", r, i))
                 for i in range(REFUTE_DRAWS)]
        parts["search_s"].append(sum(
            timed(res, f"search({SMALL_D}, {SMALL_N}, base_seed={b})",
                  lambda b=b: coloring.search_certified_coloring(
                      SMALL_D, SMALL_N, base_seed=b),
                  lambda s: s.success and s.certification.certified)
            for b in SEARCH_BASE_SEEDS))
        parts["certify_s"].append(sum(
            timed(res, f"certify Paley-26 at n={n}",
                  lambda n=n: coloring.certify_good_property(paley, n, "exact"),
                  lambda c: c.certified)
            for n in (6, 7)))
        parts["refute_s"].append(sum(
            timed(res, f"refute draw {i} of round {r}",
                  lambda phi=phi: coloring.certify_good_property(
                      phi, REFUTE_N, "exact"),
                  lambda c, phi=phi: c.verdict == "Refuted"
                  and coloring.find_good_triple(phi, c.counterexample) is None)
            for i, phi in enumerate(draws)))

    times = (_traced(res, seconds, round_) if trace
             else closed_loop(seconds, round_))
    res.round_s = statistics.median(times)
    for name, vals in parts.items():
        vals = vals[:len(times)]     # leave out the tracemalloc pass
        res.report(name, statistics.median(vals), "s", f"median of {len(vals)} rounds")
    return res


# --- k5_alpha ----------------------------------------------------------------------

def k5_alpha(seed: int, seconds: float, trace: bool, import_s: float) -> Result:
    """Exhaustive K5(4) sweep at D = 7 and exact alpha at D = 5.

    Both instances are pinned (see inputs.py), so the seed does not change
    this workload's inputs.
    """
    res = Result()

    def build():
        return tuple(hypergraph.StepUpHypergraph(coloring.sample_coloring(D, s))
                     for D, s in ((K5_D, K5_COLORING_SEED),
                                  (ALPHA_D, ALPHA_COLORING_SEED)))

    res.setup_s, (H7, H5) = measure_setup(import_s, build)
    parts = {"k5_s": [], "alpha_s": []}

    def round_(r: int):
        parts["k5_s"].append(timed(
            res, f"check_k5_free D={K5_D} round {r}",
            lambda: hypergraph.check_k5_free(H7, threads=1, force=True),
            lambda v: v is None))
        if trace:
            timed(res, f"check_k5_free D={K5_D} threads=2 round {r}",
                  lambda: hypergraph.check_k5_free(H7, threads=2, force=True),
                  lambda v: v is None)
        parts["alpha_s"].append(timed(
            res, f"exact_alpha D={ALPHA_D} round {r}",
            lambda: hypergraph.exact_alpha(H5),
            lambda a: len(a.witness) == a.alpha
            and hypergraph.is_independent(H5, a.witness) is None))

    # under tracemalloc this round takes about 95 s instead of 25 s, so the
    # hypergraph spans get times and counts but no allocation peaks
    times = (_traced(res, 0.0, round_, peaks=False) if trace
             else closed_loop(seconds, round_))
    del parts["k5_s"][len(times):], parts["alpha_s"][len(times):]
    res.round_s = statistics.median(
        k + a for k, a in zip(parts["k5_s"], parts["alpha_s"]))
    for name, vals in parts.items():
        res.report(name, statistics.median(vals), "s", f"median of {len(vals)} rounds")
    return res


WORKLOADS = {
    "guarantee_trial": guarantee_trial,
    "small_extract": small_extract,
    "certify_search": certify_search,
    "k5_alpha": k5_alpha,
}
