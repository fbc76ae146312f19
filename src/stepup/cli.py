"""Command-line harness for the stepping-up construction.

Subcommands cover the full pipeline: sampling and certifying pair
colorings, exhaustively checking K5(4)-freeness, exact independence
numbers, independence queries, witness extraction from large vertex
sets, Steiner packing, the failure-probability bound, and benchmarks.

Reports are JSON on stdout (CSV for bench); verdict fields are a pure
function of the echoed config, so re-running a report's config
reproduces everything except the timings block.  Exit codes: 0 for
certified / violation-free / witness-found outcomes, 1 for refuted /
violation / extraction-failure outcomes, 2 for usage and I/O errors.

Every randomized task derives its stream from the master ``--seed`` by
labeled splitting (blake2s over "seed:label"), so unrelated tasks never
share draws and thread count cannot reorder them.
"""

from __future__ import annotations

import argparse
import csv
import functools
import hashlib
import io
import json
import math
import os
import sys
import time
from typing import Optional

import numpy as np

from . import __version__
from .coloring import (
    EXACT_CAP_DEFAULT,
    PairColoring,
    certify_good_property,
    failure_probability_bound,
    greedy_steiner,
    load_coloring,
    log_failure_probability_bound,
    sample_coloring,
    save_coloring,
    search_certified_coloring,
    tt_forcing_order,
)
from .errors import (
    BudgetExceeded,
    EngineDisagreement,
    ExtractorError,
    InsufficientLayers,
    IoError,
    ProofGapTrap,
    StepupError,
    UsageError,
)
from .hypergraph import (
    ALPHA_BUDGET_DEFAULT,
    INDEPENDENT_BUDGET_DEFAULT,
    K5_BUDGET_DEFAULT,
    StepUpHypergraph,
    check_k5_free,
    exact_alpha,
    is_independent,
)
# extract_edge is not called here, but callers that wrap or patch the
# witness functions by their cli names (perfbench's tracer) find it
from .witness import (
    LayerStack,
    build_layers,
    extract_edge,  # noqa: F401
    extract_with_layers,
    guarantee_threshold,
    load_q,
    random_subset,
    verify_star_property,
)

BENCH_COLUMNS = ["task", "bits", "items", "threads", "seconds", "rate", "verdict"]


def derive_seed(master: int, label: str) -> int:
    """Labeled substream of a master seed, stable across platforms."""
    digest = hashlib.blake2s(f"{master}:{label}".encode(), digest_size=8)
    return int.from_bytes(digest.digest(), "little")


def _default_threads() -> int:
    raw = os.environ.get("STEPUP_THREADS", "").strip()
    if not raw:
        return 1
    try:
        value = int(raw)
    except ValueError:
        raise UsageError(f"STEPUP_THREADS={raw!r} is not an integer") from None
    if value < 1:
        raise UsageError(f"STEPUP_THREADS must be >= 1, got {value}")
    return value


def _config_echo(args: argparse.Namespace) -> dict:
    skip = {"handler", "report"}
    return {k: v for k, v in sorted(vars(args).items()) if k not in skip}


def _read(loader, path):
    """``loader(path)``, with an operating-system failure (missing file,
    directory, no permission) raised as IoError naming the path."""
    try:
        return loader(path)
    except OSError as exc:
        raise IoError(f"{path}: {exc.strerror or exc}") from exc


def _load_phi(args: argparse.Namespace) -> PairColoring:
    """Coloring from --coloring file or --seed sample; --bits cross-checked."""
    path = getattr(args, "coloring", None)
    seed = getattr(args, "seed", None)
    bits = getattr(args, "bits", None)
    if path is not None:
        phi = _read(load_coloring, path)
        if bits is not None and phi.D != bits:
            raise UsageError(
                f"--bits {bits} disagrees with coloring file D={phi.D}")
        return phi
    if seed is None:
        raise UsageError("provide --coloring FILE or --seed N")
    if bits is None:
        raise UsageError("--bits is required when sampling a coloring")
    return sample_coloring(bits, derive_seed(seed, "coloring"))


def _resolve_q(args: argparse.Namespace, D: int, n: int) -> tuple[np.ndarray, dict]:
    if args.q_file is not None:
        q, qbits = _read(load_q, args.q_file)
        if qbits != D:
            raise UsageError(f"Q file is over 2^{qbits} but --bits is {D}")
        return q, {"source": "file", "path": args.q_file, "size": int(q.size)}
    if args.q_seed is None:
        raise UsageError("provide --q-file FILE or --q-seed N")
    size = args.q_size if args.q_size is not None else guarantee_threshold(n)
    q = random_subset(D, size, derive_seed(args.q_seed, "q"))
    return q, {"source": "seeded", "q_seed": args.q_seed, "size": int(size)}


# --- command handlers ---------------------------------------------------------


def _cmd_gen_coloring(args) -> tuple[int, dict]:
    report = {"command": "gen-coloring", "config": _config_echo(args)}
    if args.search:
        if args.n is None:
            raise UsageError("--search requires --n")
        res = search_certified_coloring(
            args.bits, args.n, attempts=args.attempts, base_seed=args.seed)
        save_coloring(res.coloring, args.out)
        report["search"] = res.as_dict()
        if res.certifiable is False:
            v = tt_forcing_order(args.n)
            report["note"] = (
                f"no coloring is certified at n = {args.n} for D >= {v}: every "
                f"tournament on {v} vertices has a transitive subtournament on "
                f"{args.n}")
        report["verdict"] = "Certified" if res.success else "Refuted"
        report["out"] = args.out
        return (0 if res.success else 1), report
    phi = sample_coloring(args.bits, derive_seed(args.seed, "coloring"))
    save_coloring(phi, args.out)
    report["verdict"] = "Saved"
    report["coloring"] = {"D": phi.D, "seed": phi.seed,
                          "pairs": phi.D * (phi.D - 1) // 2}
    report["out"] = args.out
    return 0, report


def _cmd_verify_coloring(args) -> tuple[int, dict]:
    phi = _load_phi(args)
    mode = "sampled" if args.samples is not None else "exact"
    trials = args.samples
    result = certify_good_property(
        phi, args.n, mode, trials=trials,
        seed=derive_seed(args.sample_seed, "certify-sample"),
        cap=args.cap)
    report = {"command": "verify-coloring", "config": _config_echo(args),
              "verdict": result.verdict, "certification": result.as_dict()}
    return (1 if result.verdict == "Refuted" else 0), report


def _capped_vertices(V: int, vertex_cap: Optional[int]) -> int:
    return V if vertex_cap is None else min(vertex_cap, V)


def _cmd_check_k5(args) -> tuple[int, dict]:
    report = {"command": "check-k5", "config": _config_echo(args)}
    if args.all_colorings:
        if args.bits > 5:
            raise UsageError(
                f"--all-colorings enumerates 2^{args.bits * (args.bits - 1) // 2} "
                "colorings; supported only for --bits <= 5")
        npairs = args.bits * (args.bits - 1) // 2
        for mask in range(1 << npairs):
            bits = ((mask >> np.arange(npairs)) & 1).astype(np.uint8)
            H = StepUpHypergraph(PairColoring(args.bits, bits))
            violation = check_k5_free(H, args.vertex_cap, budget=args.budget,
                                      force=args.force, threads=args.threads)
            if violation is not None:
                report["verdict"] = "Violation"
                report["coloring_mask"] = mask
                report["violation"] = violation.as_dict()
                return 1, report
        report["verdict"] = "NoViolation"
        per = math.comb(_capped_vertices(1 << args.bits, args.vertex_cap), 5)
        report["counters"] = {"colorings": 1 << npairs,
                              "five_sets_each": per,
                              "five_sets_total": (1 << npairs) * per}
        return 0, report
    phi = _load_phi(args)
    H = StepUpHypergraph(phi)
    stats = {}
    violation = check_k5_free(H, args.vertex_cap, budget=args.budget,
                              force=args.force, threads=args.threads,
                              stats=stats)
    V = _capped_vertices(H.vertex_count, args.vertex_cap)
    report["counters"] = {"colorings": 1, "five_sets_each": math.comb(V, 5),
                          **stats}
    if violation is not None:
        report["verdict"] = "Violation"
        report["violation"] = violation.as_dict()
        return 1, report
    report["verdict"] = "NoViolation"
    return 0, report


def _cmd_alpha(args) -> tuple[int, dict]:
    phi = _load_phi(args)
    result = exact_alpha(StepUpHypergraph(phi), node_budget=args.budget)
    report = {"command": "alpha", "config": _config_echo(args),
              "verdict": "Computed", "alpha": result.as_dict()}
    return 0, report


def _cmd_independent(args) -> tuple[int, dict]:
    phi = _load_phi(args)
    H = StepUpHypergraph(phi)
    if args.q_file is not None:
        q, qbits = _read(load_q, args.q_file)
        if qbits != H.D:
            raise UsageError(f"Q file is over 2^{qbits} but coloring D={H.D}")
        vertices = [int(v) for v in q]
    elif args.vertices is not None:
        try:
            vertices = [int(tok) for tok in args.vertices.split(",")]
        except ValueError:
            raise UsageError(
                f"--vertices must be comma-separated integers, got "
                f"{args.vertices!r}") from None
    else:
        raise UsageError("provide --vertices LIST or --q-file FILE")
    witness = is_independent(H, vertices, budget=args.budget)
    report = {"command": "independent", "config": _config_echo(args),
              "set_size": len(vertices)}
    if witness is None:
        report["verdict"] = "Independent"
        return 0, report
    report["verdict"] = "EdgeFound"
    report["witness"] = witness.as_dict()
    return 1, report


def _cmd_extract_witness(args) -> tuple[int, dict]:
    phi = _load_phi(args)
    H = StepUpHypergraph(phi)
    q, q_info = _resolve_q(args, H.D, args.n)
    report = {"command": "extract-witness", "config": _config_echo(args),
              "q": q_info, "n": args.n,
              "guarantee_threshold": guarantee_threshold(args.n)}
    timings = report["timings"] = {}
    t0 = time.perf_counter()
    try:
        witness, built = extract_with_layers(H, q, args.n)
    except ExtractorError as exc:
        timings["extract_s"] = round(time.perf_counter() - t0, 6)
        report["verdict"] = "ExtractionFailed"
        report["failure"] = {"kind": exc.kind, "message": str(exc),
                             "trace": exc.trace}
        return 1, report
    timings["extract_s"] = round(time.perf_counter() - t0, 6)
    vs = np.array(witness.vertices, dtype=np.uint64)
    idx = np.minimum(np.searchsorted(q, vs), q.size - 1)
    checks = {"is_edge": witness.validate(H),
              "in_q": bool((q[idx] == vs).all())}
    if not all(checks.values()):
        vertices = [int(v) for v in witness.vertices]
        raise ProofGapTrap(
            f"emitted witness {vertices} failed re-validation against "
            f"|Q| = {q.size} ({checks})",
            trace={"vertices": vertices, "q_size": int(q.size), **checks})
    report["verdict"] = "WitnessFound"
    report["witness"] = witness.as_dict()
    if args.check_star:
        t0 = time.perf_counter()
        if built is None:
            # a Q scanned directly has no layers yet, and may be too small
            # to carry them; its witness stands either way
            try:
                built = build_layers(q, args.n)
            except InsufficientLayers as exc:
                star = {"ok": None, "note": f"no stack: {exc}"}
        if isinstance(built, LayerStack):
            checked = verify_star_property(built)
            star = {"ok": checked.ok, "checks": checked.checks,
                    "counterexample": checked.counterexample}
        elif built is not None:
            star = {"ok": True, "note": "monotone run, no stack built"}
        report["star_property"] = star
        timings["star_s"] = round(time.perf_counter() - t0, 6)
    return 0, report


def _cmd_steiner(args) -> tuple[int, dict]:
    system = greedy_steiner(args.n, derive_seed(args.seed, "steiner"))
    bound = args.n * (args.n - 2) / 12
    ok = system.pair_disjoint() and len(system.triples) >= bound
    report = {"command": "steiner", "config": _config_echo(args),
              "verdict": "Packed" if ok else "BoundMissed",
              "count": len(system.triples), "bound": bound,
              "pair_disjoint": system.pair_disjoint(),
              "system": system.as_dict()}
    return (0 if ok else 1), report


def _cmd_bound(args) -> tuple[int, dict]:
    log_value = log_failure_probability_bound(args.bits, args.n, args.cprime)
    value = failure_probability_bound(args.bits, args.n, args.cprime)
    report = {"command": "bound", "config": _config_echo(args),
              "verdict": "Computed",
              "log_bound": log_value, "bound": value,
              "below_one": bool(log_value < 0)}
    return 0, report


def _cmd_bench(args) -> tuple[int, dict]:
    rows = []
    phi = sample_coloring(args.bits, derive_seed(args.seed, "bench-coloring"))
    H = StepUpHypergraph(phi)

    verdicts = set()
    for threads in (1, args.threads) if args.threads > 1 else (1,):
        stats = {}
        t0 = time.perf_counter()
        v = check_k5_free(H, budget=args.budget, force=args.force,
                          threads=threads, stats=stats)
        dt = time.perf_counter() - t0
        items = stats.get("classes_checked", 0)
        verdict = "NoViolation" if v is None else "Violation"
        verdicts.add(verdict)
        rows.append(["k5-check", args.bits, items, threads, round(dt, 4),
                     round(items / dt) if dt else 0, verdict])
    if len(verdicts) > 1:
        raise EngineDisagreement(
            f"K5 verdict changed with thread count: {sorted(verdicts)}")

    q = random_subset(args.q_bits, args.q_size,
                      derive_seed(args.seed, "bench-q"))
    t0 = time.perf_counter()
    built = build_layers(q, args.n)
    dt = time.perf_counter() - t0
    kind = "run" if not isinstance(built, LayerStack) else "stack"
    rows.append(["layer-build", args.q_bits, int(q.size), 1, round(dt, 4),
                 round(q.size / dt) if dt else 0, kind])

    report = {"command": "bench", "config": _config_echo(args),
              "verdict": "Benchmarked", "columns": BENCH_COLUMNS,
              "rows": rows}
    return 0, report


# --- parser and entry ----------------------------------------------------------


def _add_phi_source(p: argparse.ArgumentParser, bits_required: bool = False):
    p.add_argument("--bits", type=int, required=bits_required,
                   help="bit-width D; vertices live in [0, 2^D)")
    p.add_argument("--coloring", metavar="FILE",
                   help="STEPUP-PHI v1 coloring file")
    p.add_argument("--seed", type=int, default=None,
                   help="master seed for sampling a coloring instead")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by every later
    call in the process: parsing never changes it, and each ``parse_args``
    returns a fresh namespace."""
    parser = argparse.ArgumentParser(
        prog="stepup",
        description="Stepping-up 4-graph toolkit: colorings, K5(4)-freeness, "
                    "independence, and witness extraction.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-coloring", help="sample (or search) and save a coloring")
    p.add_argument("--bits", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, metavar="FILE")
    p.add_argument("--search", action="store_true",
                   help="search for a coloring certified at --n instead of "
                        "saving the raw sample")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--attempts", type=int, default=16)
    p.set_defaults(handler=_cmd_gen_coloring)

    p = sub.add_parser("verify-coloring",
                       help="certify that every n-subset has a good triple")
    _add_phi_source(p)
    p.add_argument("--n", type=int, required=True)
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--exact", action="store_true",
                      help="exact enumeration (the default mode)")
    mode.add_argument("--samples", type=int, default=None,
                      help="sampled mode with this many trials")
    p.add_argument("--sample-seed", type=int, default=0)
    p.add_argument("--cap", type=int, default=EXACT_CAP_DEFAULT)
    p.set_defaults(handler=_cmd_verify_coloring)

    p = sub.add_parser("check-k5",
                       help="exhaustively verify K5(4)-freeness over 5-sets")
    _add_phi_source(p)
    p.add_argument("--all-colorings", action="store_true",
                   help="sweep every coloring of the delta pairs (small D)")
    p.add_argument("--vertex-cap", type=int, default=None)
    p.add_argument("--budget", type=int, default=K5_BUDGET_DEFAULT)
    p.add_argument("--force", action="store_true")
    p.add_argument("--threads", type=int, default=None,
                   help="accepted for compatibility; no effect")
    p.set_defaults(handler=_cmd_check_k5)

    p = sub.add_parser("alpha", help="exact independence number")
    _add_phi_source(p)
    p.add_argument("--budget", type=int, default=ALPHA_BUDGET_DEFAULT,
                   help="states of the recursion before it is refused")
    p.set_defaults(handler=_cmd_alpha)

    p = sub.add_parser("independent", help="test a vertex set for independence")
    _add_phi_source(p)
    p.add_argument("--vertices", metavar="LIST",
                   help="comma-separated vertex list")
    p.add_argument("--q-file", metavar="FILE", default=None,
                   help="STEPUP-Q v1 vertex file")
    p.add_argument("--budget", type=int, default=INDEPENDENT_BUDGET_DEFAULT)
    p.set_defaults(handler=_cmd_independent)

    p = sub.add_parser("extract-witness",
                       help="extract a validated edge from a large vertex set")
    _add_phi_source(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--q-seed", type=int, default=None)
    p.add_argument("--q-size", type=int, default=None,
                   help="default (2n)^7 + 1, the guarantee threshold")
    p.add_argument("--q-file", metavar="FILE", default=None)
    p.add_argument("--check-star", action="store_true",
                   help="also verify property (*) on the built stack")
    p.set_defaults(handler=_cmd_extract_witness)

    p = sub.add_parser("steiner", help="greedy partial Steiner (n,3,2) packing")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(handler=_cmd_steiner)

    p = sub.add_parser("bound", help="failure-probability bound evaluation")
    p.add_argument("--bits", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--cprime", type=float, required=True)
    p.set_defaults(handler=_cmd_bound)

    p = sub.add_parser("bench", help="throughput benchmarks, CSV output")
    p.add_argument("--bits", type=int, default=6)
    p.add_argument("--n", type=int, default=5)
    p.add_argument("--q-bits", type=int, default=24)
    p.add_argument("--q-size", type=int, default=1_000_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--budget", type=int, default=K5_BUDGET_DEFAULT)
    p.add_argument("--force", action="store_true")
    p.add_argument("--threads", type=int, default=None,
                   help="accepted for compatibility; no effect")
    p.add_argument("--csv", metavar="FILE", default=None)
    p.set_defaults(handler=_cmd_bench)

    for sp in sub.choices.values():
        sp.add_argument("--report", metavar="FILE", default=None,
                        help="also write the JSON report to this file")
    return parser


_quote = json.encoder.encode_basestring_ascii


def _float_text(x: float) -> str:
    if x != x:
        return "NaN"
    if x in (math.inf, -math.inf):
        return "Infinity" if x > 0 else "-Infinity"
    return float.__repr__(x)


# the text of a value whose type is exactly one of these
_SCALAR_TEXT = {str: _quote, int: int.__repr__, float: _float_text,
                bool: {True: "true", False: "false"}.__getitem__,
                type(None): {None: "null"}.__getitem__}


def _encode(x, indent: str = "") -> str:
    """The text ``json.dumps(x, indent=2, sort_keys=True)`` gives, in one
    walk of x.

    Keys are made str and then sorted; when two keys give the same str,
    the later value is kept.  Tuples are lists, numpy arrays are their
    tolist(), numpy integers and floats are Python ones, and any other
    object is written as the string str(x) (a numpy bool too).  The
    standard encoder indents only in pure Python, and would need all of
    that converted first, in a second walk.
    """
    scalar = _SCALAR_TEXT.get(type(x))
    if scalar is not None:
        return scalar(x)
    if isinstance(x, dict):
        if not x:
            return "{}"
        inner = indent + "  "
        items = sorted({str(k): v for k, v in x.items()}.items())
        texts = _encode_each([v for _, v in items], inner)
        return ("{\n" + inner
                + (",\n" + inner).join([_quote(k) + ": " + text for (k, _), text
                                        in zip(items, texts)])
                + "\n" + indent + "}")
    if isinstance(x, (list, tuple)):
        if not x:
            return "[]"
        inner = indent + "  "
        return ("[\n" + inner + (",\n" + inner).join(_encode_each(x, inner))
                + "\n" + indent + "]")
    if isinstance(x, str):
        return _quote(x)
    if isinstance(x, (int, np.integer)):
        return int.__repr__(int(x))
    if isinstance(x, (float, np.floating)):
        return _float_text(float(x))
    if isinstance(x, np.ndarray):
        return _encode(x.tolist(), indent)
    return _quote(str(x))


def _encode_each(values, indent: str) -> list[str]:
    """_encode of each value; most are scalars of a _SCALAR_TEXT type, which
    are written without a call of _encode."""
    scalar_text = _SCALAR_TEXT.get
    return [_encode(v, indent) if (scalar := scalar_text(type(v))) is None
            else scalar(v) for v in values]


def _write_text(path: str, text: str) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(text)


def _emit(args: argparse.Namespace, report: dict) -> None:
    """Encode the report once and write the files before stdout, so a file
    that cannot be written leaves stdout empty."""
    text = _encode(report) + "\n"
    out = text
    if args.command == "bench":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(report["columns"])
        writer.writerows(report["rows"])
        out = buf.getvalue()
        if args.csv:
            _write_text(args.csv, out)
    if args.report:
        _write_text(args.report, text)
    sys.stdout.write(out)


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    t0 = time.perf_counter()
    try:
        if getattr(args, "threads", None) is None and hasattr(args, "threads"):
            args.threads = _default_threads()
        code, report = args.handler(args)
        report.setdefault("timings", {})["total_s"] = round(
            time.perf_counter() - t0, 6)
        _emit(args, report)
    except (UsageError, IoError, BudgetExceeded, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except StepupError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
