#!/usr/bin/env python3
"""Benchmark of the stepup toolkit, one workload per process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N   # each in its own process

Run from the root of a source checkout: the package is imported from
``src/`` beside this directory, never from an installed copy.  Workload
names, metric names and units come from ``BENCHMARK.json`` at the root.
The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  Everything
before it is the human-readable report.  Spans of a traced run are
written to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


def _git_rev() -> str:
    """HEAD commit read from .git, or a note when the checkout has none."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unavailable (not a git checkout)"


def _llc_bytes():
    try:
        return os.sysconf(194)  # glibc _SC_LEVEL3_CACHE_SIZE
    except (ValueError, OSError):
        return "unknown"


def _run_all(spec: dict, args) -> int:
    """Every workload in sequence, each in a fresh interpreter."""
    worst = 0
    for w in spec["workloads"]:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", w["name"],
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        worst = max(worst, subprocess.run(cmd, cwd=ROOT).returncode)
    return worst


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=names + ["all"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=spec["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.workload == "all":
        return _run_all(spec, args)

    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    try:
        import numpy
        import stepup
    except ImportError as exc:
        print(f"error: cannot import stepup from {SRC}: {exc}", file=sys.stderr)
        return 2
    if Path(stepup.__file__).resolve().parent.parent != SRC:
        print(f"error: stepup imported from {stepup.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import_s = time.perf_counter() - t0

    import workloads
    from inputs import GateFailed

    try:
        res = workloads.WORKLOADS[args.workload](
            args.seed, args.seconds, bool(args.trace), import_s)
    except GateFailed as exc:
        print(f"error: input gate failed: {exc}", file=sys.stderr)
        return 3
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(), "llc_bytes": _llc_bytes(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "git_rev": _git_rev(), **res.record,
    }
    print("record " + json.dumps(record))
    named = [("setup_s", res.setup_s, "s", f"import + median of "
              f"{workloads.SETUP_REPEATS} input builds"),
             ("peak_rss_mb", peak_rss_mb, "MB", "process high-water RSS"),
             ("fail_ratio", res.failed / res.attempted, "ratio",
              f"{res.failed} failed of {res.attempted} attempted"),
             *res.named]
    for name, value, unit, note in named:
        print(f"metric {name:16s} {value:14.6f} {unit:6s} {note}")
    for line in res.failures[:20]:
        print(f"FAILED {line}")

    if args.trace:
        for line in res.tracer.table(res.memory):
            print("span   " + line)
        out = HERE / "out"
        out.mkdir(exist_ok=True)
        for tr, kind in ((res.tracer, "timing"), (res.memory, "memory")):
            if tr is None:
                continue
            spans = out / f"spans-{args.workload}-seed{args.seed}-{kind}.jsonl"
            tr.write(spans)
            print(f"spans written to {spans.relative_to(ROOT)}")
        values, declared = res.layers, spec["per_layer"]
    else:
        values = {"setup_s": res.setup_s, "peak_rss_mb": peak_rss_mb,
                  "round_s": res.round_s}
        declared = spec["end_to_end"]
    if set(values) != {m["name"] for m in declared}:
        print(f"error: metrics {sorted(values)} do not match BENCHMARK.json",
              file=sys.stderr)
        return 4
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared}
    print(json.dumps({"correct": res.failed == 0, "attempted": res.attempted,
                      "failed": res.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
