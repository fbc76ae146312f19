"""Golden CLI reports: the cases, and a script that rewrites them.

    PYTHONPATH=src python tests/regen_golden.py           # rewrite tests/golden/
    PYTHONPATH=src python tests/regen_golden.py --check   # compare, exit 1 on a change

Each case runs one ``stepup`` command line in process, in a directory
that holds its input colorings under fixed names, so that the config
echo of the report does not depend on where it ran.  The report's
``timings`` block is removed and the rest is written as sorted, indented
JSON.  A report longer than GOLDEN_MAX_BYTES is stored as its sha256
instead.
test_golden.py compares every case byte for byte; a change that moves a
golden report rewrites it with this script and names it in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import difflib
import hashlib
import io
import json
import os
import sys
from pathlib import Path

import numpy as np
import pytest

import stepup.coloring as coloring
from stepup.cli import main
from stepup.coloring import (
    PairColoring,
    paley_coloring,
    save_coloring,
    search_certified_coloring,
)

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
GOLDEN_MAX_BYTES = 8192

_STAR_12_5 = ["extract-witness", "--coloring", "phi12.bin", "--n", "5",
              "--q-size", "2000", "--check-star"]

# name -> stepup argv
CASES = {
    **{f"star_12_5_q{s}": _STAR_12_5 + ["--q-seed", str(s)] for s in range(5)},
    "direct_12_5_q0_24": ["extract-witness", "--coloring", "phi12.bin", "--n",
                          "5", "--q-seed", "0", "--q-size", "24",
                          "--check-star"],
    "paley21_6_q0_2p20": ["extract-witness", "--coloring", "paley21.bin",
                          "--n", "6", "--q-seed", "0", "--q-size",
                          str(1 << 20), "--check-star"],
    "paley26_6_q0_trial": ["extract-witness", "--coloring", "paley26.bin",
                           "--n", "6", "--q-seed", "0", "--check-star"],
    "check_k5_5_all": ["check-k5", "--bits", "5", "--all-colorings",
                       "--threads", "1"],
    "check_k5_7_s3": ["check-k5", "--bits", "7", "--seed", "3",
                      "--threads", "1"],
    "check_k5_64_s0_force": ["check-k5", "--bits", "64", "--seed", "0",
                             "--force", "--threads", "1"],
    "verify_12_5": ["verify-coloring", "--coloring", "phi12.bin", "--n", "5"],
    "alpha_5_s2": ["alpha", "--bits", "5", "--seed", "2"],
    "alpha_const21": ["alpha", "--coloring", "const21.bin"],
    "independent_5_s2": ["independent", "--bits", "5", "--seed", "2",
                         "--vertices", ",".join(map(str, range(32)))],
    "steiner_40_s7": ["steiner", "--n", "40", "--seed", "7"],
    "bound_12_5": ["bound", "--bits", "12", "--n", "5", "--cprime", "0.4"],
    **{f"search_{b}_5": ["gen-coloring", "--bits", str(b), "--n", "5",
                         "--search", "--seed", "0", "--out", f"search_{b}_5.bin"]
       for b in (12, 13, 16, 24)},
}


def annealed_12_5() -> PairColoring:
    """The certified (12, 5) coloring that the search anneals from its
    seed-0 draw when its construction step yields nothing (sha256
    cf28668c7c5a7cf2...).  The (12, 5) extraction cases and the CLI
    extraction tests are pinned on it."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(coloring, "_constructions", lambda D, n: ())
        return search_certified_coloring(12, 5, attempts=16,
                                         base_seed=0).coloring


def write_inputs(directory: Path) -> None:
    """The colorings the cases read: the annealed (12, 5) coloring
    (annealed_12_5), the Paley GF(27) tournament cut to 21 and to 26, and
    the constant coloring at D = 21."""
    save_coloring(annealed_12_5(), directory / "phi12.bin")
    save_coloring(paley_coloring(27, 21), directory / "paley21.bin")
    save_coloring(paley_coloring(27, 26), directory / "paley26.bin")
    save_coloring(PairColoring(21, np.zeros(21 * 20 // 2, dtype=np.uint8)),
                  directory / "const21.bin")


def report_text(name: str, directory: Path) -> str:
    """Case name's report without ``timings``, run in directory."""
    out = io.StringIO()
    here = os.getcwd()
    os.chdir(directory)
    try:
        with contextlib.redirect_stdout(out):
            code = main(CASES[name])
    finally:
        os.chdir(here)
    report = json.loads(out.getvalue())
    report.pop("timings")
    report["exit_code"] = code
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def stored_form(text: str) -> tuple[str, str]:
    """(file name suffix, content) a report is kept as."""
    data = text.encode("utf-8")
    if len(data) <= GOLDEN_MAX_BYTES:
        return ".json", text
    return ".sha256", hashlib.sha256(data).hexdigest() + "\n"


def golden_path(name: str, suffix: str) -> Path:
    return GOLDEN_DIR / f"{name}{suffix}"


def mismatch(name: str, directory: Path) -> str | None:
    """None when case name reproduces its golden file, else a unified diff
    (or, for a report kept as a hash, the hashes and the new report)."""
    text = report_text(name, directory)
    suffix, content = stored_form(text)
    path = golden_path(name, suffix)
    old = path.read_text(encoding="utf-8") if path.exists() else ""
    if old == content:
        return None
    if suffix == ".json":
        return "".join(difflib.unified_diff(
            old.splitlines(keepends=True), content.splitlines(keepends=True),
            f"golden/{path.name}", "regenerated"))
    return (f"golden/{path.name}: sha256 {old.strip() or '(missing)'} became "
            f"{content.strip()}; the regenerated report is\n{text}")


def _run(check: bool) -> int:
    import tempfile
    with tempfile.TemporaryDirectory() as tmp:
        directory = Path(tmp)
        write_inputs(directory)
        failed = 0
        for name in CASES:
            if check:
                diff = mismatch(name, directory)
                if diff is not None:
                    failed += 1
                    print(diff)
                continue
            suffix, content = stored_form(report_text(name, directory))
            for stale in GOLDEN_DIR.glob(f"{name}.*"):
                stale.unlink()
            GOLDEN_DIR.mkdir(exist_ok=True)
            golden_path(name, suffix).write_text(content, encoding="utf-8")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(_run("--check" in sys.argv[1:]))
