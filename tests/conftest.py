"""Shared helpers for the test suite."""

from __future__ import annotations

import contextlib

import numpy as np
import pytest

import stepup.hypergraph as hg
from stepup.hypergraph import EdgeRule


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One visible line per acceptance criterion, after the test run."""
    try:
        import test_acceptance
    except ImportError:
        return
    results = getattr(test_acceptance, "RESULTS", {})
    if not results:
        return
    terminalreporter.section("acceptance criteria")
    for num in sorted(results):
        ok, label, detail = results[num]
        line = f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {label}"
        if detail:
            line += f" ({detail})"
        terminalreporter.write_line(line)


def tuple_from_distinct_deltas(deltas, rng=None, pad_bits=()):
    """Build a strictly increasing vertex tuple realizing a delta sequence.

    Works whenever the requested deltas are pairwise distinct: starting from
    a base containing none of those bits, each step sets one fresh bit, so
    the consecutive delta is exactly that bit index and the tuple increases.
    """
    ds = list(deltas)
    assert len(set(ds)) == len(ds), "realizer needs pairwise distinct deltas"
    base = 0
    for b in pad_bits:
        assert b not in ds
        base |= 1 << b
    if rng is not None:
        free = [b for b in range(max(ds) + 1) if b not in ds]
        for b in free:
            if rng.random() < 0.5:
                base |= 1 << b
    out = [base]
    for d in ds:
        out.append(out[-1] | (1 << d))
    return tuple(out)


def random_increasing_tuples(rng, count, length, bits):
    """Batch of strictly increasing vertex tuples as a (count, length) array."""
    hi = 1 << bits
    step_hi = max(2, hi // (length + 1))
    v0 = rng.integers(0, step_hi, size=(count, 1), dtype=np.uint64)
    steps = rng.integers(1, step_hi, size=(count, length - 1), dtype=np.uint64)
    return np.concatenate([v0, steps], axis=1).cumsum(axis=1, dtype=np.uint64)


# --- the corrupted predicate of the mutation tests ----------------------------
#
# Rule (ii)'s leading d1 > d2 comparison is reversed inside the valley-shape
# test the rule shares with rule (iii): rule (ii) can then never fire,
# valleys stop being edges, and rule (iii)'s all-equal condition misfires on
# increasing triples.  Any coloring that is monochromatic along an increasing
# delta chain then spans a K5(4), which the checkers have to catch.


def flipped_rule2_deltas(d1, d2, d3, C):
    """The scalar rule core with rule (ii)'s leading d1 > d2 reversed; the
    same signature as stepup.hypergraph._classify_deltas."""
    if not (d1 < d2 < d3 or d1 > d2 > d3):
        return EdgeRule.NONE_SLOT, False
    c12, c23, c13 = C[d1][d2], C[d2][d3], C[d1][d3]
    if c12 == c23 != c13:
        return EdgeRule.RULE_I, True
    if d1 < d2 < d3 and c12 == c13 == c23:
        return EdgeRule.RULE_III, True
    return EdgeRule.RULE_I, False


@contextlib.contextmanager
def flipped_rule2():
    """Install the corrupted rule (ii) as the scalar core of the edge rules.

    Inside the context _classify_deltas is the mutant, and the delta-triple
    table is derived from it, so classify_4tuple, is_edge, the K5 check,
    the alpha recursion and the reference scan all read it.  A graph caches
    its table on first use, so build the graphs that should see the mutant
    inside the context, and do not reuse them outside it.
    """
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(hg, "_classify_deltas", flipped_rule2_deltas)
        yield
