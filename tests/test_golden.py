"""Golden CLI reports, reproduced byte for byte.

The cases and their inputs are in regen_golden.py.  A failure is raised
with pytest.fail, not assert, so that the test still checks under
``python -O``.
"""

import pytest
from regen_golden import CASES, mismatch, write_inputs


def test_golden_reports_are_unchanged(tmp_path):
    write_inputs(tmp_path)
    diffs = [d for d in (mismatch(name, tmp_path) for name in CASES)
             if d is not None]
    if diffs:
        pytest.fail(f"{len(diffs)} of {len(CASES)} golden reports moved:\n"
                    + "\n".join(diffs), pytrace=False)
