"""Exception taxonomy shared across the stepup modules.

Every error raised on purpose by the library derives from StepupError so
callers (and the CLI) can distinguish domain failures from genuine bugs.
"""

from __future__ import annotations

from typing import Any, Optional


class StepupError(Exception):
    """Base class for all library-level failures."""


class EqualVertices(StepupError, ValueError):
    """delta(u, v) was asked for with u = v."""


class TupleTooShort(StepupError, ValueError):
    """An ordered tuple is shorter than the operation requires."""


class MalformedTuple(StepupError, ValueError):
    """Input is not a strictly increasing tuple of distinct vertices in range."""


class PositionOutOfRange(StepupError, IndexError):
    """A sequence position index falls outside the sequence."""


class InvalidD(StepupError, ValueError):
    """Bit width D outside the supported range."""


class InvalidN(StepupError, ValueError):
    """Parameter n outside the supported range."""


class InvalidParams(StepupError, ValueError):
    """A parameter combination violates an operation precondition."""


class SetTooSmall(StepupError, ValueError):
    """A value set has fewer elements than the operation requires."""


class BudgetExceeded(StepupError):
    """An enumeration would exceed its configured budget.

    Carries the offending count so callers can decide whether to force,
    shrink the instance, or switch to a sampled mode.
    """

    def __init__(self, message: str, *, required: Optional[int] = None,
                 budget: Optional[int] = None):
        super().__init__(message)
        self.required = required
        self.budget = budget


class NoNonEdge(StepupError):
    """Bug trap: a 5-set appears to span a complete K5(4).

    Unreachable when the edge predicate is correct; carries the full
    5-set for the report.
    """

    def __init__(self, message: str, vertices: tuple):
        super().__init__(message)
        self.vertices = vertices


class EngineDisagreement(StepupError):
    """Bug trap: two computations of one verdict disagree.

    Raised when a K5(4) violation found by the K5 check or an edge found
    by is_independent's engine does not hold under classify_4tuple, when
    the K5 check's delta-triple table is not a function of the triple
    classes, when the K5 verdict changes with the thread count,
    when an exact_alpha witness spans an edge, when a certification
    counterexample holds a good triple, when the annealer's bad-subset
    count and exact certification disagree, or when a greedy Steiner
    packing falls below the Turan floor.  Unreachable when the
    engines are correct; carries the vertex set (or value subset) when
    there is one, the edge it spans, and the coloring involved.
    """

    def __init__(self, message: str, vertices: Optional[tuple] = None,
                 edge: Optional[tuple] = None, coloring: Any = None):
        super().__init__(message)
        self.vertices = vertices
        self.edge = edge
        self.coloring = coloring


class ExtractorError(StepupError):
    """Base for witness-extractor failures; carries a state trace."""

    kind = "ExtractorError"

    def __init__(self, message: str, trace: Optional[dict[str, Any]] = None):
        super().__init__(message)
        self.trace = trace or {}


class NeedMoreVertices(ExtractorError):
    """Best-effort extraction exhausted a Q that is too small."""

    kind = "NeedMoreVertices"


class InsufficientLayers(ExtractorError):
    """A layer emptied (or a neighbor lookup failed) before depth 7."""

    kind = "InsufficientLayers"


class NoGoodTripleInRun(ExtractorError):
    """A monotone run's delta values contain no good triple.

    Impossible when the coloring is certified for (D, n); reaching this
    with a certified coloring is a reportable defect.
    """

    kind = "NoGoodTripleInRun"


class ProofGapTrap(ExtractorError):
    """All anchor-chain candidates failed on a large-enough Q, an anchor
    chain came out of order, or an emitted witness failed re-validation.

    Must be unreachable; the trace holds the full anchor state dump, the
    chain's positions and deltas, or the witness vertices and |Q|.
    """

    kind = "ProofGapTrap"


class UsageError(StepupError):
    """CLI usage error (maps to exit status 2)."""


class IoError(StepupError):
    """File format or I/O failure (maps to exit status 2)."""
