"""The errors the CLI maps to exit codes 3 and 4.

They live here, with only the standard library behind them, so that a
command can catch them without importing the solver.  ``lp``, ``codes``,
``srr`` and ``hypergraph`` import from here each error they raise.
"""

from __future__ import annotations

from typing import Optional

# 2^996 < 10^300: a work estimate below 2^996 is printed in full.
SHOWN_BITS = 996


class PivotLimitError(RuntimeError):
    """Raised when the simplex exceeds its pivot ceiling."""


class InvariantError(RuntimeError):
    """An internal consistency check failed: a bug, never bad input."""


class EventLimitError(RuntimeError):
    """Raised when the waterfilling simulation exceeds its event ceiling."""


class WorkLimitError(RuntimeError):
    """Raised before an enumeration whose estimated work is over its limit.

    The message reads "<subject> <estimate> <unit>, over the limit of
    <limit>".  An estimate of more than 300 digits is shown by its size, as
    the power of two "at least 2^b" at or below it, and a caller that settles
    the budget from a huge parameter alone passes that b as ``log2`` instead
    of an estimate; so no message ever needs a huge decimal conversion.
    """

    def __init__(
        self,
        subject: str,
        unit: str,
        limit: int,
        estimate: Optional[int] = None,
        log2: Optional[int] = None,
    ) -> None:
        self.estimate, self.limit = estimate, limit
        bits = log2 if estimate is None else estimate.bit_length() - 1
        shown = str(estimate) if bits < SHOWN_BITS else f"at least 2^{bits}"
        super().__init__(f"{subject} {shown} {unit}, over the limit of {limit}")
