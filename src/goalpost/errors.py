"""Domain error hierarchy.

Every error carries a stable ``code`` (the class name) that the CLI emits in
its JSON error envelope, so scripts can match on it without parsing prose.
Building a detail must not raise: a caller's rational is written through
:func:`rational_detail`, and :func:`check_memory` words every refusal of an
allocation past physical memory.  An allocation can still fail below
physical memory, under an address-space limit: each stage that allocates in
proportion to its input is wrapped in :func:`refuses_exhaustion`, which
turns that ``MemoryError`` into the same ``SearchSpaceTooLarge``.  The CLI
wraps each command whole, from the load to its output text, so it answers
any exhausted allocation with the ``SearchSpaceTooLarge`` envelope.
"""

from __future__ import annotations

import functools
import os
from fractions import Fraction
from typing import Callable, Optional


class GoalpostError(Exception):
    """Base class for all domain errors raised by this package."""

    @property
    def code(self) -> str:
        return type(self).__name__


class NegativePosition(GoalpostError):
    pass


class NegativeCapacity(GoalpostError):
    pass


class GroupIndexOutOfRange(GoalpostError):
    pass


class CommonCapacityViolated(GoalpostError):
    pass


class NonIntegralInstance(GoalpostError):
    pass


class GroupCapacityNonUniform(GoalpostError):
    pass


class EpsilonOutOfRange(GoalpostError):
    pass


class SpacingPreconditionViolated(GoalpostError):
    pass


class IndividualizedCapacityUnsupported(GoalpostError):
    pass


class BudgetBelowGroupCount(GoalpostError):
    pass


class EmptyGroup(GoalpostError):
    pass


class SearchSpaceTooLarge(GoalpostError):
    pass


class ParameterOutOfRange(GoalpostError):
    pass


class EmptySample(GoalpostError):
    pass


class InstanceParseError(GoalpostError):
    """Raised when an instance / distribution file is malformed.

    The message always names the offending JSON path (e.g. ``agents[2].position``).
    """


def rational_detail(value: Fraction) -> str:
    """A rational as ``str`` writes it, or, past Python's integer-to-text
    digit limit, a description of its size."""
    try:
        return str(value)
    except ValueError:
        return (f"{'-' if value < 0 else ''}(a {value.numerator.bit_length()}-bit "
                f"numerator over a {value.denominator.bit_length()}-bit denominator)")


def _physical_memory() -> Optional[int]:
    """Bytes of physical memory, or None where the system cannot say."""
    try:
        total = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, ValueError, OSError):
        return None
    return total if total > 0 else None


def check_memory(need: int, what: str, have: Optional[int]) -> None:
    """Refuse ``what`` if its ``need`` bytes exceed ``have``, the physical
    memory (None: unknown, so no check)."""
    if have is not None and need > have:
        raise SearchSpaceTooLarge(
            f"{what} needs {need} bytes, more than the {have} bytes of physical memory"
        )


def refuses_exhaustion(what: str) -> Callable[[Callable], Callable]:
    """Decorate a stage so that a ``MemoryError`` from a call becomes
    ``SearchSpaceTooLarge("<what> ran out of memory")``."""

    def guard(stage: Callable) -> Callable:
        @functools.wraps(stage)
        def guarded(*args, **kwargs):
            try:
                return stage(*args, **kwargs)
            except MemoryError:
                pass
            # Raised outside the handler, so the call's frames are released first.
            raise SearchSpaceTooLarge(f"{what} ran out of memory")

        return guarded

    return guard
