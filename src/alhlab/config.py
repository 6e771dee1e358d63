"""Numerical tolerances, the exceptions of failed checks and that of the
packed-field degree limit.

The four settable values live in one immutable ``typing.NamedTuple``, so
sweeps and the command line can tighten or relax them coherently; change
them with ``DEFAULT._replace(...)``.  A NamedTuple, not a dataclass:
``dataclasses`` imports ``inspect`` and with it ``ast``, ``dis`` and
``tokenize``, which every command-line call would compile and run.
Everything else numerical is a constant beside the code that uses it.
"""

from __future__ import annotations

from typing import NamedTuple


class Tolerances(NamedTuple):
    #: max-norm relative residual allowed for the discrete linear solve
    discrete_residual: float = 1e-8
    #: distance from the nearest candidate root at which the measured
    #: log-log slope raises a flag
    slope_flag: float = 0.05
    #: amplitude band (relative to the max) used for rate fits, chosen
    #: to avoid both the outer region and floating-point underflow
    amplitude_lo: float = 1e-40
    amplitude_hi: float = 1e-8


DEFAULT = Tolerances()


class ConvergenceError(ArithmeticError):
    """A numerical result failed its residual or cross-check gate."""


class DegreeOverflowError(ArithmeticError):
    """An exponent or total degree passed the packed-field degree limit
    (2^15 - 1)."""


class ExactIdentityError(ArithmeticError):
    """An identity that must hold exactly failed to."""
