"""Default numerical tolerances and fitting parameters.

Everything grid-dependent lives here rather than as inline constants, so
sweeps and the command line can tighten or relax them coherently.
"""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class Tolerances:
    #: max-norm relative residual allowed for the discrete linear solve
    discrete_residual: float = 1e-8
    #: relative error allowed when fitting exponential decay rates
    rate_fit_rel: float = 0.05
    #: relative residual allowed for a polyhomogeneous-expansion fit
    expansion_residual: float = 1e-4
    #: distance from the nearest candidate root at which the measured
    #: log-log slope raises a flag
    slope_flag: float = 0.05
    #: nodes used for the decay-selection boundary condition
    fit_nodes: int = 20
    #: amplitude band (relative to the max) used for rate fits, chosen
    #: to avoid both the outer region and floating-point underflow
    amplitude_lo: float = 1e-40
    amplitude_hi: float = 1e-8

    def with_overrides(self, **kwargs) -> "Tolerances":
        return replace(self, **kwargs)


DEFAULT = Tolerances()


class ConvergenceError(ArithmeticError):
    """A numerical result failed its residual or cross-check gate."""
