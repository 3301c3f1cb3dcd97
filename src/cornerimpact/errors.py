"""Exception hierarchy shared by all modules.

Input-contract violations derive from :class:`InvalidInput` (a ``ValueError``)
and map to CLI exit code 2; runtime numerical breakdowns derive from
:class:`NumericFailure` and map to exit code 3.
"""


class CornerImpactError(Exception):
    """Base class for all package errors."""


class InvalidInput(CornerImpactError, ValueError):
    """An argument violates a documented precondition."""


class NotOverDamped(InvalidInput):
    """Damping ratio alpha must exceed 1 for real characteristic roots, and
    keep alpha^2 - 1 finite for finite ones."""


class OutOfPhase(InvalidInput):
    """A time argument is not finite or lies outside its window (the
    phase a closed form holds on, or the span a run covers)."""


class NoCrossing(InvalidInput):
    """The slide has no crossing time t0 = -s0/ds0 (needs 0 < ds0 < inf)."""


class ScaleUnderflow(InvalidInput):
    """The corner scale factor eta, or a corner constant derived from it
    (R0, R0^3, W, tau0, kappa), leaves the range of double precision: the
    stiffness is too large (eta < e^-175; use the scale-free
    parameterisation) or too small (1 - eps rounds to 0), or alpha is too
    large."""


class ConfigError(InvalidInput):
    """A config file failed to parse or validate; message names the line."""


class ScaleFreeRun(InvalidInput):
    """Physical-time reconstruction requested for a run without a stiffness."""


class NumericFailure(CornerImpactError, RuntimeError):
    """A numerical procedure failed to converge or broke down."""


class SingularRadius(NumericFailure):
    """The radial coordinate reached zero; the central force is singular."""


class IntegrationFailure(NumericFailure):
    """The adaptive integrator gave up (step underflow or step budget)."""
