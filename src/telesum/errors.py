"""Typed errors shared across the verification engine.

Zero denominators at an evaluation point are error *values*:
``sampling.retry``, the one redraw policy of every suite, redraws on them,
and when every draw is rejected it raises SampleExhausted, which the suites
record as a failed "sampling" check, never a crash.
"""


class VerifyError(Exception):
    """Base class for all engine errors."""


class Inadmissible(VerifyError):
    """The evaluation point violates an identity's admissibility constraints."""


class DivisionByZero(Inadmissible):
    """A denominator vanished while evaluating an expression exactly."""


class NoCertificate(VerifyError):
    """A certificate-based check was requested for an identity without one."""


class SampleExhausted(VerifyError):
    """Every draw of ``sampling.retry`` was rejected: no admissible
    parameters, or no pole-free point, within its bound."""


class UnknownItem(KeyError):
    """An ``--id`` that no selected suite has: a usage error, and a KeyError
    for callers that catch one."""
