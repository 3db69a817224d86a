"""Exact-arithmetic verification of telescoping identities.

The telescoping kernel evaluates both sides of the closed form for sums
sum (w_k/w_0) (u_0..u_{k-1})/(v_1..v_k) with w = u - v; on top of it sit a
certificate verifier for terminating (q-)hypergeometric summations, a
corpus of classical identities with their certificates, a three-term
recurrence engine with the classical combinatorial families, sums with
sequence parameters, a deterministic rational-identity tester, and a small
expression language for user-defined identities.  Every computation is in
exact rational arithmetic; every check is exact equality.

``import telesum`` runs no submodule.  Each name in ``__all__`` is served at
its first read by the module that defines it (``_DEFERRED``), so a CLI start,
which imports ``telesum.cli`` through this package, pays only for the
modules its run reads (see ``runner``).  ``Param`` is defined in ``point``,
with the draw, a ``Point`` that holds its sample's values; corpus re-exports it.
"""

from importlib import import_module

__version__ = "0.1.0"

#: The module that defines each export ("module.name" where the export is
#: renamed), in the order of ``__all__``.
_DEFERRED = {
    "CORPUS": "corpus", "ELEMENTARY": "elementary", "FAMILIES": "sequences",
    "Certificate": "certify", "CheckRecord": "report", "DivisionByZero": "errors",
    "IdentityDef": "corpus", "Inadmissible": "errors", "NoCertificate": "errors",
    "NormalizedIdentity": "certify", "Param": "point", "Rational": "rational",
    "RecurrenceSpec": "sequences", "Report": "report", "SampleExhausted": "errors",
    "SeqFn": "rational", "SequenceParams": "genhyp", "TelescopeProblem": "telescope",
    "VerifyError": "errors", "eval_expr": "exprlang.evaluate", "evaluate_identity": "corpus",
    "format_rational": "rational", "generate": "sequences", "load_identity_config": "exprlang",
    "lucas_gen_sides": "sequences", "macdonald_cv": "genhyp", "macdonald_cv_permuted": "genhyp",
    "macdonald_dougall": "genhyp", "macdonald_ps": "genhyp", "normalized": "corpus",
    "parse": "exprlang", "q_rising_factorial": "corpus", "raw_euler_sum": "telescope",
    "rising_factorial": "corpus", "run_suite": "runner", "solve_linear_recurrence": "telescope",
    "telescoping_closed_form": "telescope", "telescoping_sum": "telescope",
    "to_source": "exprlang", "verify_family_suite": "sequences", "verify_lucas_gen": "sequences",
    "verify_sample": "certify",
}


def __getattr__(name: str):
    if name in _DEFERRED:
        module, _, attribute = _DEFERRED[name].partition(".")
        return getattr(import_module(f".{module}", __name__), attribute or name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = list(_DEFERRED)
