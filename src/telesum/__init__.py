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
modules its run reads (see ``runner``).
"""

from importlib import import_module

__version__ = "0.1.0"

#: The module that defines each export ("module.name" where the export is
#: renamed).
_DEFERRED = {
    "Certificate": "certify", "NormalizedIdentity": "certify", "verify_sample": "certify",
    "CORPUS": "corpus", "IdentityDef": "corpus", "Param": "corpus",
    "evaluate_identity": "corpus", "normalized": "corpus", "q_rising_factorial": "corpus",
    "rising_factorial": "corpus",
    "ELEMENTARY": "elementary",
    "DivisionByZero": "errors", "Inadmissible": "errors", "NoCertificate": "errors",
    "SampleExhausted": "errors", "VerifyError": "errors",
    "eval_expr": "exprlang.evaluate", "load_identity_config": "exprlang",
    "parse": "exprlang", "to_source": "exprlang",
    "SequenceParams": "genhyp", "macdonald_cv": "genhyp", "macdonald_cv_permuted": "genhyp",
    "macdonald_dougall": "genhyp", "macdonald_ps": "genhyp",
    "Rational": "rational", "SeqFn": "rational", "format_rational": "rational",
    "CheckRecord": "report", "Report": "report",
    "run_suite": "runner",
    "FAMILIES": "sequences", "RecurrenceSpec": "sequences", "generate": "sequences",
    "lucas_gen_sides": "sequences", "verify_family_suite": "sequences",
    "verify_lucas_gen": "sequences",
    "TelescopeProblem": "telescope", "raw_euler_sum": "telescope",
    "solve_linear_recurrence": "telescope", "telescoping_closed_form": "telescope",
    "telescoping_sum": "telescope",
}


def __getattr__(name: str):
    if name in _DEFERRED:
        module, _, attribute = _DEFERRED[name].partition(".")
        return getattr(import_module(f".{module}", __name__), attribute or name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "CORPUS", "ELEMENTARY", "FAMILIES", "Certificate", "CheckRecord",
    "DivisionByZero", "IdentityDef", "Inadmissible", "NoCertificate",
    "NormalizedIdentity", "Param", "Rational", "RecurrenceSpec", "Report",
    "SampleExhausted", "SeqFn", "SequenceParams", "TelescopeProblem", "VerifyError",
    "eval_expr", "evaluate_identity", "format_rational", "generate",
    "load_identity_config", "lucas_gen_sides",
    "macdonald_cv", "macdonald_cv_permuted", "macdonald_dougall", "macdonald_ps",
    "normalized", "parse", "q_rising_factorial", "raw_euler_sum", "rising_factorial",
    "run_suite", "solve_linear_recurrence", "telescoping_closed_form", "telescoping_sum",
    "to_source", "verify_family_suite", "verify_lucas_gen", "verify_sample",
]
