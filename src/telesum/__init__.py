"""Exact-arithmetic verification of telescoping identities.

The telescoping kernel evaluates both sides of the closed form for sums
sum (w_k/w_0) (u_0..u_{k-1})/(v_1..v_k) with w = u - v; on top of it sit a
certificate verifier for terminating (q-)hypergeometric summations, a
corpus of classical identities with their certificates, a three-term
recurrence engine with the classical combinatorial families, sums with
sequence parameters, a deterministic rational-identity tester, and a small
expression language for user-defined identities.  Every computation is in
exact rational arithmetic; every check is exact equality.
"""

from importlib import import_module

from .certify import Certificate, NormalizedIdentity, verify_sample
from .corpus import (CORPUS, IdentityDef, Param, evaluate_identity, normalized,
                     q_rising_factorial, rising_factorial)
from .errors import (DivisionByZero, Inadmissible, NoCertificate, SampleExhausted,
                     VerifyError)
from .rational import Rational, SeqFn, format_rational
from .report import CheckRecord, Report
from .runner import run_suite
from .telescope import (TelescopeProblem, raw_euler_sum, solve_linear_recurrence,
                        telescoping_closed_form, telescoping_sum)

__version__ = "0.1.0"

#: Every export served at first use, by the module that defines it ("module.name"
#: where the export is renamed).  A start runs none of these modules until a run
#: or a caller reads one of their names; ``runner`` binds the suite modules.
_DEFERRED = {
    "ELEMENTARY": "elementary",
    "SequenceParams": "genhyp", "macdonald_cv": "genhyp", "macdonald_cv_permuted": "genhyp",
    "macdonald_dougall": "genhyp", "macdonald_ps": "genhyp",
    "FAMILIES": "sequences", "RecurrenceSpec": "sequences", "generate": "sequences",
    "lucas_gen_sides": "sequences", "verify_family_suite": "sequences",
    "verify_lucas_gen": "sequences",
    "eval_expr": "exprlang.evaluate", "load_identity_config": "exprlang",
    "parse": "exprlang", "to_source": "exprlang",
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
