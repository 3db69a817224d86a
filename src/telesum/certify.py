"""Certificate-based verification of terminating identities.

A terminating identity sum LHS(n, k) = RHS(n), divided through by its right
side, becomes sum_k F(n, k) = 1 with F vanishing for k > n.  A certificate
is a pair of double sequences (u(n, k), v(n, k)) with u(n, n+1) = 0 and
v(n, 0) = 0 whose telescoping summand

    T(n, k) = (w(n,k) / w(n,0)) * (u(n,0) .. u(n,k-1)) / (v(n,1) .. v(n,k)),
    w = u - v,

is proportional in k to the difference row F(n+1, k) - F(n, k).  The checks:

  * difference_check    -- F(n+1,k) - F(n,k) = c(n) * T(n,k) for 0 <= k <= n+1,
                           with c(n) inferred from the k = 0 column (T(n,0) = 1).
                           Inferring c(n) absorbs any per-identity prefactor
                           without transcribing it, so a whole class of
                           transcription errors cannot occur.
  * telescope_to_zero   -- the difference row sums to zero, and the boundary
                           values u(n, n+1) and v(n, 0) are exactly zero.
  * base_case / row_sum -- sum_k F(0, k) = 1 and sum_k F(n, k) = 1.

All checks are exact; there is no tolerance anywhere.  Every value they
read goes through ``sample_value`` (see ``SampleMemo``).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, Mapping

from .errors import Inadmissible, NoCertificate
from .rational import ZERO
from .report import INADMISSIBLE, CheckRecord, outcome, record
from .telescope import TelescopeProblem, telescoping_terms

Params = Mapping[str, object]
CertFn = Callable[[int, int, Params], Fraction]

#: How many columns past k = n a terminating sum's summand is read: the
#: termination check asserts F(n, k) = 0 for n < k <= n + TERMINATION_OVERSHOOT,
#: and the admissibility probe evaluates the summand there.
TERMINATION_OVERSHOOT = 3


@dataclass(frozen=True)
class Certificate:
    """The (u, v) pair witnessing that the difference row telescopes."""

    u: CertFn
    v: CertFn


@dataclass(frozen=True)
class NormalizedIdentity:
    """An identity in sum_k F(n, k) = 1 form, with an optional certificate."""

    key: str
    F: Callable[[int, int, Params], Fraction]
    certificate: Certificate | None = None
    citation: str = ""


class Row(dict):
    """The columns cell(k) of one row, each computed at its first index.

    A row is one memo entry, so the checks index it instead of looking each
    value up by its full point.  A column that raises stores nothing, so it
    raises again, with the same message, at every index that asks for it.
    """

    def __init__(self, cell: Callable[[int], Fraction]) -> None:
        super().__init__()
        self.cell = cell

    def __missing__(self, k: int) -> Fraction:
        value = self[k] = self.cell(k)
        return value


class SampleMemo:
    """Values f(*args, params) of pure functions at one parameter point.

    Every value is computed once per sample.  Summands, closed forms, F and
    the certificate's u and v are read through ``sample_value``, which
    ``corpus.admissible`` fills while it probes the sample; the checks then
    reuse the probe's values, and each other's, instead of evaluating them
    again.  The checks read whole rows, so a row is one entry per
    (sample, n): a ``Row`` of F(n, .), u(n, .) or v(n, .), or the difference
    row F(n+1, .) - F(n, .), formed once and shared by the difference and
    telescope-to-zero checks.  Rows fill only the columns asked for, so every
    check evaluates the same values, and raises at the same (n, k) with the
    same text, as one that reads point by point.

    A value is computed at its first request and served from the memo after
    that.  The key is the function object and its leading arguments, never
    an identity's name, so two different functions (a certificate and its
    mutation, a summand and a skewed F) never share values.  Only the current
    point's values are held: a request at other parameter values drops them.
    An evaluation that raises stores nothing, so it raises again, with the
    same message, at every call that asks for it.
    """

    def __init__(self) -> None:
        self.point: tuple | None = None
        self.values: dict[tuple, object] = {}

    def __call__(self, fn: Callable[..., Any], *args) -> Any:
        point = tuple(args[-1].items())
        if point != self.point:
            self.point, self.values = point, {}
        values = self.values
        key = (fn, *args[:-1])
        if key not in values:
            values[key] = fn(*args)
        return values[key]

    def row(self, fn: CertFn, n: int, params: Params) -> Row:
        """fn(n, k, params) for k = 0, 1, ... as one entry: a Row."""
        return self(_row, fn, n, params)


def _row(fn: CertFn, n: int, params: Params) -> Row:
    return Row(lambda k: fn(n, k, params))


#: The memo every evaluation of a summand, closed form, F, u or v goes through.
#: It is one per process because term, rhs, F, u and v keep their
#: (..., params) signatures; keying by function and point keeps callers apart.
sample_value = SampleMemo()


def _difference_row(F: CertFn, n: int, params: Params) -> Row:
    """F(n+1, k) - F(n, k) for k = 0, 1, ..., over the memo's F rows."""
    upper, lower = sample_value.row(F, n + 1, params), sample_value.row(F, n, params)
    return Row(lambda k: upper[k] - lower[k])


def telescoping_row(cert: Certificate, n: int, params: Params, k_max: int) -> list[Fraction]:
    """T(n, k) for k = 0..k_max: the kernel's telescoping summands over
    u(n, .) and v(n, .); a zero w(n, 0) or v(n, k) raises DivisionByZero."""
    u, v = sample_value.row(cert.u, n, params), sample_value.row(cert.v, n, params)
    return list(telescoping_terms(TelescopeProblem(u.__getitem__, v.__getitem__, k_max)))


def difference_check(idn: NormalizedIdentity, n: int, params: Params,
                     suite: str = "ez", sample: int | None = None) -> list[CheckRecord]:
    """Verify F(n+1,k) - F(n,k) = c(n) * T(n,k) for every 0 <= k <= n+1."""
    if idn.certificate is None:
        raise NoCertificate(idn.key)
    t_row = telescoping_row(idn.certificate, n, params, n + 1)
    diff = sample_value(_difference_row, idn.F, n, params)
    c = diff[0]  # T(n, 0) = 1
    for k in range(n + 2):
        if diff[k] != c * t_row[k]:
            return [outcome(suite, idn.key, "difference", idn.citation, False, params, n=n,
                            sample=sample, k=k, difference=diff[k], expected=c * t_row[k])]
    return [outcome(suite, idn.key, "difference", idn.citation, True, n=n, sample=sample)]


def telescope_to_zero_check(idn: NormalizedIdentity, n: int, params: Params,
                            suite: str = "ez", sample: int | None = None) -> list[CheckRecord]:
    """Difference row sums to zero; u(n, n+1) and v(n, 0) vanish."""
    cert = idn.certificate
    if cert is None:
        raise NoCertificate(idn.key)
    u_top = sample_value.row(cert.u, n, params)[n + 1]
    v_bot = sample_value.row(cert.v, n, params)[0]
    if u_top != 0 or v_bot != 0:
        return [outcome(suite, idn.key, "telescope_zero", idn.citation, False, params, n=n,
                        sample=sample, u_at_n_plus_1=u_top, v_at_0=v_bot)]
    diff = sample_value(_difference_row, idn.F, n, params)
    total = sum((diff[k] for k in range(n + 2)), ZERO)
    return [outcome(suite, idn.key, "telescope_zero", idn.citation, total == 0, params, n=n,
                    sample=sample, row_sum=total)]


def row_sum_check(idn: NormalizedIdentity, n: int, params: Params,
                  suite: str = "ez", sample: int | None = None,
                  check: str = "row_sum") -> list[CheckRecord]:
    """sum_{k=0}^{n} F(n, k) = 1 (check="base_case" is the n = 0 instance)."""
    F = sample_value.row(idn.F, n, params)
    total = sum((F[k] for k in range(n + 1)), ZERO)
    return [outcome(suite, idn.key, check, idn.citation, total == 1, params, n=n,
                    sample=sample, row_sum=total)]


def verify_sample(idn: NormalizedIdentity, n_max: int, params: Params,
                  suite: str = "ez", sample: int | None = None) -> list[CheckRecord]:
    """Run base case, row sums, difference and telescoping checks for n <= n_max.

    A mid-verification Inadmissible (possible only when the upfront probe
    and the checks disagree) is recorded as such, never as a failure, and
    the remaining checks still run.
    """
    records: list[CheckRecord] = []

    def run(check_name: str, n: int, fn: Callable[..., list[CheckRecord]],
            **kwargs: str) -> None:
        try:
            records.extend(fn(idn, n, params, suite, sample, **kwargs))
        except Inadmissible as exc:
            records.append(record(suite, idn.key, check_name, idn.citation, INADMISSIBLE,
                                  params, n=n, sample=sample, reason=str(exc)))

    run("base_case", 0, row_sum_check, check="base_case")
    for n in range(n_max + 1):
        if n > 0:
            run("row_sum", n, row_sum_check)
        if idn.certificate is not None:
            run("difference", n, difference_check)
            run("telescope_zero", n, telescope_to_zero_check)
    return records


def natural_termination_check(idn: NormalizedIdentity, n: int, params: Params,
                              suite: str = "ez",
                              sample: int | None = None) -> list[CheckRecord]:
    """F(n, k) = 0 for n < k <= n + TERMINATION_OVERSHOOT (the zero-factor
    mechanism)."""
    F = sample_value.row(idn.F, n, params)
    for k in range(n + 1, n + TERMINATION_OVERSHOOT + 1):
        value = F[k]
        if value != 0:
            return [outcome(suite, idn.key, "termination", idn.citation, False, params, n=n,
                            sample=sample, k=k, value=value)]
    return [outcome(suite, idn.key, "termination", idn.citation, True, n=n, sample=sample)]
