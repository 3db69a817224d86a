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

All checks are exact; there is no tolerance anywhere, and every comparison
is between integers.  F(n, k) = t(n, k) / r(n) for the F of
``corpus.normalized`` (a ``Quotient``: summand over closed form), and
r(n) = 1 for any other F.  Each row n is read as its summands and one
closed form (``Summands``), so the row sum is sum_k t(n, k) = r(n), the
difference check compares t(n+1, k) r(n) - t(n, k) r(n+1) with its k = 0
value times T(n, k), T being the kernel's integer pair, and the telescope
check compares the two rows' running sums times the other row's r.  u and
v are read through ``as_pairs``, which passes the integer pairs a declared
certificate's rows hold as they are.  A Fraction is built
only for a value that a failing record prints.  Every value the checks
read is held by the sample's ``point.Point``, read through ``sample_value``
as rows of one kind: the summands t(n, .), u(n, .) and v(n, .) are one row
per n, and the closed form is one row per sample, read at column n.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, Mapping, NamedTuple
from weakref import ref

from .errors import Inadmissible, NoCertificate
from .point import Row, SampleMemo, sample_value  # Row, SampleMemo: re-exported
from .rational import as_pair, as_pairs, pair_lcm_add, rat_div, zero_divisor
from .report import INADMISSIBLE, CheckRecord, outcome, record
from .telescope import telescoping_pairs

Params = Mapping[str, object]
CertFn = Callable[[int, int, Params], Fraction]

#: How many columns past k = n a terminating sum's summand is read: the
#: termination check asserts F(n, k) = 0 for n < k <= n + TERMINATION_OVERSHOOT,
#: and the admissibility probe evaluates the summand there.
TERMINATION_OVERSHOOT = 3


class Certificate(NamedTuple):
    """The (u, v) pair witnessing that the difference row telescopes."""

    u: CertFn
    v: CertFn


@dataclass(frozen=True)
class NormalizedIdentity:
    """An identity in sum_k F(n, k) = 1 form, with an optional certificate.

    F is any exact function of (n, k, params); ``corpus.normalized`` gives a
    ``Quotient``, whose summand and closed form the checks read apart.  It
    stays a dataclass, as ``corpus.IdentityDef`` does: the benchmark's
    tracer (``perfbench/tracer.py``) rebuilds both with
    ``dataclasses.replace``.
    """

    key: str
    F: Callable[[int, int, Params], Fraction]
    certificate: Certificate | None = None
    citation: str = ""


def by_row(columns: Callable[..., Any]) -> CertFn:
    """fn(*lead, k, params), read through its row: columns(*lead, params)
    returns that row, indexed by k, and the point holds it once, unwrapped.
    A summand's lead is n; a closed form has no lead, so its one row per
    sample is read at column n.  A column held as an integer pair (a
    declared u or v) is returned as a Fraction."""

    def fn(*args) -> Any:
        value = sample_value.row(fn, *args[:-2], args[-1])[args[-2]]
        return Fraction(*value) if type(value) is tuple else value

    fn.columns = columns
    return fn


class Quotient:
    """F(n, k) = term(n, k) / rhs(n): the F of ``corpus.normalized``.

    Called, it reads the summand row and the closed form through
    ``sample_value`` and divides.  The checks read the two separately, and
    compare integers (see ``Summands``).
    """

    def __init__(self, term: Callable[[int, int, Params], Fraction],
                 rhs: Callable[[int, Params], Fraction]) -> None:
        self.term, self.rhs = term, rhs

    def __call__(self, n: int, k: int, params: Params) -> Fraction:
        return rat_div(sample_value.row(self.term, n, params)[k],
                       sample_value.row(self.rhs, params)[n])


class Summands:
    """Row n of F = t/r, read as integers: the summands t(n, k), the closed
    form r(n) as a pair (num, den), and the running sums of the summands.

    For a ``Quotient`` F, t is its summand row and r its closed form; any
    other F is its own summand row, over r = 1.  ``value(k)`` reads F(n, k):
    t(n, k), then r(n), and "division of <t(n, k)> by zero" when r(n) = 0.
    ``total(m)`` is the sum of t(n, k) for k <= m, as an integer pair over the
    lcm of the summands' denominators; reading it reads F(n, 0..m) in order.
    """

    def __init__(self, F: Callable[[int, int, Params], Fraction], n: int,
                 params: Params) -> None:
        if isinstance(F, Quotient):
            self.t, self.closed, self.rhs = sample_value.row(F.term, n, params), F.rhs, None
        else:
            self.t, self.rhs = sample_value.row(F, n, params), (1, 1)
        self.n, self.point = n, ref(params)  # weakly, as the point holds this
        self.sums: list[tuple[int, int]] = []

    def value(self, k: int) -> Fraction:
        t = self.t[k]
        if self.rhs is None:
            r = sample_value.row(self.closed, self.point())[self.n]
            if r == 0:
                raise zero_divisor(t)
            self.rhs = r.numerator, r.denominator
        return t

    def total(self, m: int) -> tuple[int, int]:
        sums = self.sums
        for k in range(len(sums), m + 1):
            t = self.value(k)
            sums.append(pair_lcm_add(sums[-1] if sums else (0, 1), as_pair(t)))
        return sums[m]


def telescoping_row(cert: Certificate, n: int, params: Params,
                    k_max: int) -> list[tuple[int, int]]:
    """T(n, k) for k = 0..k_max as integer pairs: the kernel's telescoping
    summands over u(n, .) and v(n, .); a zero w(n, 0) or v(n, k) raises
    DivisionByZero."""
    u, v = sample_value.row(cert.u, n, params), sample_value.row(cert.v, n, params)
    return list(telescoping_pairs(as_pairs(u.__getitem__), as_pairs(v.__getitem__), k_max))


def difference_check(idn: NormalizedIdentity, n: int, params: Params,
                     suite: str = "ez", sample: int | None = None) -> list[CheckRecord]:
    """Verify F(n+1,k) - F(n,k) = c(n) * T(n,k) for every 0 <= k <= n+1.

    Times r(n) r(n+1), the left side is D(k) = t(n+1, k) r(n) - t(n, k) r(n+1),
    and c(n) is D(0): the check is D(k) = D(0) T(k), cross-multiplied.
    """
    if idn.certificate is None:
        raise NoCertificate(idn.key)
    t_row = telescoping_row(idn.certificate, n, params, n + 1)
    upper = sample_value(Summands, idn.F, n + 1, params)
    lower = sample_value(Summands, idn.F, n, params)
    for k in range(n + 2):
        t1, t0 = upper.value(k), lower.value(k)  # F(n+1, k) before F(n, k)
        if k == 0:
            (r1, s1), (r0, s0) = upper.rhs, lower.rhs
            up, down = r0 * s1, r1 * s0
        b1, b0 = t1.denominator, t0.denominator
        x, y = t1.numerator * up * b0 - t0.numerator * down * b1, b0 * b1  # D(k) = x / y
        if k == 0:
            x0, y0 = x, y
        p, q = t_row[k]
        if x * y0 * q != x0 * p * y:
            scale = r0 * r1  # F(n+1, k) - F(n, k) = D(k) / (r(n) r(n+1)), numerators
            return [outcome(suite, idn.key, "difference", idn.citation, False, params, n=n,
                            sample=sample, k=k, difference=Fraction(x, y * scale),
                            expected=Fraction(x0 * p, y0 * q * scale))]
    return [outcome(suite, idn.key, "difference", idn.citation, True, n=n, sample=sample)]


def telescope_to_zero_check(idn: NormalizedIdentity, n: int, params: Params,
                            suite: str = "ez", sample: int | None = None) -> list[CheckRecord]:
    """Difference row sums to zero; u(n, n+1) and v(n, 0) vanish.

    The row sums to zero when sum_k t(n+1, k) r(n) = sum_k t(n, k) r(n+1),
    over k <= n+1, cross-multiplied.
    """
    cert = idn.certificate
    if cert is None:
        raise NoCertificate(idn.key)
    u_top = as_pair(sample_value.row(cert.u, n, params)[n + 1])
    v_bot = as_pair(sample_value.row(cert.v, n, params)[0])
    if u_top[0] != 0 or v_bot[0] != 0:
        return [outcome(suite, idn.key, "telescope_zero", idn.citation, False, params, n=n,
                        sample=sample, u_at_n_plus_1=Fraction(*u_top),
                        v_at_0=Fraction(*v_bot))]
    upper = sample_value(Summands, idn.F, n + 1, params)
    lower = sample_value(Summands, idn.F, n, params)
    for k in range(n + 2):  # F(n+1, k) before F(n, k)
        upper.total(k)
        lower.total(k)
    (a1, b1), (a0, b0) = upper.sums[n + 1], lower.sums[n + 1]
    (r1, s1), (r0, s0) = upper.rhs, lower.rhs
    if a1 * s1 * b0 * r0 == a0 * s0 * b1 * r1:
        return [outcome(suite, idn.key, "telescope_zero", idn.citation, True, n=n,
                        sample=sample)]
    total = Fraction(a1 * s1, b1 * r1) - Fraction(a0 * s0, b0 * r0)
    return [outcome(suite, idn.key, "telescope_zero", idn.citation, False, params, n=n,
                    sample=sample, row_sum=total)]


def row_sum_check(idn: NormalizedIdentity, n: int, params: Params,
                  suite: str = "ez", sample: int | None = None,
                  check: str = "row_sum") -> list[CheckRecord]:
    """sum_{k=0}^{n} F(n, k) = 1, as sum_k t(n, k) = r(n) (check="base_case"
    is the n = 0 instance)."""
    row = sample_value(Summands, idn.F, n, params)
    a, b = row.total(n)
    r, s = row.rhs
    if a * s == r * b:
        return [outcome(suite, idn.key, check, idn.citation, True, n=n, sample=sample)]
    return [outcome(suite, idn.key, check, idn.citation, False, params, n=n,
                    sample=sample, row_sum=Fraction(a * s, b * r))]


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
    row = sample_value(Summands, idn.F, n, params)
    for k in range(n + 1, n + TERMINATION_OVERSHOOT + 1):
        t = row.value(k)
        if t.numerator != 0:
            r, s = row.rhs
            return [outcome(suite, idn.key, "termination", idn.citation, False, params, n=n,
                            sample=sample, k=k, value=Fraction(t.numerator * s,
                                                               t.denominator * r))]
    return [outcome(suite, idn.key, "termination", idn.citation, True, n=n, sample=sample)]
