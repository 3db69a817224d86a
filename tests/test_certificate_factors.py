"""The declared certificates against the hand-written product code they replace.

Each certified sum declares u and v as (factors, z) lists evaluated by
``corpus._factor_pair`` over the sample's row of q^k.  The reference below
is the closure-per-certificate transcription of the same proofs; the two
must give equal values, and raise the same exception types, at every point
with q != 0.  (At q = 0 a declared q^(-n-1) factor raises at k = n + 1
too; no sampler draws q = 0.)
"""

from fractions import Fraction

import pytest

from telesum.corpus import CERTIFIED_KEYS, CORPUS
from telesum.rational import rat_div, rat_pow
from telesum.sampling import rng_for, sample_q, sample_rational


def _q_chu_vandermonde_u(n, k, p):
    a, b, q = p["a"], p["b"], p["q"]
    return (1 - a * rat_pow(q, k)) * (1 - rat_pow(q, -n - 1 + k)) * rat_div(b * rat_pow(q, n), a)


def _q_chu_vandermonde_v(n, k, p):
    b, q = p["b"], p["q"]
    return (1 - b * rat_pow(q, k - 1)) * (1 - rat_pow(q, k))


def _q_pfaff_saalschutz_u(n, k, p):
    a, b, q = p["a"], p["b"], p["q"]
    return ((1 - a * rat_pow(q, k)) * (1 - b * rat_pow(q, k))
            * (1 - rat_pow(q, -n - 1 + k)))


def _q_pfaff_saalschutz_v(n, k, p):
    a, b, c, q = p["a"], p["b"], p["c"], p["q"]
    return ((1 - c * rat_pow(q, k - 1))
            * (1 - rat_div(a * b * rat_pow(q, -n + k), c))
            * (1 - rat_pow(q, k)))


def _q_dougall_u(n, k, p):
    a, b, c, d, q = p["a"], p["b"], p["c"], p["d"], p["q"]
    qk = rat_pow(q, k)
    return ((1 - a * qk) * (1 - b * qk) * (1 - c * qk) * (1 - d * qk)
            * (1 - rat_div(a * a * rat_pow(q, n + k + 1), b * c * d))
            * (1 - rat_pow(q, -n - 1 + k)))


def _q_dougall_v(n, k, p):
    a, b, c, d, q = p["a"], p["b"], p["c"], p["d"], p["q"]
    qk = rat_pow(q, k)
    return ((1 - rat_div(a * qk, b)) * (1 - rat_div(a * qk, c))
            * (1 - rat_div(a * qk, d))
            * (1 - rat_div(b * c * d * rat_pow(q, -n + k - 1), a))
            * (1 - a * rat_pow(q, n + k + 1)) * (1 - qk))


def _rogers_6phi5_u(n, k, p):
    a, b, c, q = p["a"], p["b"], p["c"], p["q"]
    qk = rat_pow(q, k)
    return ((1 - a * qk) * (1 - b * qk) * (1 - c * qk)
            * (1 - rat_pow(q, -n - 1 + k))
            * rat_div(a * rat_pow(q, n + 1), b * c))


def _rogers_6phi5_v(n, k, p):
    a, b, c, q = p["a"], p["b"], p["c"], p["q"]
    qk = rat_pow(q, k)
    return ((1 - rat_div(a * qk, b)) * (1 - rat_div(a * qk, c))
            * (1 - a * rat_pow(q, n + k + 1)) * (1 - qk))


REFERENCE = {
    "binomial_x1": (lambda n, k, p: Fraction(n + 1 - k),
                    lambda n, k, p: Fraction(k)),
    "binomial": (lambda n, k, p: p["x"] * (n - k + 1),
                 lambda n, k, p: Fraction(k)),
    "chu_vandermonde": (lambda n, k, p: (p["a"] + k) * (-n - 1 + k),
                        lambda n, k, p: k * (p["b"] + k - 1)),
    "pfaff_saalschutz": (lambda n, k, p: (p["a"] + k) * (p["b"] + k) * (-n - 1 + k),
                         lambda n, k, p: k * (p["c"] + k - 1) * (-n + k + p["a"] + p["b"] - p["c"])),
    "q_binomial": (lambda n, k, p: p["z"] * rat_pow(p["q"], n) * (1 - rat_pow(p["q"], -n - 1 + k)),
                   lambda n, k, p: 1 - rat_pow(p["q"], k)),
    "q_chu_vandermonde": (_q_chu_vandermonde_u, _q_chu_vandermonde_v),
    "q_pfaff_saalschutz": (_q_pfaff_saalschutz_u, _q_pfaff_saalschutz_v),
    "q_dougall": (_q_dougall_u, _q_dougall_v),
    "rogers_6phi5": (_rogers_6phi5_u, _rogers_6phi5_v),
}

#: Values that make factors vanish or coincide, drawn for every parameter
#: but q, which is never 0.
SPECIAL = tuple(Fraction(x) for x in (0, 1, -1, 2, -3)) + (Fraction(1, 2),)
Q_SPECIAL = tuple(x for x in SPECIAL if x != 0)
POINTS = 80
#: The certificates that divide by a parameter, so that a special point raises.
DIVIDING = {"q_chu_vandermonde", "q_pfaff_saalschutz", "q_dougall", "rogers_6phi5"}


def _points(key):
    rng = rng_for(5, "certificate-factors", key)
    for _ in range(POINTS):
        point = {}
        for param in CORPUS[key].params:
            special = Q_SPECIAL if param.kind == "q" else SPECIAL
            if rng.random() < 0.5:
                point[param.name] = rng.choice(special)
            elif param.kind == "q":
                point[param.name] = sample_q(rng)
            else:
                point[param.name] = sample_rational(rng)
        yield point


def _outcome(fn, n, k, params):
    try:
        return fn(n, k, params)
    except Exception as exc:  # the type is compared, whatever it is
        return type(exc)


def test_reference_covers_every_certified_sum():
    assert sorted(REFERENCE) == sorted(CERTIFIED_KEYS)


@pytest.mark.parametrize("key", sorted(REFERENCE))
def test_declared_certificate_matches_reference(key):
    cert = CORPUS[key].certificate
    raised = 0
    for params in _points(key):
        for n in range(6):
            for k in range(n + 3):
                for declared, reference in zip((cert.u, cert.v), REFERENCE[key]):
                    got = _outcome(declared, n, k, params)
                    want = _outcome(reference, n, k, params)
                    assert got == want, (key, n, k, params)
                    raised += isinstance(want, type)
    assert (raised > 0) == (key in DIVIDING)
