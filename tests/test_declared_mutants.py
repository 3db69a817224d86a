"""A fixed subset of the mutation census of the certified sums' declarations.

Each mutant changes one datum of ``corpus.DECLARED["q_dougall"]``: the first
entry of a summand, closed-form, u or v list times q, or one of the four
arguments z times q.  It is built by the one builder,
``Declaration.identity``, and run by the ez suite.  Every mutant must fail
by a named check, not by sampling exhaustion; the unmutated sum fails none.
Dropping the very-well-poised head of q_dougall or rogers_6phi5 must fail
too, in the ez suite and in the corpus suite.
"""

import pytest

from telesum.certify import sample_value
from telesum.corpus import CORPUS, DECLARED, draw_admissible
from telesum.report import FAIL
from telesum.runner import run_corpus_item, run_ez_item
from telesum.sampling import rng_for

DECLARED_SUM = DECLARED["q_dougall"]


def times_q(declared, part):
    """declared (a summand, closed_form, u or v function) with the entry at
    part of what it gives times q: the first entry of a list, or z."""
    def mutant(*args, **p):
        lists = list(declared(*args, **p))
        entry = lists[part]
        if isinstance(entry, list):
            lists[part] = [entry[0] * p["q"], *entry[1:]]
        else:
            lists[part] = entry * p["q"]
        return tuple(lists)

    return mutant


SUMMAND_FAILS = {"difference", "row_sum", "telescope_zero"}
CERTIFICATE_FAILS = {"difference"}

MUTANTS = {
    ("summand", 0): SUMMAND_FAILS,  # upper
    ("summand", 1): SUMMAND_FAILS,  # lower
    ("summand", 2): SUMMAND_FAILS,  # z
    ("closed_form", 0): SUMMAND_FAILS,
    ("closed_form", 1): SUMMAND_FAILS,
    ("closed_form", 2): SUMMAND_FAILS,
    ("u", 0): CERTIFICATE_FAILS,  # factors
    ("u", 1): CERTIFICATE_FAILS,  # z
    ("v", 0): CERTIFICATE_FAILS,
    ("v", 1): CERTIFICATE_FAILS,
}


def failing_checks(monkeypatch, declared):
    monkeypatch.setitem(CORPUS, "q_dougall", declared.identity())
    return {r.check for r in run_ez_item("q_dougall", 4, 2, 1729) if r.status == FAIL}


def test_the_unmutated_sum_fails_nothing(monkeypatch):
    assert failing_checks(monkeypatch, DECLARED_SUM) == set()


@pytest.mark.parametrize("field, part", MUTANTS, ids=[f"{f}[{i}]" for f, i in MUTANTS])
def test_each_mutant_fails_a_named_check(monkeypatch, field, part):
    mutant = DECLARED_SUM._replace(**{field: times_q(getattr(DECLARED_SUM, field), part)})
    failed = failing_checks(monkeypatch, mutant)
    assert "sampling" not in failed
    assert failed == MUTANTS[field, part]


@pytest.mark.parametrize("key", ["q_dougall", "rogers_6phi5"])
def test_a_sum_without_its_head_fails_a_named_check(monkeypatch, key):
    monkeypatch.setitem(CORPUS, key, DECLARED[key]._replace(well_poised=False).identity())
    ez = {r.check for r in run_ez_item(key, 4, 2, 1729) if r.status == FAIL}
    corpus = {r.check for r in run_corpus_item(key, 4, 2, 1729) if r.status == FAIL}
    assert (ez, corpus) == (SUMMAND_FAILS, {"identity"})


@pytest.mark.parametrize("key", DECLARED)
def test_the_builder_gives_the_corpus_values(key):
    idef, built = CORPUS[key], DECLARED[key].identity()
    for field in ("key", "citation", "params", "n_max"):
        assert getattr(built, field) == getattr(idef, field), field
    p = draw_admissible(idef, rng_for(1729, "declared", key), idef.n_max)
    for n in range(idef.n_max + 1):
        assert sample_value(built.rhs, n, p) == sample_value(idef.rhs, n, p), (p, n)
        for k in range(n + 2):
            for got, want in ((built.term, idef.term), (built.certificate.u, idef.certificate.u),
                              (built.certificate.v, idef.certificate.v)):
                assert got(n, k, p) == want(n, k, p), (p, n, k)
