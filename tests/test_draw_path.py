"""Every declared parameter is drawn by ``corpus.draw_params``.

``sampling.sample_q`` redraws exactly while |q| = 1, and the q-Dougall
specialization draws its (q, a, b, c, d) through ``draw_params``.  Each test
below keeps the code it replaced, verbatim, and requires the same draws and
the same random state after them.
"""

import ast
from pathlib import Path

from telesum import runner
from telesum.corpus import draw_params
from telesum.runner import SPECIALIZATION_KEY, _specialization_params
from telesum.sampling import rng_for, sample_q, sample_rational

SRC = Path(__file__).resolve().parents[1] / "src" / "telesum"


def old_sample_q(rng, unity_bound):
    """A base q avoiding 0 and q^m = 1 for all m <= unity_bound."""
    while True:
        q = sample_rational(rng)
        if not any(q**m == 1 for m in range(1, unity_bound + 1)):
            return q


def test_sample_q_matches_the_replaced_unity_loop():
    for bound in (2, 4, 8, 12, 16, 17):
        for seed in range(3000):
            old, new = rng_for(seed, "sample_q"), rng_for(seed, "sample_q")
            assert sample_q(new) == old_sample_q(old, bound), (bound, seed)
            assert new.getstate() == old.getstate(), (bound, seed)
    # Streams whose first draw is +-1, so both samplers redraw.
    redrawn = [seed for seed in range(3000)
               if abs(sample_rational(rng_for(seed, "sample_q"))) == 1]
    assert len(redrawn) == 41


def old_specialization_attempt(rng):
    """The specialization's hand-rolled draw, before it declared its parameters."""
    q = old_sample_q(rng, 4)
    point = {name: sample_rational(rng) for name in "abcd"}
    return q, point


def new_specialization_attempt(rng):
    point = draw_params(_specialization_params(), rng, 0)
    q = point.pop("q")
    return q, point


def test_specialization_draw_matches_the_replaced_attempt():
    for seed in range(1729, 1745):
        for i in range(32):
            old = rng_for(seed, "corpus", SPECIALIZATION_KEY, i)
            new = rng_for(seed, "corpus", SPECIALIZATION_KEY, i)
            for _ in range(3):  # the retries of one sample read on from the same stream
                want = old_specialization_attempt(old)
                got = new_specialization_attempt(new)
                assert got == want and list(got[1]) == list("abcd"), (seed, i)
                assert new.getstate() == old.getstate(), (seed, i)


def test_specialization_item_draws_through_draw_params(monkeypatch):
    calls = []

    def counting(params, rng, length):
        calls.append(params)
        return draw_params(params, rng, length)

    monkeypatch.setattr(runner, "draw_params", counting)
    records = runner.run_corpus_item(SPECIALIZATION_KEY, None, 4, 1729)
    assert len(records) == 4 and all(r.status == "pass" for r in records)
    assert calls and all(c is _specialization_params() for c in calls)


def test_corpus_does_not_import_genhyp():
    tree = ast.parse((SRC / "corpus.py").read_text(encoding="utf-8"))
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            imported += [node.module or ""] + [alias.name for alias in node.names]
    assert not [name for name in imported if "genhyp" in name]
