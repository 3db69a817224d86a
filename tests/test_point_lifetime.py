"""A drawn point owns its sample's values and frees them with itself.

Nothing in a point's table refers back to the point but weakly, so a point
and its rows form no reference cycle: they are freed by reference counting
as soon as the sample drops its point, with the cyclic collector off.
"""

import gc
import weakref
from pathlib import Path

import pytest

from telesum import corpus, sequences
from telesum.certify import Summands
from telesum.corpus import _TermRow
from telesum.exprlang import load_identity_config
from telesum.point import Point, Row
from telesum.runner import (SPECIALIZATION_KEY, run_config_identity, run_corpus_item,
                            run_ez_item, run_sequences_item)

CONFIG = Path(__file__).resolve().parent.parent / "perfbench" / "configs" / "q_chu_vandermonde.tkid"

RUNS = {
    "ez q_dougall": lambda: run_ez_item("q_dougall", 4, 2, 1729),
    "corpus q_dougall": lambda: run_corpus_item("q_dougall", 4, 2, 1729),
    "corpus ramanujan_entry25": lambda: run_corpus_item("ramanujan_entry25", 4, 2, 1729),
    "corpus specialization": lambda: run_corpus_item(SPECIALIZATION_KEY, None, 2, 1729),
    "sequences q_pell": lambda: run_sequences_item("q_pell", 4, 2, 1729),
    "check config": lambda: run_config_identity(load_identity_config(CONFIG), 3, 2).records,
}


@pytest.mark.parametrize("run", RUNS.values(), ids=RUNS)
def test_a_sample_frees_its_point_without_the_cyclic_collector(run, monkeypatch):
    points = []

    def capture(draw):
        def drawing(*args):
            # every point drawn before, accepted or rejected, is freed by now
            assert [p() for p in points] == [None] * len(points)
            drawn = draw(*args)
            points.append(weakref.ref(drawn))
            return drawn
        return drawing

    for module in (corpus, sequences):
        monkeypatch.setattr(module, "draw_params", capture(module.draw_params))
    enabled, flags = gc.isenabled(), gc.get_debug()
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)  # the collector keeps what it frees in gc.garbage
    try:
        records = run()
        alive = [p() for p in points]
        gc.collect()
        cyclic = [type(obj).__name__ for obj in gc.garbage
                  if isinstance(obj, (Point, Row, _TermRow, Summands))]
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()
        if enabled:
            gc.enable()
    assert records and points
    assert alive == [None] * len(points)
    assert cyclic == []
