import sys
from pathlib import Path

import pytest

# allow running pytest from a fresh checkout without installing the package
src = Path(__file__).resolve().parents[1] / "src"
if str(src) not in sys.path:
    sys.path.insert(0, str(src))


@pytest.fixture
def drawn_points(monkeypatch):
    """Every point corpus and sequences draw in the test, in draw order.

    The list holds each point, so the test can read the point's own table of
    values (``Point.rows``) after its run returns; with one sample, the last
    point is the accepted one.
    """
    from telesum import corpus, sequences

    points = []

    def capture(draw):
        def drawing(*args):
            points.append(draw(*args))
            return points[-1]
        return drawing

    for module in (corpus, sequences):
        monkeypatch.setattr(module, "draw_params", capture(module.draw_params))
    return points
