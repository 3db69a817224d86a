"""Every name in ``telesum.__all__`` resolves, so a deletion that leaves an
export behind fails here rather than at a user's import."""

import telesum


def test_every_exported_name_resolves():
    assert set(telesum._DEFERRED) <= set(telesum.__all__)  # the names served at first use
    missing = []
    for name in telesum.__all__:
        try:
            getattr(telesum, name)
        except AttributeError:
            missing.append(name)
    assert missing == []
