"""Shared campaign runs: the golden manifest test and each campaign's
own journal/resume tests read the same journaled smoke-size run."""

import pytest

from . import golden


@pytest.fixture(scope="session")
def golden_run(tmp_path_factory):
    """``golden_run(name) -> (result, journal_path)``, run once per
    session.  Treat the journal as read-only: copy it before resuming
    into it."""
    cache = {}

    def get(name):
        if name not in cache:
            cache[name] = golden.run(name, tmp_path_factory.mktemp(name))
        return cache[name]

    return get
