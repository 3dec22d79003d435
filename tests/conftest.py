"""Fixtures shared across test modules."""

import pytest


@pytest.fixture(scope="session")
def census_weaves():
    """Every census weave, run once for the whole session: ``protocol_two``
    on each labelled tree of 3, 4 and 5 agents under both step-2 circuits,
    as ``[(report, leaves), ...]``. ``leaves`` are the networks of the
    branches the report verified, the live run first; the factor map was
    checked after every executed record, and ``leaves.checked`` counts the
    checks (``test_replay.capture_census_weaves``).
    """
    from test_replay import capture_census_weaves

    return capture_census_weaves()
