"""Byte identity of the supervised campaigns and the gate-level flows
as a test.

Every campaign's report text and journal cell lines must hash to the
committed manifest (``golden_campaigns.json``); the characterisation
and Tables 1-2 must reproduce its exact values.  A refactor that moves
a float addition, reorders a journal field or changes a report column
fails here with an old/new diff.  Regenerate deliberately with::

    PYTHONPATH=src python tests/integration/test_golden_campaigns.py --regen
"""

import sys
import tempfile

import pytest

try:
    from . import golden
except ImportError:  # run as a script for --regen
    import golden


@pytest.mark.parametrize("name", sorted(golden.RUNS))
def test_campaign_matches_golden_manifest(name, golden_run):
    expected = golden.load()[name]
    actual = golden.digest(*golden_run(name))
    assert actual == expected, golden.explain(name, expected, actual)


@pytest.mark.parametrize("name", sorted(golden.VALUES))
def test_values_match_golden_manifest(name):
    assert golden.VALUES[name]() == golden.load()[name]


if __name__ == "__main__":
    if sys.argv[1:] != ["--regen"]:
        sys.exit(f"usage: {sys.argv[0]} --regen")
    with tempfile.TemporaryDirectory() as directory:
        golden.regenerate(directory)
    print(f"rewrote {golden.MANIFEST}")
