"""The docs name registry claims, and only registry claims.

EXPERIMENTS.md and docs/paper_map.md cite claim ids in backticks
(`` `E11-separation` ``).  Every id they cite must be registered, so a
reader can run ``repro verify --claims <id>``, and EXPERIMENTS.md must
cite every registered claim, so no claim goes undocumented.
"""

import re
from pathlib import Path

import pytest

from repro.verify import default_registry

ROOT = Path(__file__).resolve().parents[1]

#: A claim id in backticks: an experiment id, optionally with a suffix.
CLAIM_ID = re.compile(r"`(E\d+(?:-[a-z0-9]+)*)`")

REGISTERED = {claim.claim_id for claim in default_registry()}


def cited(doc: str) -> set:
    return set(CLAIM_ID.findall((ROOT / doc).read_text(encoding="utf-8")))


@pytest.mark.parametrize("doc", ["EXPERIMENTS.md", "docs/paper_map.md"])
def test_cited_claim_ids_are_registered(doc):
    assert cited(doc) <= REGISTERED, sorted(cited(doc) - REGISTERED)


def test_experiments_cites_every_registered_claim():
    missing = REGISTERED - cited("EXPERIMENTS.md")
    assert not missing, sorted(missing)
