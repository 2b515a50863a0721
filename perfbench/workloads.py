"""Workload definitions shared by the harness and the pin generator."""

from __future__ import annotations

#: Claims whose measurement runs through ``BatchRunner`` (E4, E10-rounds,
#: E11, E20 and E21 measure mostly outside it).
STORE_CLAIMS = "E1,E2,E3,E5,E6,E7,E8,E9,E10-stop,E12,E13,E18"

#: ``repro verify`` inputs of the two verify workloads.
VERIFY_CONFIGS = {
    "verify-serial": {"claims": "all", "budget": "small"},
    "store-replay": {"claims": STORE_CLAIMS, "budget": "medium"},
}

#: Verify seeds pinned per workload; ``--seed n`` selects the
#: ``n mod VERIFY_SEED_COUNT``-th of them.
VERIFY_SEED_COUNT = 16
