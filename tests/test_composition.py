"""Composition of the fairness measure (the E15 ablation).

Replacing a hybrid functionality by a protocol that securely realizes it
leaves the best-attack utility unchanged (the RPD composition theorem the
paper's constructions rely on).  Two instantiations:

* Π2 with its real commit-then-open coin toss vs Π2 in the Fct-hybrid
  model;
* the real GMW protocol vs the dummy protocol in the Fsfe⊥-hybrid model,
  where both concede γ10 to a rushing attacker.
"""

import pytest

from repro.adversaries import (
    LockWatchingAborter,
    corruption_sets,
    fixed,
    strategy_space_for_protocol,
)
from repro.analysis import assess_protocol, u_coin_contract
from repro.circuits import and_circuit
from repro.core import STANDARD_GAMMA, monte_carlo_tolerance
from repro.engine import ABORT, PartyMachine, Protocol
from repro.functionalities import SfeWithAbort
from repro.functions import make_and, make_contract_exchange
from repro.gmw import GmwProtocol
from repro.protocols import CoinOrderedContractSigning, IdealCoinContractSigning

RUNS = 200
TOL = monte_carlo_tolerance(RUNS) + 0.02


class _SfeAbortMachine(PartyMachine):
    def on_round(self, round_no, inbox, ctx):
        if round_no == 0:
            ctx.call(SfeWithAbort.name, self.input)
        elif round_no == 1:
            payload = inbox.from_functionality(SfeWithAbort.name)
            if payload is ABORT or payload is None:
                ctx.output_abort()
            else:
                ctx.output(payload)


class SfeAbortDummy(Protocol):
    """The Fsfe⊥-hybrid dummy protocol: the ideal counterpart of GMW."""

    name = "dummy-sfe-abort[and]"
    n_parties = 2
    max_rounds = 2

    def __init__(self):
        self.func = make_and()

    def build_machines(self, rng):
        return [_SfeAbortMachine(i, 2) for i in range(2)]

    def build_functionalities(self, rng):
        return {SfeWithAbort.name: SfeWithAbort(self.func)}


def test_real_coin_toss_matches_the_fct_hybrid():
    lock_watchers = [
        fixed(f"lock-watch{sorted(s)}", lambda s=s: LockWatchingAborter(set(s)))
        for s in corruption_sets(2)
    ]
    real, ideal = (
        assess_protocol(
            protocol(make_contract_exchange(16)), lock_watchers,
            STANDARD_GAMMA, RUNS, seed=("composition", protocol.__name__),
        ).utility
        for protocol in (CoinOrderedContractSigning, IdealCoinContractSigning)
    )
    assert real == pytest.approx(ideal, abs=2 * TOL)
    assert real == pytest.approx(u_coin_contract(STANDARD_GAMMA), abs=TOL)


def test_gmw_matches_the_fsfe_abort_dummy():
    """Over each protocol's own strategy space the sup is γ10 on both
    sides: a rushing attacker always learns the output first."""
    gmw = GmwProtocol(and_circuit(), [1, 1], make_and())
    dummy = SfeAbortDummy()
    u_gmw, u_dummy = (
        assess_protocol(
            protocol, strategy_space_for_protocol(protocol), STANDARD_GAMMA,
            40, seed=("composition", protocol.name),
        ).utility
        for protocol in (gmw, dummy)
    )
    assert u_gmw == u_dummy == STANDARD_GAMMA.gamma10
