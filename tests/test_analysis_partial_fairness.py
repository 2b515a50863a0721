"""Partial-fairness analysis tests (Theorem 23, Lemmas 25-27)."""

from collections import Counter

import pytest

from repro.adversaries import (
    FixedRoundStopper,
    KnownOutputStopper,
    LeakyInputExtractor,
)
from repro.analysis import (
    gk_e10_probability,
    gk_ideal_outcomes,
    gk_real_outcomes,
    gk_realization_distance,
    leaky_distinguisher_probabilities,
    leaky_ideal_bound_violated,
    leaky_privacy_distance,
    leaky_real_views,
    leaky_simulated_views,
    statistical_distance,
)
from repro.analysis.partial_fairness import _leaky_run
from repro.crypto.prf import Rng
from repro.engine.execution import run_execution
from repro.functionalities.share_gen import open_sealed
from repro.functions import make_and
from repro.protocols import GordonKatzProtocol, LeakyAndProtocol
from repro.protocols.leaky_and import PROLOGUE_ROUNDS


class TestStatisticalDistance:
    def test_identical(self):
        assert statistical_distance({"a": 10, "b": 10}, {"a": 1, "b": 1}) == 0

    def test_disjoint(self):
        assert statistical_distance({"a": 5}, {"b": 5}) == 1.0

    def test_partial_overlap(self):
        d = statistical_distance({"a": 3, "b": 1}, {"a": 1, "b": 3})
        assert d == pytest.approx(0.5)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            statistical_distance({}, {"a": 1})


class TestGkRealization:
    """Theorem 23: the GK protocol realizes Fsfe$ — real and simulated
    outcome distributions coincide up to Monte-Carlo noise."""

    def setup_method(self):
        self.protocol = GordonKatzProtocol(make_and(), p=2)
        self.inputs = (1, 1)

    def _baseline(self, builder, runs):
        """Self-distance of the real distribution: pure sampling noise."""
        a = gk_real_outcomes(self.protocol, builder, self.inputs, runs, 100)
        b = gk_real_outcomes(self.protocol, builder, self.inputs, runs, 200)
        return statistical_distance(a, b)

    def test_known_output_stopper_realization(self):
        builder = lambda: KnownOutputStopper(0, known_output=1)
        runs = 300
        d = gk_realization_distance(
            self.protocol, builder, self.inputs, runs, seed=1
        )
        assert d <= self._baseline(builder, runs) + 0.08

    def test_fixed_round_stopper_realization(self):
        builder = lambda: FixedRoundStopper(0, stop_index=2)
        runs = 300
        d = gk_realization_distance(
            self.protocol, builder, self.inputs, runs, seed=2
        )
        assert d <= self._baseline(builder, runs) + 0.08

    def test_e10_probability_bounded(self):
        prob = gk_e10_probability(
            self.protocol,
            lambda: KnownOutputStopper(0, known_output=1),
            self.inputs,
            n_runs=300,
            seed=3,
        )
        assert prob <= 1 / self.protocol.p + 0.06

    def test_ideal_outcomes_have_same_support_shape(self):
        builder = lambda: FixedRoundStopper(1, stop_index=0)
        real = gk_real_outcomes(self.protocol, builder, self.inputs, 100, 4)
        ideal = gk_ideal_outcomes(self.protocol, builder, self.inputs, 100, 5)
        # Both stop after exactly one observed value.
        assert all(k[1] == 1 for k in real)
        assert all(k[1] == 1 for k in ideal)


class TestLeakySeparation:
    """Lemmas 26/27: Π̃ separates 1/p-security+privacy from Fsfe$."""

    def test_distinguishers_show_non_realization(self):
        p_z1, p_z2 = leaky_distinguisher_probabilities(n_runs=600, seed=1)
        # Real world: Z1 fires (leak correct AND z1 = 0) essentially
        # whenever Z2 fires (leak happened), both ≈ 1/4.
        assert abs(p_z2 - 0.25) < 0.06
        assert abs(p_z1 - p_z2) < 0.03
        assert leaky_ideal_bound_violated(p_z1, p_z2, tolerance=0.03)

    def test_privacy_simulator_matches_views(self):
        d = leaky_privacy_distance(n_runs=500, seed=2)
        baseline = statistical_distance(
            leaky_real_views(500, 10), leaky_real_views(500, 11)
        )
        assert d <= baseline + 0.06

    def test_view_support(self):
        views = leaky_simulated_views(50, 3)
        for (x1, leaked, count, all_zero), _ in views.items():
            assert x1 in (0, 1)
            assert leaked in (None, x1)
            assert all_zero
            assert count > 0

    @pytest.mark.parametrize(
        "measure",
        [
            leaky_distinguisher_probabilities,
            leaky_real_views,
            leaky_simulated_views,
            leaky_privacy_distance,
        ],
    )
    @pytest.mark.parametrize("n_runs", [0, -3])
    def test_measures_need_a_run(self, measure, n_runs):
        with pytest.raises(ValueError, match="n_runs"):
            measure(n_runs=n_runs, seed=0)


# --------------------------------------------------------------------------
# The Π̃ kernel against the engine
# --------------------------------------------------------------------------

class _ViewCollectingExtractor(LeakyInputExtractor):
    """LeakyInputExtractor that also opens and records the GK stream.

    The peek happens in :meth:`should_abort` — i.e. *after* the corrupted
    machine was stepped this round, so its ShareGen payload is available
    from reveal index 0 on (rushing shows each token one round before the
    machine banks it).
    """

    def __init__(self):
        super().__init__()
        self.stream_values = []

    def should_abort(self, iface, contexts) -> bool:
        runner = self._runners.get(1)
        payload = (
            getattr(runner.machine, "payload", None) if runner else None
        )
        if payload is not None:
            reveal_index = iface.round - PROLOGUE_ROUNDS - 1
            if 0 <= reveal_index < payload.rounds:
                for message in iface.rushing_messages():
                    if message.receiver != 1:
                        continue
                    try:
                        value = open_sealed(
                            message.payload,
                            payload.incoming_pads[reveal_index],
                            payload.mac_key,
                            "b",
                        )
                    except ValueError:
                        continue
                    self.stream_values.append(value)
        return False


def _engine_run(rng, x2=0):
    """The reference for ``_leaky_run(rng, view=True, x2=x2)``: a full
    execution."""
    x1 = rng.fork("x1").randrange(2)
    adversary = _ViewCollectingExtractor()
    result = run_execution(
        LeakyAndProtocol(), (x1, x2), adversary, rng.fork("exec")
    )
    return (
        x1,
        adversary.extracted_input,
        result.outputs[0].value,
        tuple(adversary.stream_values),
    )


def _engine_distinguisher(n_runs, seed):
    master = Rng(seed)
    z1_hits = z2_hits = 0
    for k in range(n_runs):
        rng = master.fork(f"dist-{k}")
        x1 = rng.fork("x1").randrange(2)
        adversary = LeakyInputExtractor()
        result = run_execution(
            LeakyAndProtocol(), (x1, 0), adversary, rng.fork("exec")
        )
        leaked = adversary.extracted_input
        if leaked is not None:
            z2_hits += 1
            if leaked == x1 and result.outputs[0].value == 0:
                z1_hits += 1
    return z1_hits / n_runs, z2_hits / n_runs


def _engine_real_views(n_runs, seed):
    master = Rng(seed)
    views = Counter()
    for k in range(n_runs):
        x1, leaked, _, stream = _engine_run(master.fork(f"view-{k}"))
        views[(x1, leaked, len(stream), all(v == 0 for v in stream))] += 1
    return views


def _seeds(n):
    """Seeds of every kind ``Rng`` takes: ints, strings and tuples."""
    kinds = (lambda k: k, lambda k: f"leaky-{k}", lambda k: ("leaky", k))
    return [kinds[k % 3](k) for k in range(n)]


class TestLeakyKernel:
    """``_leaky_run`` reproduces the engine exactly, run for run."""

    def test_runs_match_engine(self):
        # With x2 = 0 every value of p2's stream is 0, so only x2 = 1
        # lets a wrong i* or fake draw show in the view.
        for x2 in (0, 1):
            leaks = set()
            for seed in _seeds(200):
                expected = _engine_run(Rng(seed), x2)
                assert _leaky_run(Rng(seed), True, x2) == expected, seed
                assert _leaky_run(Rng(seed), x2=x2) == expected[:3] + (
                    None,
                ), seed
                leaks.add(expected[1] is not None)
            # Both branches of the leak coin were exercised.
            assert leaks == {True, False}

    @pytest.mark.parametrize("n_runs, seed", [(1, 0), (9, "a"), (24, (3,))])
    def test_measures_match_engine_loops(self, n_runs, seed):
        assert leaky_distinguisher_probabilities(
            n_runs, seed
        ) == _engine_distinguisher(n_runs, seed)
        assert leaky_real_views(n_runs, seed) == _engine_real_views(
            n_runs, seed
        )

    def test_engine_fault_settings_are_ignored(self, monkeypatch):
        clean = (
            leaky_distinguisher_probabilities(40, 5),
            leaky_real_views(40, 5),
        )
        monkeypatch.setenv("REPRO_FAULT_RATE", "0.5")
        assert (
            leaky_distinguisher_probabilities(40, 5),
            leaky_real_views(40, 5),
        ) == clean
