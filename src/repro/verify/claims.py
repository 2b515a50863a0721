"""The claims registry: every paper bound as a declarative, runnable object.

Each :class:`Claim` binds one quantitative statement of the paper (a
theorem/lemma bound regenerated by EXPERIMENTS.md E1–E21) to

* its **analytic side** — a closed-form γ-expression from
  ``analysis.analytic`` evaluated at registration-time parameters, and
* its **Monte-Carlo side** — a measurement routine that runs the claim's
  protocol/strategy/sampler configuration through the batch runtime
  (jobs/cache/retry-aware) and returns a :class:`Measurement`, and
* an explicit :class:`TolerancePolicy` standing in for the paper's
  negligible slack plus the sampling error of the chosen budget.

The registry is deliberately declarative: ``repro verify`` and the test
suite iterate it, the checker (``verify.checker``) evaluates it, and the
differential layer (``verify.differential``) cross-checks the two sides
wherever both exist.  Budgets scale every claim's run count together, so
one ``--budget`` knob trades wall-clock for statistical power without
touching any claim definition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Dict, List, Optional, Sequence

from ..adversaries import (
    LockWatchingAborter,
    KnownOutputStopper,
    SignalDeviator,
    fixed,
    strategy_space_for_protocol,
)
from ..core import (
    PARTIAL_FAIRNESS_GAMMA,
    STANDARD_GAMMA,
    balanced_sum_bound,
    monte_carlo_tolerance,
)
from ..runtime import BatchRunner, SerialRunner, resolve_runner

#: Named budgets: multiplier applied to every claim's ``base_runs``.
BUDGET_SCALES = {"small": 0.25, "medium": 1.0, "large": 4.0}

#: No claim ever runs fewer Monte-Carlo executions than this, whatever the
#: budget — below it the Wilson/Hoeffding intervals are too wide to mean
#: anything and a "verified" verdict would be vacuous.
MIN_RUNS = 32


def resolve_budget(budget) -> float:
    """Map a budget name (``small``/``medium``/``large``) or a positive
    integer (runs for a nominal 200-run claim) to a run-count scale."""
    if isinstance(budget, str) and budget in BUDGET_SCALES:
        return BUDGET_SCALES[budget]
    try:
        n = int(budget)
    except (TypeError, ValueError):
        raise ClaimConfigError(
            f"unknown budget {budget!r}; use one of "
            f"{sorted(BUDGET_SCALES)} or a positive integer"
        )
    if n <= 0:
        raise ClaimConfigError(f"budget must be positive, got {n}")
    return n / 200.0


class ClaimConfigError(ValueError):
    """A malformed verification request (unknown claim id, bad budget).

    The CLI maps this to exit code 2 — configuration error, as opposed to
    exit 1 (a claim was actually violated).
    """


class BoundKind(Enum):
    """What relation the claim asserts between analytic and measured."""

    UPPER = "upper"            # measured ≤ analytic
    LOWER = "lower"            # measured ≥ analytic
    EQUALITY = "equality"      # measured ≈ analytic
    STRICT_ORDER = "strict-ordering"  # measured gap > 0, ≈ analytic gap


@dataclass(frozen=True)
class TolerancePolicy:
    """Explicit tolerance: model slack plus a z·SE sampling term.

    ``slack`` absorbs the paper's negligible terms and any residual model
    mismatch; the sampling term ``z · spread / (2·sqrt(n))`` scales with
    the realised budget so a small run is judged by an appropriately
    looser yardstick.  ``spread`` is the payoff range of the measured
    quantity (sums of k terms use k × the per-term spread).
    """

    slack: float = 0.02
    z: float = 3.0
    spread: float = 1.0

    def tolerance(self, n_runs: int) -> float:
        if n_runs <= 0:
            return self.slack
        return self.slack + monte_carlo_tolerance(
            n_runs, z=self.z, spread=self.spread
        )


@dataclass(frozen=True)
class Measurement:
    """One Monte-Carlo (or exact) evaluation of a claim's quantity.

    ``successes`` is set when the value is a binomial proportion, enabling
    an exact Wilson interval; ``ci_low``/``ci_high`` carry the estimator's
    per-event Wilson CI when the value came through ``UtilityEstimate``;
    ``spread`` feeds the Hoeffding bound.  ``n_runs = 0`` marks an exact,
    deterministic quantity (round counts) with a degenerate interval.
    """

    value: float
    n_runs: int
    successes: Optional[int] = None
    spread: float = 1.0
    ci_low: Optional[float] = None
    ci_high: Optional[float] = None
    detail: str = ""

    @classmethod
    def exact(cls, value: float, detail: str = "") -> "Measurement":
        return cls(value=float(value), n_runs=0, spread=0.0, detail=detail)

    @classmethod
    def proportion(
        cls, successes: int, n_runs: int, detail: str = ""
    ) -> "Measurement":
        if n_runs <= 0:
            raise ValueError("a proportion needs at least one run")
        return cls(
            value=successes / n_runs,
            n_runs=n_runs,
            successes=successes,
            spread=1.0,
            detail=detail,
        )

    @classmethod
    def from_estimate(
        cls, estimate, spread: float = 1.0, detail: str = ""
    ) -> "Measurement":
        """Wrap a :class:`~repro.core.utility.UtilityEstimate`."""
        return cls(
            value=estimate.mean,
            n_runs=estimate.n_runs,
            spread=spread,
            ci_low=estimate.ci_low,
            ci_high=estimate.ci_high,
            detail=detail or estimate.adversary,
        )


@dataclass
class ClaimContext:
    """Everything a claim's Monte-Carlo side needs to run.

    Built by the checker: the runner (jobs/cache/retry semantics ride
    along), the per-claim seed material, and the budget scale.  ``runs``
    converts a claim's nominal budget into the realised one; seeds always
    derive from :meth:`seed_for`, so the whole verification artifact is a
    pure function of ``(master seed, budget)``.
    """

    seed: object
    scale: float = 1.0
    budget: str = "medium"
    runner: BatchRunner = field(default_factory=lambda: resolve_runner(1))

    def runs(self, base: int) -> int:
        return max(MIN_RUNS, int(math.ceil(base * self.scale)))

    def seed_for(self, *parts) -> tuple:
        return (self.seed,) + parts


@dataclass(frozen=True)
class Claim:
    """One machine-checkable paper claim.

    ``claim_id`` is unique in the registry; ``experiment`` names the
    EXPERIMENTS.md table the claim regenerates (several claims can share
    one experiment).  ``analytic`` is the closed form (γ already bound);
    ``measure`` runs the Monte-Carlo side.
    """

    claim_id: str
    experiment: str
    paper_ref: str
    statement: str
    kind: BoundKind
    analytic: Callable[[], float]
    measure: Callable[[ClaimContext], Measurement]
    tolerance: TolerancePolicy = TolerancePolicy()
    base_runs: int = 200


class ClaimRegistry:
    """Ordered, id-unique collection of claims with experiment lookup."""

    def __init__(self, claims: Sequence[Claim] = ()):
        self._claims: Dict[str, Claim] = {}
        for claim in claims:
            self.register(claim)

    def register(self, claim: Claim) -> Claim:
        if claim.claim_id in self._claims:
            raise ClaimConfigError(f"duplicate claim id {claim.claim_id!r}")
        self._claims[claim.claim_id] = claim
        return claim

    def __len__(self) -> int:
        return len(self._claims)

    def __iter__(self):
        return iter(self._claims.values())

    def __contains__(self, claim_id: str) -> bool:
        return claim_id in self._claims

    def get(self, claim_id: str) -> Claim:
        try:
            return self._claims[claim_id]
        except KeyError:
            raise ClaimConfigError(
                f"unknown claim {claim_id!r}; known: "
                f"{', '.join(sorted(self._claims))}"
            )

    def experiments(self) -> List[str]:
        """Distinct experiment ids covered, in E-number order."""
        seen = {c.experiment for c in self}
        return sorted(seen, key=lambda e: (len(e), e))

    def select(self, spec: str) -> List[Claim]:
        """Resolve a ``--claims`` spec: ``all``, claim ids, or experiment
        ids (``E2`` selects every claim regenerating experiment E2)."""
        if spec.strip().lower() == "all":
            return list(self)
        chosen: List[Claim] = []
        seen = set()
        for token in (t.strip() for t in spec.split(",")):
            if not token:
                continue
            if token in self._claims:
                matches = [self._claims[token]]
            else:
                matches = [c for c in self if c.experiment == token]
            if not matches:
                raise ClaimConfigError(
                    f"unknown claim or experiment {token!r}; known "
                    f"experiments: {', '.join(self.experiments())}"
                )
            for claim in matches:
                if claim.claim_id not in seen:
                    seen.add(claim.claim_id)
                    chosen.append(claim)
        if not chosen:
            raise ClaimConfigError("empty claim selection")
        return chosen


# ---------------------------------------------------------------------------
# Measurement building blocks
# ---------------------------------------------------------------------------

def constant_inputs(inputs: tuple):
    """An input sampler pinned to one input vector (cacheable)."""

    def sampler(rng):
        return inputs

    sampler.cache_token = f"const:{inputs!r}"
    return sampler


def _lock_watch_space(n: int):
    from ..adversaries import corruption_sets

    return [
        fixed(f"lock-watch{sorted(s)}", lambda s=s: LockWatchingAborter(set(s)))
        for s in corruption_sets(n)
    ]


def _per_t_lock_watchers(n: int):
    return {
        t: [
            fixed(
                f"lock-watch-t{t}",
                lambda t=t: LockWatchingAborter(set(range(t))),
            )
        ]
        for t in range(1, n)
    }


def _assess(protocol, space, gamma, ctx: ClaimContext, base: int, label: str):
    from ..analysis import assess_protocol

    return assess_protocol(
        protocol,
        space,
        gamma,
        ctx.runs(base),
        seed=ctx.seed_for(label),
        runner=ctx.runner,
    )


# ---------------------------------------------------------------------------
# The default registry: the E1–E21 claims
# ---------------------------------------------------------------------------

def default_registry() -> ClaimRegistry:
    """Build the standard claims registry (fresh protocol objects each
    call, so registries are safely independent across checkers)."""
    from ..analysis import (
        u_coin_contract,
        u_naive_contract,
        u_opt_2sfe,
        u_opt_nsfe,
        u_single_round,
        u_unbalanced_opt,
        threshold_gmw_balance_sum,
        measure_reconstruction_rounds,
        balance_profile,
        estimate_utility,
        run_batch,
        leaky_distinguisher_probabilities,
        leaky_privacy_distance,
    )
    from ..analysis.analytic import (
        gk_known_output_e10,
        gk_round_count,
        opt_nsfe_corruption_cost,
        threshold_gmw_overshoot,
    )
    from ..core import optimal_cost_from_profile
    from ..core.events import FairnessEvent
    from ..functions import make_and, make_concat, make_contract_exchange, make_swap
    from ..gmw import ThresholdGmwProtocol
    from ..protocols import (
        CoinOrderedContractSigning,
        GordonKatzProtocol,
        GradualReleaseProtocol,
        NaiveContractSigning,
        Opt2SfeProtocol,
        OptNSfeProtocol,
        SingleRoundProtocol,
        UnbalancedOptProtocol,
    )

    gamma = STANDARD_GAMMA
    registry = ClaimRegistry()

    # -- E1: the introduction's Π1 vs Π2 example ---------------------------
    def measure_pi1(ctx):
        assessment = _assess(
            NaiveContractSigning(make_contract_exchange(16)),
            _lock_watch_space(2), gamma, ctx, 240, "e1-pi1",
        )
        return Measurement.from_estimate(assessment.best_attack)

    def measure_pi2(ctx):
        assessment = _assess(
            CoinOrderedContractSigning(make_contract_exchange(16)),
            _lock_watch_space(2), gamma, ctx, 240, "e1-pi2",
        )
        return Measurement.from_estimate(assessment.best_attack)

    registry.register(Claim(
        claim_id="E1-naive", experiment="E1", paper_ref="§1 (Π1)",
        statement="sup_A u(Π1, A) = γ10: the naive contract always concedes",
        kind=BoundKind.EQUALITY,
        analytic=lambda: u_naive_contract(gamma),
        measure=measure_pi1, base_runs=240,
    ))
    registry.register(Claim(
        claim_id="E1-coin", experiment="E1", paper_ref="§1 (Π2)",
        statement="sup_A u(Π2, A) = (γ10 + max(γ00, γ11))/2: the coin halves "
                  "the unfair branch",
        kind=BoundKind.EQUALITY,
        analytic=lambda: u_coin_contract(gamma),
        measure=measure_pi2, base_runs=240,
    ))

    def measure_pi_gap(ctx):
        u1 = measure_pi1(ctx)
        u2 = measure_pi2(ctx)
        return Measurement(
            value=u1.value - u2.value,
            n_runs=min(u1.n_runs, u2.n_runs),
            spread=2.0,
            detail="u(Π1) − u(Π2)",
        )

    registry.register(Claim(
        claim_id="E1-order", experiment="E1", paper_ref="§1",
        statement="Π2 ≺γ Π1 strictly: the measured utility gap is positive "
                  "and matches γ10 − (γ10+γ11)/2",
        kind=BoundKind.STRICT_ORDER,
        analytic=lambda: u_naive_contract(gamma) - u_coin_contract(gamma),
        measure=measure_pi_gap,
        tolerance=TolerancePolicy(slack=0.03, z=3.0, spread=2.0),
        base_runs=240,
    ))

    # -- E2/E3: Theorem 3 upper bound, Theorem 4 / Lemma 7 lower bound -----
    def measure_opt2sfe_sup(ctx):
        protocol = Opt2SfeProtocol(make_swap(16))
        assessment = _assess(
            protocol, strategy_space_for_protocol(protocol), gamma, ctx,
            100, "e2",
        )
        return Measurement.from_estimate(assessment.best_attack)

    registry.register(Claim(
        claim_id="E2", experiment="E2", paper_ref="Theorem 3",
        statement="sup over the full strategy space of u(ΠOpt2SFE, A) ≤ "
                  "(γ10+γ11)/2",
        kind=BoundKind.UPPER,
        analytic=lambda: u_opt_2sfe(gamma),
        measure=measure_opt2sfe_sup,
        # sup over ~20 estimates biases high; EXPERIMENTS.md E2 used 0.09.
        tolerance=TolerancePolicy(slack=0.06, z=3.0),
        base_runs=100,
    ))

    def measure_opt2sfe_lw(ctx):
        protocol = Opt2SfeProtocol(make_swap(16))
        assessment = _assess(
            protocol, _lock_watch_space(2), gamma, ctx, 160, "e3",
        )
        return Measurement.from_estimate(assessment.best_attack)

    registry.register(Claim(
        claim_id="E3", experiment="E3", paper_ref="Theorem 4 / Lemma 7",
        statement="the generic lock-watching adversary already achieves "
                  "(γ10+γ11)/2 against ΠOpt2SFE (matching lower bound)",
        kind=BoundKind.LOWER,
        analytic=lambda: u_opt_2sfe(gamma),
        measure=measure_opt2sfe_lw, base_runs=160,
    ))

    # -- E4: Lemmas 9/10 reconstruction rounds -----------------------------
    def measure_recon(protocol_builder, label):
        def measure(ctx):
            m = measure_reconstruction_rounds(
                protocol_builder(),
                n_runs=ctx.runs(80),
                seed=ctx.seed_for(label),
                runner=ctx.runner,
            )
            return Measurement.exact(
                m.reconstruction_rounds,
                detail=f"honest rounds {m.honest_rounds}",
            )
        return measure

    registry.register(Claim(
        claim_id="E4-opt2sfe", experiment="E4", paper_ref="Lemma 9 (Def. 8)",
        statement="ΠOpt2SFE has exactly 2 reconstruction rounds",
        kind=BoundKind.EQUALITY,
        analytic=lambda: 2.0,
        measure=measure_recon(lambda: Opt2SfeProtocol(make_swap(16)), "e4a"),
        tolerance=TolerancePolicy(slack=0.0, z=0.0, spread=0.0),
        base_runs=80,
    ))
    registry.register(Claim(
        claim_id="E4-single-round", experiment="E4", paper_ref="Lemma 10",
        statement="a single reconstruction round concedes γ10: the strawman "
                  "has exactly 1",
        kind=BoundKind.EQUALITY,
        analytic=lambda: 1.0,
        measure=measure_recon(
            lambda: SingleRoundProtocol(make_swap(16)), "e4b"
        ),
        tolerance=TolerancePolicy(slack=0.0, z=0.0, spread=0.0),
        base_runs=80,
    ))

    # -- E5: Lemmas 11/13 per-t optimum (n=5, t=2) -------------------------
    def measure_opt_nsfe_t2(ctx):
        estimate = estimate_utility(
            OptNSfeProtocol(make_concat(5, 8)),
            fixed("lw-t2", lambda: LockWatchingAborter({0, 1})),
            gamma,
            n_runs=ctx.runs(160),
            seed=ctx.seed_for("e5"),
            runner=ctx.runner,
        )
        return Measurement.from_estimate(estimate)

    registry.register(Claim(
        claim_id="E5", experiment="E5", paper_ref="Lemmas 11/13",
        statement="u(ΠOptnSFE, A_t) = (t·γ10 + (n−t)·γ11)/n at n=5, t=2",
        kind=BoundKind.EQUALITY,
        analytic=lambda: u_opt_nsfe(gamma, 5, 2),
        measure=measure_opt_nsfe_t2, base_runs=160,
    ))

    # -- E6: Lemmas 14/16 utility-balance sum (n=4) ------------------------
    def measure_balance_sum(ctx):
        profile = balance_profile(
            OptNSfeProtocol(make_concat(4, 8)),
            _per_t_lock_watchers(4),
            gamma,
            n_runs=ctx.runs(120),
            seed=ctx.seed_for("e6"),
            runner=ctx.runner,
        )
        return Measurement(
            value=profile.utility_sum,
            n_runs=ctx.runs(120),
            spread=3.0,
            detail="Σ_t over t ∈ {1,2,3}",
        )

    registry.register(Claim(
        claim_id="E6", experiment="E6", paper_ref="Lemmas 14/16",
        statement="ΠOptnSFE is utility-balanced: Σ_t u = (n−1)(γ10+γ11)/2 "
                  "at n=4",
        kind=BoundKind.EQUALITY,
        analytic=lambda: balanced_sum_bound(4, gamma),
        measure=measure_balance_sum,
        tolerance=TolerancePolicy(slack=0.04, z=3.0, spread=3.0),
        base_runs=120,
    ))

    # -- E7: Lemma 17 with the corrected even-n constant -------------------
    def measure_gmw_sum(n, label):
        def measure(ctx):
            profile = balance_profile(
                ThresholdGmwProtocol(make_concat(n, 8)),
                _per_t_lock_watchers(n),
                gamma,
                n_runs=ctx.runs(48),
                seed=ctx.seed_for(label),
                runner=ctx.runner,
            )
            return Measurement(
                value=profile.utility_sum,
                n_runs=ctx.runs(48),
                spread=float(n - 1),
                detail=f"Σ_t for n={n}",
            )
        return measure

    registry.register(Claim(
        claim_id="E7-overshoot", experiment="E7",
        paper_ref="Lemma 17 (corrected constant)",
        statement="Π½GMW's even-n sum overshoots the balanced bound by "
                  "exactly (γ10−γ11)/2 — not the display's looser "
                  "+(γ10−γ11) (n=4)",
        kind=BoundKind.EQUALITY,
        analytic=lambda: (
            balanced_sum_bound(4, gamma) + threshold_gmw_overshoot(gamma, 4)
        ),
        measure=measure_gmw_sum(4, "e7-even"),
        # The per-t events are deterministic in t, so only model slack.
        tolerance=TolerancePolicy(slack=0.02, z=1.0, spread=3.0),
        base_runs=48,
    ))
    registry.register(Claim(
        claim_id="E7-odd", experiment="E7", paper_ref="Lemma 17",
        statement="for odd n the Π½GMW sum meets the balanced bound exactly "
                  "(n=3)",
        kind=BoundKind.EQUALITY,
        analytic=lambda: threshold_gmw_balance_sum(gamma, 3),
        measure=measure_gmw_sum(3, "e7-odd"),
        tolerance=TolerancePolicy(slack=0.02, z=1.0, spread=2.0),
        base_runs=48,
    ))

    # -- E8: Lemma 18, the optimal-but-unbalanced deviator -----------------
    def measure_unbalanced_t1(ctx):
        n = 4
        protocol = UnbalancedOptProtocol(make_concat(n, 8))
        factories = [
            fixed("lw1", lambda: LockWatchingAborter({0})),
            fixed("sd1", lambda: SignalDeviator({0})),
        ]
        assessment = _assess(protocol, factories, gamma, ctx, 160, "e8")
        return Measurement.from_estimate(assessment.best_attack)

    registry.register(Claim(
        claim_id="E8", experiment="E8", paper_ref="Lemma 18",
        statement="the signal-deviating 1-adversary reaches "
                  "t/n·γ10 + (n−t)/n·(γ10+γ11)/2 against the unbalanced "
                  "optimal protocol (n=4, t=1)",
        kind=BoundKind.EQUALITY,
        analytic=lambda: u_unbalanced_opt(gamma, 4, 1),
        measure=measure_unbalanced_t1,
        tolerance=TolerancePolicy(slack=0.04, z=3.0),
        base_runs=160,
    ))

    # -- E9: Theorem 6 / Lemma 22 derived corruption cost ------------------
    def measure_cost_t2(ctx):
        profile = balance_profile(
            OptNSfeProtocol(make_concat(5, 8)),
            _per_t_lock_watchers(5),
            gamma,
            n_runs=ctx.runs(120),
            seed=ctx.seed_for("e9"),
            runner=ctx.runner,
        )
        cost = optimal_cost_from_profile(profile)
        return Measurement(
            value=cost(2),
            n_runs=ctx.runs(120),
            spread=2.0,
            detail="c(2) = u(Π, A_2) − s(2)",
        )

    registry.register(Claim(
        claim_id="E9", experiment="E9", paper_ref="Theorem 6 / Lemma 22",
        statement="the derived cost c(t) = u(Π, A_t) − s(t) matches "
                  "φ(t) − γ11 for ΠOptnSFE (n=5, t=2)",
        kind=BoundKind.EQUALITY,
        analytic=lambda: opt_nsfe_corruption_cost(gamma, 5, 2),
        measure=measure_cost_t2,
        tolerance=TolerancePolicy(slack=0.04, z=3.0, spread=2.0),
        base_runs=120,
    ))

    # -- E10: Theorems 23/24, the Gordon–Katz 1/p protocols ----------------
    registry.register(Claim(
        claim_id="E10-rounds", experiment="E10", paper_ref="Theorem 23",
        statement="the domain-variant GK protocol reveals for exactly "
                  "20·p·|Y| rounds (p=4, |Y|=2)",
        kind=BoundKind.EQUALITY,
        analytic=lambda: float(gk_round_count(4, 2, "domain")),
        measure=lambda ctx: Measurement.exact(
            GordonKatzProtocol(make_and(), p=4).reveal_rounds
        ),
        tolerance=TolerancePolicy(slack=0.0, z=0.0, spread=0.0),
        base_runs=0,
    ))

    def measure_gk_e10(ctx):
        protocol = GordonKatzProtocol(make_and(), p=2)
        n_runs = ctx.runs(240)
        counts = run_batch(
            protocol,
            fixed("known-output", lambda: KnownOutputStopper(0, known_output=1)),
            n_runs,
            seed=ctx.seed_for("e10"),
            input_sampler=constant_inputs((1, 1)),
            runner=ctx.runner,
        )
        return Measurement.proportion(
            counts.counts.get(FairnessEvent.E10, 0),
            counts.total,
            detail="worst-case known-output stopper, p=2",
        )

    registry.register(Claim(
        claim_id="E10-stop", experiment="E10", paper_ref="Theorem 23",
        statement="the known-output stopper's Pr[E10] equals the exact "
                  "stopping analysis α(1−q_h)/(α+q−αq) (p=2)",
        kind=BoundKind.EQUALITY,
        analytic=lambda: gk_known_output_e10(
            GordonKatzProtocol(make_and(), p=2).alpha, 0.5, 0.5
        ),
        measure=measure_gk_e10,
        tolerance=TolerancePolicy(slack=0.03, z=3.0),
        base_runs=240,
    ))

    # -- E11: Lemmas 26/27, Π̃ is 1/2-secure and private, not Fsfe$ --------
    def distinguisher_rates(ctx):
        n_runs = ctx.runs(320)
        z1, z2 = leaky_distinguisher_probabilities(
            n_runs=n_runs, seed=ctx.seed_for("e11")
        )
        return n_runs, z1, z2

    def measure_leak_rate(ctx):
        n_runs, _z1, z2 = distinguisher_rates(ctx)
        return Measurement.proportion(
            int(round(z2 * n_runs)), n_runs, detail="Pr[Z2 = 1]"
        )

    def measure_separation(ctx):
        n_runs, z1, z2 = distinguisher_rates(ctx)
        # One run adds 1/4, −3/4 or 0 to the gap: a spread of 1.
        return Measurement(
            value=z1 - 0.75 * z2, n_runs=n_runs,
            detail="Pr[Z1 = 1] − ¾·Pr[Z2 = 1]",
        )

    def measure_view_distance(ctx):
        n_runs = ctx.runs(320)
        return Measurement(
            value=leaky_privacy_distance(
                n_runs=n_runs, seed=ctx.seed_for("e11-privacy")
            ),
            n_runs=n_runs,
            # Two n-view samples over 4 view cells: with equal
            # distributions their distance averages at most √(3/2n), and
            # McDiarmid (one view moves it by ≤ 1/n) bounds the excess by
            # √(ln 100 / n) at δ = 0.01; a spread of 2.1 makes the
            # Hoeffding band cover both.
            spread=2.1,
            detail="TV(real p2 views, simulated views)",
        )

    registry.register(Claim(
        claim_id="E11-leak", experiment="E11", paper_ref="Lemma 26",
        statement="Π̃ leaks the corrupted party's input with probability "
                  "exactly 1/4 (the Z2 distinguisher's hit rate)",
        kind=BoundKind.EQUALITY,
        analytic=lambda: 0.25,
        measure=measure_leak_rate,
        tolerance=TolerancePolicy(slack=0.03, z=3.0),
        base_runs=320,
    ))
    registry.register(Claim(
        claim_id="E11-separation", experiment="E11", paper_ref="Lemma 26",
        statement="Lemma 26: Π̃'s real world has Pr[Z1 = 1] > ¾·Pr[Z2 = 1] "
                  "(Z1 fires whenever Z2 does), which no Fsfe$ simulator "
                  "allows, so Π̃ does not realize Fsfe$",
        kind=BoundKind.STRICT_ORDER,
        analytic=lambda: 0.25 * (1 - 0.75),
        measure=measure_separation,
        tolerance=TolerancePolicy(slack=0.03, z=3.0),
        base_runs=320,
    ))
    registry.register(Claim(
        claim_id="E11-privacy", experiment="E11", paper_ref="Lemma 27",
        statement="Lemma 27: Π̃ is private; the x2' = 1 simulator's view "
                  "of the corrupted p2 has the real view's distribution "
                  "(statistical distance 0)",
        kind=BoundKind.EQUALITY,
        analytic=lambda: 0.0,
        measure=measure_view_distance,
        base_runs=320,
    ))

    # -- E12: Lemma 25, utility ≤ 1/p under the partial-fairness payoff ----
    def measure_gk_utility(ctx):
        estimate = estimate_utility(
            GordonKatzProtocol(make_and(), p=4),
            fixed("known-output", lambda: KnownOutputStopper(0, known_output=1)),
            PARTIAL_FAIRNESS_GAMMA,
            n_runs=ctx.runs(160),
            seed=ctx.seed_for("e12"),
            input_sampler=constant_inputs((1, 1)),
            runner=ctx.runner,
        )
        return Measurement.from_estimate(estimate)

    registry.register(Claim(
        claim_id="E12", experiment="E12", paper_ref="Lemma 25",
        statement="under ~γ = (0,0,1,0) the GK attacker's utility stays "
                  "below the 1/p budget (p=4)",
        kind=BoundKind.UPPER,
        analytic=lambda: 0.25,
        measure=measure_gk_utility,
        tolerance=TolerancePolicy(slack=0.02, z=3.0),
        base_runs=160,
    ))

    # -- E13: Definitions 1/2, the measured partial order ------------------
    def measure_order_gap(ctx):
        sup_single = _assess(
            SingleRoundProtocol(make_swap(16)), _lock_watch_space(2),
            gamma, ctx, 120, "e13-single",
        )
        sup_opt = _assess(
            Opt2SfeProtocol(make_swap(16)), _lock_watch_space(2),
            gamma, ctx, 120, "e13-opt",
        )
        return Measurement(
            value=sup_single.utility - sup_opt.utility,
            n_runs=ctx.runs(120),
            spread=2.0,
            detail="u(single-round) − u(ΠOpt2SFE)",
        )

    registry.register(Claim(
        claim_id="E13-order", experiment="E13", paper_ref="Definitions 1/2",
        statement="ΠOpt2SFE ≺γ single-round strictly: the optimal class "
                  "sits strictly below the γ10-conceding protocols",
        kind=BoundKind.STRICT_ORDER,
        analytic=lambda: u_single_round(gamma) - u_opt_2sfe(gamma),
        measure=measure_order_gap,
        tolerance=TolerancePolicy(slack=0.03, z=3.0, spread=2.0),
        base_runs=120,
    ))

    # -- E18: the cost-of-fairness frontier's ΠOpt2SFE point ---------------
    def measure_opt2sfe_pure_unfair(ctx):
        protocol = Opt2SfeProtocol(make_and())
        assessment = _assess(
            protocol, _lock_watch_space(2), PARTIAL_FAIRNESS_GAMMA, ctx,
            120, "e18",
        )
        return Measurement.from_estimate(assessment.best_attack)

    registry.register(Claim(
        claim_id="E18", experiment="E18", paper_ref="§1 / Theorem 3",
        statement="under the pure-unfairness payoff (0,0,1,0) ΠOpt2SFE "
                  "concedes exactly γ10/2 = 0.5 (its frontier point)",
        kind=BoundKind.EQUALITY,
        analytic=lambda: u_opt_2sfe(PARTIAL_FAIRNESS_GAMMA),
        measure=measure_opt2sfe_pure_unfair,
        tolerance=TolerancePolicy(slack=0.03, z=3.0),
        base_runs=120,
    ))

    # -- E20: backend equivalence (vectorized vs reference engine) ---------
    # Not a paper bound but the precondition for every other claim to be
    # backend-independent: on common seeds the chunk kernels must produce
    # *identical* event and corruption counts — total absolute divergence
    # exactly zero, no statistical tolerance.  The vectorized side runs
    # under the forced backend, so a silently regressed eligibility gate
    # turns the claim into an error instead of a vacuous pass.
    def _backend_divergence(builder, label, base):
        def measure(ctx):
            protocol, factory, sampler = builder()
            n_runs = ctx.runs(base)
            seed = ctx.seed_for(label)
            sides = {}
            for backend in ("reference", "vectorized"):
                sides[backend] = run_batch(
                    protocol, factory, n_runs, seed=seed,
                    input_sampler=sampler,
                    runner=SerialRunner(backend=backend),
                )
            ref, vec = sides["reference"], sides["vectorized"]
            diff = sum(
                abs(ref.counts.get(e, 0) - vec.counts.get(e, 0))
                for e in set(ref.counts) | set(vec.counts)
            ) + sum(
                abs(
                    ref.corruption_counts.get(s, 0)
                    - vec.corruption_counts.get(s, 0)
                )
                for s in set(ref.corruption_counts)
                | set(vec.corruption_counts)
            )
            return Measurement.exact(
                float(diff),
                detail=f"total count divergence over {n_runs} common seeds",
            )

        return measure

    exact_zero = TolerancePolicy(slack=0.0, z=0.0, spread=0.0)
    registry.register(Claim(
        claim_id="E20-gk", experiment="E20",
        paper_ref="determinism contract (docs/architecture.md)",
        statement="the vectorized Gordon–Katz kernel reproduces the "
                  "reference engine's event counts bit-for-bit (p=2, "
                  "known-output stopper)",
        kind=BoundKind.EQUALITY,
        analytic=lambda: 0.0,
        measure=_backend_divergence(
            lambda: (
                GordonKatzProtocol(make_and(), p=2),
                fixed(
                    "known-output",
                    lambda: KnownOutputStopper(0, known_output=1),
                ),
                constant_inputs((1, 1)),
            ),
            "e20-gk", 200,
        ),
        tolerance=exact_zero, base_runs=200,
    ))
    registry.register(Claim(
        claim_id="E20-single", experiment="E20",
        paper_ref="determinism contract (docs/architecture.md)",
        statement="the vectorized single-round kernel reproduces the "
                  "reference engine's event counts bit-for-bit "
                  "(lock-watching aborter)",
        kind=BoundKind.EQUALITY,
        analytic=lambda: 0.0,
        measure=_backend_divergence(
            lambda: (
                SingleRoundProtocol(make_and()),
                fixed(
                    "lock-watch[0]", lambda: LockWatchingAborter({0})
                ),
                constant_inputs((1, 1)),
            ),
            "e20-single", 200,
        ),
        tolerance=exact_zero, base_runs=200,
    ))
    registry.register(Claim(
        claim_id="E20-gradual", experiment="E20",
        paper_ref="determinism contract (docs/architecture.md)",
        statement="the vectorized gradual-release kernel reproduces the "
                  "reference engine's event counts bit-for-bit "
                  "(lock-watching aborter)",
        kind=BoundKind.EQUALITY,
        analytic=lambda: 0.0,
        measure=_backend_divergence(
            lambda: (
                GradualReleaseProtocol(make_and()),
                fixed(
                    "lock-watch[1]", lambda: LockWatchingAborter({1})
                ),
                constant_inputs((1, 1)),
            ),
            "e20-gradual", 200,
        ),
        tolerance=exact_zero, base_runs=200,
    ))

    # -- E21: symbolic cost models match measured transcripts exactly ------
    # The closed forms in analysis/symbolic_cost.py (rounds, point-to-
    # point messages, broadcasts, functionality responses as functions of
    # n / B / R) must agree with measure_cost's honest-execution counts
    # *exactly* — zero tolerance, like E20.  Honest transcripts are
    # deterministic in these quantities whatever the sampled inputs, so
    # any nonzero divergence means either a model or the engine drifted.
    def _cost_divergence(builder, label):
        def measure(ctx):
            from ..analysis.complexity import measure_cost
            from ..analysis.symbolic_cost import evaluate

            protocol = builder()
            n_runs = ctx.runs(32)
            predicted = evaluate(protocol)
            measured = measure_cost(
                protocol, n_runs=n_runs, seed=ctx.seed_for(label)
            )
            diff = (
                abs(measured.rounds - predicted.rounds)
                + abs(
                    measured.point_to_point_messages
                    - predicted.point_to_point_messages
                )
                + abs(measured.broadcasts - predicted.broadcasts)
                + abs(
                    measured.functionality_responses
                    - predicted.functionality_responses
                )
            )
            return Measurement.exact(
                float(diff),
                detail=(
                    f"Σ|measured − predicted| over rounds/p2p/broadcast/"
                    f"functionality, {n_runs} honest runs"
                ),
            )

        return measure

    cost_claims = [
        ("E21-opt2sfe", lambda: Opt2SfeProtocol(make_swap(16)),
         "§4 / Theorem 3",
         "ΠOpt2SFE's honest transcript is exactly 4 rounds, 2 share "
         "messages, and 2 ShareGen responses — the reconstruction-round-"
         "optimal shape its fairness optimality is priced against"),
        ("E21-single", lambda: SingleRoundProtocol(make_and()),
         "§3 (single-round exchange)",
         "ΠSingleRound's honest transcript is exactly 3 rounds, 2 "
         "messages, and 2 functionality responses"),
        ("E21-gradual", lambda: GradualReleaseProtocol(make_and()),
         "§1 (gradual release)",
         "gradual release with B release bits spends exactly B+3 rounds "
         "and 2B+2 messages — the round cost of bit-by-bit fairness"),
        ("E21-gk", lambda: GordonKatzProtocol(make_and(), p=2),
         "Theorems 23/24 (Gordon–Katz, 1/p-security)",
         "Gordon–Katz runs exactly R+2 rounds and 2R messages with "
         "R = 20·p·|Y| reveal rounds — the O(p·|Y|) price of "
         "1/p-unfairness"),
        ("E21-nsfe", lambda: OptNSfeProtocol(make_concat(5, 8)),
         "§5 (ΠOptNSFE)",
         "ΠOptNSFE's honest transcript is exactly 3 rounds, n ShareGen "
         "responses, and n broadcasts (n=5)"),
        ("E21-gmw", lambda: ThresholdGmwProtocol(make_concat(5, 8)),
         "§5 (threshold GMW baseline)",
         "threshold GMW's honest transcript is exactly 3 rounds, n "
         "dealer responses, and n broadcasts (n=5)"),
    ]
    for claim_id, builder, ref, statement in cost_claims:
        registry.register(Claim(
            claim_id=claim_id, experiment="E21", paper_ref=ref,
            statement=statement,
            kind=BoundKind.EQUALITY,
            analytic=lambda: 0.0,
            measure=_cost_divergence(builder, claim_id.lower()),
            tolerance=exact_zero, base_runs=32,
        ))

    return registry
