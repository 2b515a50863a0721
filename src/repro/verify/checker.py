"""The claim checker: registry in, structured verdicts out.

``verify_claims`` resolves a ``--claims`` spec against a registry, runs
each claim's Monte-Carlo side through one shared batch runner (so jobs,
retry policy, chunk cache, and fault injection all apply), judges the
result against the analytic side via the differential layer, and returns
a :class:`VerificationReport` whose JSON export regenerates the
EXPERIMENTS.md tables.

Replayability is the design center: each :class:`ClaimCheck` embeds the
claim's derived seed and the exact chunk spans its batches executed, and
the report embeds the master seed and budget.  Re-running the same spec
with the same seed reproduces every measurement bit-identically — the
deterministic portion of the artifact (everything outside the ``timing``
keys) is byte-equal across serial, pool, warm-cache, and fault-replay
executions.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from enum import Enum
from typing import List, Optional, Sequence, Tuple

from ..runtime import BatchRunner, RunStats, resolve_runner
from .claims import (
    Claim,
    ClaimConfigError,
    ClaimContext,
    ClaimRegistry,
    Measurement,
    default_registry,
    resolve_budget,
)
from .differential import (
    VERDICT_OK,
    VERDICT_VIOLATED,
    VERDICT_WITHIN_TOLERANCE,
    compare,
    confidence_interval,
)


class Verdict(Enum):
    OK = VERDICT_OK
    WITHIN_TOLERANCE = VERDICT_WITHIN_TOLERANCE
    VIOLATED = VERDICT_VIOLATED


@dataclass(frozen=True)
class ClaimCheck:
    """One claim's structured verdict.

    Carries everything a replay needs — the derived seed, the realised
    run count, and the ``(task, start, stop)`` chunk spans of every batch
    the measurement spawned — plus the statistical context (tolerance,
    confidence interval, signed margin) that justified the verdict.
    """

    claim: Claim
    analytic_value: float
    measurement: Measurement
    verdict: Verdict
    tolerance: float
    ci_low: float
    ci_high: float
    margin: float
    seed: tuple
    chunk_spans: Tuple[Tuple[int, int, int], ...] = ()
    run_stats: Tuple[RunStats, ...] = ()
    wall_clock_s: float = 0.0

    @property
    def passed(self) -> bool:
        return self.verdict is not Verdict.VIOLATED

    def __str__(self) -> str:
        return (
            f"[{self.verdict.value:>16}] {self.claim.claim_id:<16} "
            f"analytic={self.analytic_value:.4f} "
            f"measured={self.measurement.value:.4f} "
            f"ci=[{self.ci_low:.4f}, {self.ci_high:.4f}] "
            f"tol={self.tolerance:.4f} n={self.measurement.n_runs}"
        )


@dataclass
class VerificationReport:
    """The full outcome of one ``repro verify`` invocation."""

    checks: List[ClaimCheck]
    budget: str
    scale: float
    master_seed: object
    wall_clock_s: float = 0.0
    runner_backend: str = "serial"
    jobs: int = 1

    def counts(self) -> dict:
        summary = {v.value: 0 for v in Verdict}
        for check in self.checks:
            summary[check.verdict.value] += 1
        return summary

    @property
    def ok(self) -> bool:
        return all(check.passed for check in self.checks)

    @property
    def exit_code(self) -> int:
        """0 when every claim is ok/within-tolerance, 1 otherwise.

        Config errors never reach a report — ``verify_claims`` raises
        :class:`~.claims.ClaimConfigError` and the CLI maps that to 2.
        """
        return 0 if self.ok else 1

    def journal_summary(self) -> dict:
        """Aggregated run-ledger traffic across every claim's batches.

        All zeros when no journal was configured; the ``replayed``
        count is how much recomputation the ledger saved.
        """
        totals = {"replayed": 0, "appended": 0, "corrupt": 0}
        for check in self.checks:
            for stats in check.run_stats:
                totals["replayed"] += stats.journal_replayed_chunks
                totals["appended"] += stats.journal_appended_chunks
                totals["corrupt"] += stats.journal_corrupt_records
        return totals

    def __str__(self) -> str:
        lines = [str(check) for check in self.checks]
        summary = self.counts()
        lines.append(
            f"{len(self.checks)} claims: {summary[VERDICT_OK]} ok, "
            f"{summary[VERDICT_WITHIN_TOLERANCE]} within-tolerance, "
            f"{summary[VERDICT_VIOLATED]} violated "
            f"(budget={self.budget}, seed={self.master_seed!r}, "
            f"{self.wall_clock_s:.1f}s)"
        )
        ledger = self.journal_summary()
        if any(ledger.values()):
            lines.append(
                f"run ledger: {ledger['replayed']} spans replayed, "
                f"{ledger['appended']} appended, {ledger['corrupt']} corrupt"
            )
        return "\n".join(lines)


def check_claim(
    claim: Claim,
    ctx: ClaimContext,
) -> ClaimCheck:
    """Evaluate one claim: run the Monte-Carlo side, judge it against the
    analytic side, and package the verdict with its replay metadata."""
    runner = ctx.runner
    mark = runner.history_mark()
    t0 = time.perf_counter()
    measurement = claim.measure(ctx)
    wall = time.perf_counter() - t0
    analytic_value = float(claim.analytic())
    ci = confidence_interval(measurement)
    verdict, margin = compare(
        claim.kind, analytic_value, measurement, claim.tolerance, ci=ci
    )
    batches = tuple(runner.stats_since(mark))
    spans: Tuple[Tuple[int, int, int], ...] = tuple(
        span for stats in batches for span in stats.chunk_spans
    )
    return ClaimCheck(
        claim=claim,
        analytic_value=analytic_value,
        measurement=measurement,
        verdict=Verdict(verdict),
        tolerance=claim.tolerance.tolerance(measurement.n_runs),
        ci_low=ci[0],
        ci_high=ci[1],
        margin=margin,
        seed=ctx.seed_for(),
        chunk_spans=spans,
        run_stats=batches,
        wall_clock_s=wall,
    )


def verify_claims(
    claim_spec: str = "all",
    budget="medium",
    seed="verify",
    runner: Optional[BatchRunner] = None,
    registry: Optional[ClaimRegistry] = None,
) -> VerificationReport:
    """Verify a selection of claims and return the structured report.

    ``claim_spec`` is the CLI's ``--claims`` value (``all``, claim ids,
    or experiment ids, comma-separated); ``budget`` a name or an integer
    run target.  Raises :class:`~.claims.ClaimConfigError` on a bad spec
    — the CLI maps that to exit code 2.
    """
    registry = registry if registry is not None else default_registry()
    scale = resolve_budget(budget)
    selected = registry.select(claim_spec)
    runner = runner if runner is not None else resolve_runner(1)
    budget_name = budget if isinstance(budget, str) else str(int(budget))

    t0 = time.perf_counter()
    checks = []
    for claim in selected:
        ctx = ClaimContext(
            seed=(seed, "verify", claim.claim_id),
            scale=scale,
            budget=budget_name,
            runner=runner,
        )
        checks.append(check_claim(claim, ctx))
    return VerificationReport(
        checks=checks,
        budget=budget_name,
        scale=scale,
        master_seed=seed,
        wall_clock_s=time.perf_counter() - t0,
        runner_backend=runner.backend,
        jobs=getattr(runner, "jobs", 1),
    )
