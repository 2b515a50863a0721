"""JSON export of measurement artefacts.

Serialises the analysis layer's result objects — utility estimates,
protocol assessments, balance profiles, fairness orders, attack games —
into plain dictionaries (and files) so downstream tooling can consume runs
without importing the library.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Union

from ..core.attack_game import AttackGame
from ..core.balance import BalanceProfile
from ..core.fairness import ProtocolAssessment
from ..core.payoff import PayoffVector
from ..core.utility import UtilityEstimate
from ..runtime import ChunkStats, RunStats
from ..verify.claims import Claim, Measurement
from ..verify.checker import ClaimCheck, VerificationReport
from .comparison import FairnessOrder
from .reconstruction import ReconstructionMeasurement


def gamma_to_dict(gamma: PayoffVector) -> dict:
    return {
        "gamma00": gamma.gamma00,
        "gamma01": gamma.gamma01,
        "gamma10": gamma.gamma10,
        "gamma11": gamma.gamma11,
    }


def estimate_to_dict(estimate: UtilityEstimate) -> dict:
    return {
        "protocol": estimate.protocol,
        "adversary": estimate.adversary,
        "mean": estimate.mean,
        "ci_low": estimate.ci_low,
        "ci_high": estimate.ci_high,
        "n_runs": estimate.n_runs,
        "cost_mean": estimate.cost_mean,
        "events": {
            e.name: p for e, p in estimate.event_distribution.items() if p
        },
    }


def assessment_to_dict(assessment: ProtocolAssessment) -> dict:
    return {
        "protocol": assessment.protocol_name,
        "gamma": gamma_to_dict(assessment.gamma),
        "best_attack": estimate_to_dict(assessment.best_attack),
        "utility": assessment.utility,
    }


def profile_to_dict(profile: BalanceProfile) -> dict:
    return {
        "protocol": profile.protocol_name,
        "n": profile.n,
        "gamma": gamma_to_dict(profile.gamma),
        "per_t": {
            str(t): estimate_to_dict(est) for t, est in profile.per_t.items()
        },
        "utility_sum": profile.utility_sum,
    }


def order_to_dict(order: FairnessOrder) -> dict:
    return {
        "tolerance": order.tolerance,
        "assessments": [assessment_to_dict(a) for a in order.assessments],
        "equivalence_classes": order.equivalence_classes(),
        "maximal_elements": order.maximal_elements(),
        "hasse_edges": [list(edge) for edge in order.hasse_edges()],
    }


def game_to_dict(game: AttackGame) -> dict:
    return {
        "gamma": gamma_to_dict(game.gamma),
        "matrix": {p: dict(row) for p, row in game.matrix.items()},
        "value": game.game_value(),
        "minimax_protocols": game.minimax_protocols(),
        "best_responses": {
            p: list(game.best_response(p)) for p in game.matrix
        },
    }


def reconstruction_to_dict(m: ReconstructionMeasurement) -> dict:
    return {
        "protocol": m.protocol_name,
        "honest_rounds": m.honest_rounds,
        "threshold": m.threshold,
        "unfair_probability": {
            str(r): p for r, p in m.unfair_probability.items()
        },
        "unfair_rounds": m.unfair_rounds,
        "reconstruction_rounds": m.reconstruction_rounds,
    }


def chunk_stats_to_dict(chunk: ChunkStats) -> dict:
    return {
        "task_index": chunk.task_index,
        "start": chunk.start,
        "stop": chunk.stop,
        "attempts": chunk.attempts,
        "outcome": chunk.outcome,
        "backend": chunk.backend,
        "wall_clock_s": chunk.wall_clock_s,
        "setup_s": chunk.setup_s,
        "execute_s": chunk.execute_s,
        "classify_s": chunk.classify_s,
        "cache": chunk.cache,
        "engine": chunk.engine,
    }


def run_stats_to_dict(stats: RunStats) -> dict:
    return {
        "backend": stats.backend,
        "jobs": stats.jobs,
        "n_tasks": stats.n_tasks,
        "n_chunks": stats.n_chunks,
        "requested": stats.requested,
        "executions": stats.executions,
        "wall_clock_s": stats.wall_clock_s,
        "executions_per_sec": stats.executions_per_sec,
        "stopped_early": stats.stopped_early,
        "degraded": stats.degraded,
        "execution_backend": stats.execution_backend,
        **stats.metrics,
        "chunks": [chunk_stats_to_dict(c) for c in stats.chunks],
    }


def claim_to_dict(claim: Claim) -> dict:
    return {
        "claim_id": claim.claim_id,
        "experiment": claim.experiment,
        "paper_ref": claim.paper_ref,
        "statement": claim.statement,
        "kind": claim.kind.value,
        "base_runs": claim.base_runs,
        "tolerance_policy": {
            "slack": claim.tolerance.slack,
            "z": claim.tolerance.z,
            "spread": claim.tolerance.spread,
        },
    }


def measurement_to_dict(m: Measurement) -> dict:
    return {
        "value": m.value,
        "n_runs": m.n_runs,
        "successes": m.successes,
        "spread": m.spread,
        "ci_low": m.ci_low,
        "ci_high": m.ci_high,
        "detail": m.detail,
    }


def claim_check_to_dict(check: ClaimCheck) -> dict:
    """One claim's verdict with its replay metadata.

    Everything outside the ``timing`` key is a pure function of
    ``(registry, master seed, budget)`` — byte-stable across backends,
    warm caches, and fault replay.  Wall clocks and per-batch RunStats
    live under ``timing`` so replay comparisons can strip them.
    """
    return {
        "claim": claim_to_dict(check.claim),
        "analytic": check.analytic_value,
        "measurement": measurement_to_dict(check.measurement),
        "verdict": check.verdict.value,
        "tolerance": check.tolerance,
        "ci_low": check.ci_low,
        "ci_high": check.ci_high,
        "margin": check.margin,
        "seed": repr(check.seed),
        "chunk_spans": [list(span) for span in check.chunk_spans],
        "timing": {
            "wall_clock_s": check.wall_clock_s,
            "run_stats": [run_stats_to_dict(s) for s in check.run_stats],
        },
    }


def report_to_dict(report: VerificationReport) -> dict:
    return {
        "budget": report.budget,
        "scale": report.scale,
        "master_seed": repr(report.master_seed),
        "summary": report.counts(),
        "exit_code": report.exit_code,
        "checks": [claim_check_to_dict(c) for c in report.checks],
        "timing": {
            "wall_clock_s": report.wall_clock_s,
            "backend": report.runner_backend,
            "jobs": report.jobs,
            "journal": report.journal_summary(),
        },
    }


def deterministic_payload(payload):
    """Strip every ``timing`` and ``chunk_spans`` subtree from an artefact.

    What remains of a :func:`report_to_dict` export is the
    backend-invariant portion: re-running ``repro verify`` with the
    embedded seeds must reproduce it byte-for-byte on any backend (the
    bit-identity the verify tests and the EXPERIMENTS.md tables rely
    on).  ``chunk_spans`` are replay metadata but describe the *chunk
    layout* the scheduler happened to pick — serial runners coalesce a
    task into one span where pools split it — so they are deterministic
    per backend, not across backends.
    """
    if isinstance(payload, dict):
        return {
            k: deterministic_payload(v)
            for k, v in payload.items()
            if k not in ("timing", "chunk_spans")
        }
    if isinstance(payload, list):
        return [deterministic_payload(v) for v in payload]
    return payload


_EXPORTERS = {
    VerificationReport: report_to_dict,
    ClaimCheck: claim_check_to_dict,
    Claim: claim_to_dict,
    Measurement: measurement_to_dict,
    UtilityEstimate: estimate_to_dict,
    ProtocolAssessment: assessment_to_dict,
    BalanceProfile: profile_to_dict,
    FairnessOrder: order_to_dict,
    AttackGame: game_to_dict,
    ReconstructionMeasurement: reconstruction_to_dict,
    PayoffVector: gamma_to_dict,
    RunStats: run_stats_to_dict,
    ChunkStats: chunk_stats_to_dict,
}


def to_dict(artefact) -> dict:
    """Dispatch to the right exporter for any supported artefact."""
    for cls, exporter in _EXPORTERS.items():
        if isinstance(artefact, cls):
            return exporter(artefact)
    raise TypeError(f"no JSON exporter for {type(artefact).__name__}")


def save_json(artefact, path: Union[str, Path]) -> Path:
    """Serialise one artefact (or a list of them) to a JSON file."""
    path = Path(path)
    if isinstance(artefact, (list, tuple)):
        payload = [to_dict(a) for a in artefact]
    else:
        payload = to_dict(artefact)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True))
    return path
