#!/usr/bin/env python3
"""Fairness tournament: place the whole two-party protocol zoo in the
⪯γ partial order, across several payoff vectors.

This is Definition 1/2 used as a *tool*: given arbitrary protocols for the
same task, measure each one's best attacker and rank them.  The ideal
dummy protocol ΦFsfe is included as the unreachable reference point.

The sweep doubles as a demo of the parallel Monte-Carlo runtime: pass
``--jobs N`` (or set ``REPRO_JOBS``) to fan each assessment's
strategies × chunks out over worker processes — the rankings are
bit-identical to the serial run, and the measured speedup is printed.
Pass ``--fault-rate 0.3`` to watch the fault-tolerant runtime at work:
chunks fail deterministically, get retried (and degraded to in-process
replay when ``--max-retries`` is exhausted), and the rankings still come
out bit-identical — the recovery counters are printed at the end.

Run:  python examples/fairness_tournament.py [--runs 300] [--jobs 4]
                                             [--fault-rate 0.3]
"""

import argparse
import time

from repro.adversaries import strategy_space_for_protocol
from repro.analysis import assess_protocol, build_order, format_table
from repro.core import PayoffVector, STANDARD_GAMMA, monte_carlo_tolerance
from repro.functions import make_contract_exchange, make_swap
from repro.protocols import (
    CoinOrderedContractSigning,
    DummyProtocol,
    NaiveContractSigning,
    Opt2SfeProtocol,
    SingleRoundProtocol,
)
from repro.runtime import (
    FaultSpec,
    RetryPolicy,
    SerialRunner,
    resolve_jobs,
    resolve_runner,
)
from repro.runtime.config import knob

GAMMAS = {
    "standard (γ10=1, γ11=0.5)": STANDARD_GAMMA,
    "pure-unfairness (γ10=1, rest 0)": PayoffVector(0.0, 0.0, 1.0, 0.0),
    "grudging (γ00=0.25, γ10=2, γ11=0.75)": PayoffVector(0.25, 0.0, 2.0, 0.75),
}


def build_zoo():
    swap = make_swap(16)
    contract = make_contract_exchange(16)
    return [
        DummyProtocol(swap),
        Opt2SfeProtocol(swap),
        CoinOrderedContractSigning(contract),
        NaiveContractSigning(contract),
        SingleRoundProtocol(swap),
    ]


def run_tournament(runs: int, runner) -> int:
    """Print the tournament; return the number of executions performed."""
    executions = 0
    for label, gamma in GAMMAS.items():
        print(f"\n=== payoff vector: {label} ===\n")
        assessments = []
        rows = []
        for protocol in build_zoo():
            space = strategy_space_for_protocol(protocol)
            assessment = assess_protocol(
                protocol,
                space,
                gamma,
                runs,
                seed=("tournament", protocol.name),
                runner=runner,
            )
            executions += runner.last_stats.executions
            assessments.append(assessment)
            rows.append(
                [
                    protocol.name,
                    f"{assessment.utility:.4f}",
                    assessment.best_attack.adversary,
                    len(space),
                ]
            )
        rows.sort(key=lambda r: float(r[1]))
        print(
            format_table(
                ["protocol", "sup utility", "best strategy", "|strategy space|"],
                rows,
            )
        )
        order = build_order(
            assessments, tolerance=monte_carlo_tolerance(runs, spread=gamma.gamma10)
        )
        print()
        print(order.render())
    return executions


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=300, help="Monte-Carlo runs")
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="worker processes (default: $REPRO_JOBS or 1; 0 = all CPUs)",
    )
    parser.add_argument(
        "--fault-rate",
        type=float,
        default=0.0,
        help="inject deterministic chunk failures at this rate to "
        "demonstrate the recovery path (results stay bit-identical)",
    )
    parser.add_argument(
        "--max-retries",
        type=int,
        default=None,
        help="in-pool retries per failed chunk before in-process replay "
        "(default: $REPRO_MAX_RETRIES or 2)",
    )
    args = parser.parse_args()

    jobs = resolve_jobs(args.jobs)
    retry = RetryPolicy(max_retries=knob("REPRO_MAX_RETRIES", args.max_retries))
    fault = (
        FaultSpec(rate=args.fault_rate, seed="tournament-faults")
        if args.fault_rate > 0
        else None
    )
    runner = resolve_runner(args.jobs, retry=retry, fault=fault)
    t0 = time.perf_counter()
    executions = run_tournament(args.runs, runner)
    elapsed = time.perf_counter() - t0
    print(
        f"\n[runtime] {executions} executions in {elapsed:.1f}s "
        f"({executions / elapsed:.0f}/s, jobs={jobs})"
    )

    failed = sum(s.failed_attempts for s in runner.stats_history)
    if failed:
        retries = sum(s.retries for s in runner.stats_history)
        replays = sum(s.serial_replays for s in runner.stats_history)
        timeouts = sum(s.timeouts for s in runner.stats_history)
        print(
            f"[runtime] fault tolerance: {failed} failed chunk attempts "
            f"absorbed ({retries} in-pool retries, {timeouts} timeouts, "
            f"{replays} in-process replays) — results unchanged"
        )

    if jobs > 1:
        # Measure the speedup on one representative assessment.
        protocol = Opt2SfeProtocol(make_swap(16))
        space = strategy_space_for_protocol(protocol)
        serial = SerialRunner()
        t0 = time.perf_counter()
        assess_protocol(
            protocol, space, STANDARD_GAMMA, args.runs, seed="speedup", runner=serial
        )
        serial_s = time.perf_counter() - t0
        t0 = time.perf_counter()
        assess_protocol(
            protocol, space, STANDARD_GAMMA, args.runs, seed="speedup", runner=runner
        )
        parallel_s = time.perf_counter() - t0
        print(
            f"[runtime] {protocol.name} assessment: serial {serial_s:.2f}s vs "
            f"jobs={jobs} {parallel_s:.2f}s → {serial_s / parallel_s:.2f}x speedup"
        )


if __name__ == "__main__":
    main()
