"""Runtime scaling — serial vs. process-pool Monte-Carlo throughput,
plus the cost of fault tolerance.

A ``sweep_strategies`` workload of ≥ 2400 total executions (the full
ΠOpt2SFE standard strategy space) is run once through ``SerialRunner``
and once through ``ProcessPoolRunner(jobs=4)``.  Both backends must
produce bit-identical estimates; the pedantic benchmark rounds record the
parallel run, and executions/sec for both backends go into the benchmark
JSON trajectory via ``extra_info``.  The ≥ 2× speedup assertion is gated
on the host actually having ≥ 4 CPUs — on smaller machines the numbers
are recorded without a verdict.

A third pass re-runs the pool sweep with deterministic fault injection
(``FaultSpec``) so the trajectory also tracks the recovery machinery:
failed attempts, in-pool retries, serial replays, and the throughput
penalty of absorbing them — with the hard assertion that the recovered
results are bit-identical to the failure-free ones.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from common import emit

from repro.adversaries import strategy_space_for_protocol
from repro.analysis import sweep_strategies
from repro.core import STANDARD_GAMMA
from repro.functions import make_swap
from repro.protocols import Opt2SfeProtocol
from repro.runtime import (
    FaultSpec,
    ProcessPoolRunner,
    RetryPolicy,
    SerialRunner,
    usable_cpus,
)

RUNS = 150  # × 16 strategies = 2400 executions per backend
JOBS = 4
FAULT_RATE = 0.1


def _workload():
    protocol = Opt2SfeProtocol(make_swap(16))
    space = strategy_space_for_protocol(protocol)
    return protocol, space


def test_runtime_scaling(benchmark, capsys):
    protocol, space = _workload()
    total = RUNS * len(space)
    assert total >= 2400

    serial = SerialRunner()
    serial_estimates = sweep_strategies(
        protocol, space, STANDARD_GAMMA, RUNS, seed="scaling", runner=serial
    )
    serial_stats = serial.last_stats

    pool = ProcessPoolRunner(JOBS, min_parallel_runs=0)

    def parallel_sweep():
        return sweep_strategies(
            protocol, space, STANDARD_GAMMA, RUNS, seed="scaling", runner=pool
        )

    parallel_estimates = benchmark.pedantic(parallel_sweep, rounds=1, iterations=1)
    pool_stats = pool.last_stats

    # Determinism first: the speedup must not change a single count.
    assert parallel_estimates == serial_estimates

    # Fault-injected pass: same sweep, deterministic chunk failures.  The
    # recovery ladder (in-pool retries, then in-process replay) must hand
    # back bit-identical estimates; the throughput penalty is recorded.
    faulty_pool = ProcessPoolRunner(
        JOBS,
        min_parallel_runs=0,
        retry=RetryPolicy(max_retries=2, backoff_s=0.01),
        fault=FaultSpec(rate=FAULT_RATE, seed="bench-faults"),
    )
    faulty_estimates = sweep_strategies(
        protocol, space, STANDARD_GAMMA, RUNS, seed="scaling", runner=faulty_pool
    )
    fault_stats = faulty_pool.last_stats
    assert faulty_estimates == serial_estimates

    speedup = pool_stats.executions_per_sec / serial_stats.executions_per_sec
    cpus = usable_cpus()
    benchmark.extra_info.update(
        {
            "total_executions": total,
            "serial_eps": round(serial_stats.executions_per_sec, 1),
            "parallel_eps": round(pool_stats.executions_per_sec, 1),
            "jobs": JOBS,
            "cpus": cpus,
            "speedup": round(speedup, 3),
            "fault_rate": FAULT_RATE,
            "fault_eps": round(fault_stats.executions_per_sec, 1),
            "fault_failed_attempts": fault_stats.failed_attempts,
            "fault_retries": fault_stats.retries,
            "fault_serial_replays": fault_stats.serial_replays,
            "fault_overhead": round(
                pool_stats.executions_per_sec
                / max(fault_stats.executions_per_sec, 1e-9),
                3,
            ),
        }
    )

    enough_cpus = cpus >= JOBS
    verdict = (
        ("ok" if speedup >= 2.0 else "FAIL")
        if enough_cpus
        else f"recorded ({cpus} cpu)"
    )
    emit(
        capsys,
        "Runtime scaling",
        f"ProcessPoolRunner(jobs={JOBS}) ≥ 2× serial throughput on a "
        f"{total}-execution sweep (gated on ≥ {JOBS} CPUs)",
        ["backend", "executions", "wall s", "exec/s", "verdict"],
        [
            [
                serial_stats.backend,
                serial_stats.executions,
                f"{serial_stats.wall_clock_s:.2f}",
                f"{serial_stats.executions_per_sec:.0f}",
                "",
            ],
            [
                pool_stats.backend,
                pool_stats.executions,
                f"{pool_stats.wall_clock_s:.2f}",
                f"{pool_stats.executions_per_sec:.0f}",
                f"{speedup:.2f}x {verdict}",
            ],
            [
                f"{fault_stats.backend}+faults",
                fault_stats.executions,
                f"{fault_stats.wall_clock_s:.2f}",
                f"{fault_stats.executions_per_sec:.0f}",
                f"{fault_stats.failed_attempts} failures absorbed "
                f"({fault_stats.retries} retries, "
                f"{fault_stats.serial_replays} replays)",
            ],
        ],
    )
    if enough_cpus:
        assert speedup >= 2.0, f"speedup {speedup:.2f}x below 2x on {cpus} CPUs"
