"""Run-ledger replay — cold compute vs. resumed-from-journal.

Two passes over the same ΠOpt2SFE sweep:

1. **cold + journal** — fresh ledger: every chunk computes and is
   durably appended (the measured pass carries the full fsync cost of
   crash-safety, so the overhead of journaling is visible in the
   artifact, not hidden in setup).
2. **resumed** — the same batch restarted with ``resume=True``: every
   span replays from the ledger instead of recomputing.

Both must be bit-identical to an unjournaled serial run (asserted
unconditionally), every span of the resumed pass must come from the
ledger, and the wall-clock verdict — resume ≥ 2× cold — is asserted
unconditionally: replaying a JSON record beats re-executing a protocol
chunk on any host, so the verdict never flakes on runner size.  The
measured numbers land in ``BENCH_journal.json`` at the repo root.

Runnable standalone (``python benchmarks/bench_journal.py``) or under
pytest.
"""

import json
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from repro.adversaries import strategy_space_for_protocol
from repro.analysis import sweep_strategies
from repro.core import STANDARD_GAMMA
from repro.functions import make_swap
from repro.protocols import Opt2SfeProtocol
from repro.runtime import NO_FAULTS, RunJournal, SerialRunner, usable_cpus

RUNS = 200
SPEEDUP_FLOOR = 2.0

ARTIFACT = Path(__file__).resolve().parent.parent / "BENCH_journal.json"


def _sweep(journal):
    """One full sweep; returns (estimates, seconds, journal counters)."""
    protocol = Opt2SfeProtocol(make_swap(16))
    space = strategy_space_for_protocol(protocol)
    runner = SerialRunner(fault=NO_FAULTS, journal=journal, cache=None)
    t0 = time.perf_counter()
    estimates = sweep_strategies(
        protocol, space, STANDARD_GAMMA, RUNS, seed="bench-journal",
        runner=runner,
    )
    elapsed = time.perf_counter() - t0
    stats = runner.last_stats
    counters = {
        "executions": stats.executions,
        "n_chunks": stats.n_chunks,
        "journal_appended_chunks": stats.journal_appended_chunks,
        "journal_replayed_chunks": stats.journal_replayed_chunks,
        "journal_corrupt_records": stats.journal_corrupt_records,
        "journal_stale_records": stats.journal_stale_records,
    }
    return estimates, elapsed, counters


def run_benchmark():
    cpus = usable_cpus()

    # Reference pass: no ledger anywhere near the batch.
    plain_estimates, plain_s, _ = _sweep(journal=None)

    with tempfile.TemporaryDirectory() as tmp:
        cold_estimates, cold_s, cold_tot = _sweep(RunJournal(tmp))
        resumed_estimates, resumed_s, resumed_tot = _sweep(
            RunJournal(tmp, resume=True)
        )

    # The ledger may change where a partial comes from, never its value.
    assert cold_estimates == plain_estimates, "journaling changed results"
    assert resumed_estimates == plain_estimates, "resume changed results"
    assert cold_tot["journal_appended_chunks"] == cold_tot["n_chunks"]
    assert resumed_tot["journal_replayed_chunks"] == resumed_tot["n_chunks"]
    assert resumed_tot["journal_corrupt_records"] == 0
    assert resumed_tot["journal_stale_records"] == 0

    resume_speedup = cold_s / max(resumed_s, 1e-9)
    append_overhead = cold_s / max(plain_s, 1e-9)

    payload = {
        "workload": {
            "protocol": "opt-2sfe[swap16]",
            "runs": RUNS,
            "executions_per_pass": cold_tot["executions"],
            "chunks_per_pass": cold_tot["n_chunks"],
        },
        "cpus": cpus,
        "passes": {
            "plain": {"wall_s": round(plain_s, 4)},
            "cold_journaled": {
                "wall_s": round(cold_s, 4), **cold_tot
            },
            "resumed": {
                "wall_s": round(resumed_s, 4), **resumed_tot
            },
        },
        "speedups": {
            "resume_vs_cold": round(resume_speedup, 3),
            "append_overhead_vs_plain": round(append_overhead, 3),
        },
        "asserted": True,
        "bit_identical": True,
    }
    ARTIFACT.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")

    assert resume_speedup >= SPEEDUP_FLOOR, (
        f"journal resume only {resume_speedup:.2f}x vs cold compute "
        f"(floor {SPEEDUP_FLOOR}x)"
    )
    return payload


def test_journal_replay(capsys):
    payload = run_benchmark()
    with capsys.disabled():
        print("\n" + json.dumps(payload["speedups"], indent=2))


if __name__ == "__main__":
    print(json.dumps(run_benchmark(), indent=2, sort_keys=True))
