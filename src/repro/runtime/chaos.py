"""Deterministic chaos campaigns: seeded fault-composition trials.

The runtime's failure semantics are tested piecewise (retry ladder,
cache integrity, journal resume, worker death) — this module tests them
*composed*.  A campaign is a seeded, fully reproducible plan of trials;
each trial picks an execution venue (serial / pool) and a subset of
fault dimensions, runs a fixed reference workload under those faults,
and asserts the invariants the runtime promises no matter what was
injected:

* **payload bit-identity** — the merged task values equal a fault-free
  serial baseline, byte for byte (compared through the canonical wire
  encoding, the same representation ``deterministic_payload`` rests on);
* **no leaked resources** — no pool worker processes and no extra
  threads survive the trial;
* **counter consistency** — the failure counters in :class:`RunStats`
  match the injected schedule (exactly on the serial venue, where the
  fault pattern is a pure function the harness can evaluate itself; as
  lower bounds on venues with nondeterministic scheduling);
* **ledger accounting** — reruns replay journaled spans, corrupted
  journal entries and cache entries surface in the corruption counters.

Every random choice (venue, dimension subset, fault rate, interrupt
point, which byte to corrupt) derives from ``Rng((seed, label, index))``,
so re-running a campaign with the same seed replays the identical trial
sequence — a failing trial is a test case, not an anecdote.

Dimensions
----------
``chunk-faults``        deterministic injected chunk failures (``raise``)
``engine-faults``       unreliable channels / party crashes inside runs
``worker-kill``         injected faults become process kills (``exit``)
``interrupt-resume``    KeyboardInterrupt mid-batch, then a rerun
``cache-corruption``    a warm chunk-cache entry gets a byte flipped
``journal-corruption``  a journal entry gets a byte flipped before a rerun

``interrupt-resume`` is mutually exclusive with the two corruption
dimensions: those pre-populate the very store whose replay would swallow
the injected interrupt (a journaled or cached span is never re-executed,
so the boom chunk would never run).

Process-level trials (:func:`run_process_trials`) go one step further
and exercise the *coordinator* process itself: a ``repro verify`` child
is SIGKILLed (and separately SIGINTed) mid-batch, one journal entry is
corrupted, and the relaunched run with the same ``--journal`` must
produce a byte-identical deterministic payload while counting the
replayed and quarantined entries.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..crypto.prf import Rng
from .cache import ChunkCache
from .codec import encode_partial
from .journal import RunJournal
from .retry import NO_FAULTS, FaultSpec, RetryPolicy
from .runner import ProcessPoolRunner, SerialRunner
from .tasks import ExecutionTask, plan_chunks

#: Execution venues a trial can target.
VENUES = ("serial", "pool")

#: Fault dimensions a trial can compose (canonical order).
DIMENSIONS = (
    "chunk-faults",
    "engine-faults",
    "worker-kill",
    "interrupt-resume",
    "cache-corruption",
    "journal-corruption",
)

#: Dimensions that pre-populate the journal/cache the main phase reads —
#: incompatible with ``interrupt-resume`` (see module docstring).
_PREPOPULATING = ("cache-corruption", "journal-corruption")

#: Fast retry ladder so injected faults do not dominate wall clock.
_FAST_RETRY = RetryPolicy(
    max_retries=2, backoff_s=0.01, backoff_multiplier=1.0, chunk_timeout_s=None
)

#: Environment knobs scrubbed from trial subprocesses: ambient config
#: must not change what a seeded campaign injects.
_SCRUBBED_ENV = (
    "REPRO_FAULT_RATE",
    "REPRO_FAULT_KIND",
    "REPRO_FAULT_SEED",
    "REPRO_CACHE_DIR",
    "REPRO_JOURNAL_DIR",
    "REPRO_JOBS",
    "REPRO_MAX_RETRIES",
    "REPRO_CHUNK_TIMEOUT",
)


# ---------------------------------------------------------------------------
# campaign planning
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TrialSpec:
    """One planned trial: a venue, a dimension subset, and seeded knobs."""

    index: int
    venue: str
    dims: Tuple[str, ...]
    fault_rate: float

    @property
    def fault_kind(self) -> Optional[str]:
        if "worker-kill" in self.dims:
            return "exit"
        if "chunk-faults" in self.dims:
            return "raise"
        return None

    def fault_spec(self) -> Optional[FaultSpec]:
        """Chunk-level fault spec implied by the dimensions (or ``None``)."""
        kind = self.fault_kind
        if kind is None:
            return None
        return FaultSpec(
            rate=self.fault_rate,
            kind=kind,
            seed=("chaos-fault", self.index),
            max_consecutive=2,
        )

    def describe(self) -> str:
        return f"{self.venue}:{'+'.join(self.dims)}"

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "venue": self.venue,
            "dims": list(self.dims),
            "fault_rate": self.fault_rate,
            "fault_kind": self.fault_kind,
        }


def _canonical_dims(dims: Iterable[str]) -> Tuple[str, ...]:
    dims = tuple(dims)
    unknown = sorted(set(dims) - set(DIMENSIONS))
    if unknown:
        raise ValueError(
            f"unknown chaos dimension(s) {', '.join(unknown)}; "
            f"available: {', '.join(DIMENSIONS)}"
        )
    return tuple(d for d in DIMENSIONS if d in set(dims))


def _reconcile(dims: Tuple[str, ...]) -> Tuple[str, ...]:
    """Drop dimensions that cannot compose (planner-side, silent)."""
    if "interrupt-resume" in dims:
        dims = tuple(d for d in dims if d not in _PREPOPULATING)
    return dims


def plan_campaign(
    seed,
    n_trials: int,
    venues: Sequence[str] = ("serial", "pool"),
    dims: Sequence[str] = DIMENSIONS,
) -> List[TrialSpec]:
    """Deterministic trial plan: same ``(seed, args)`` → same specs."""
    venues = tuple(venues)
    for venue in venues:
        if venue not in VENUES:
            raise ValueError(
                f"unknown venue {venue!r}; available: {', '.join(VENUES)}"
            )
    if not venues:
        raise ValueError("need at least one venue")
    pool = _canonical_dims(dims)
    if not pool:
        raise ValueError("need at least one chaos dimension")
    specs = []
    for index in range(n_trials):
        rng = Rng((seed, "chaos-trial", index))
        venue = venues[rng.randrange(len(venues))]
        k = 1 + rng.randrange(min(3, len(pool)))
        drawn = set(rng.sample(pool, k))
        chosen = _reconcile(tuple(d for d in DIMENSIONS if d in drawn))
        rate = round(0.25 + 0.35 * rng.random(), 3)
        specs.append(
            TrialSpec(index=index, venue=venue, dims=chosen, fault_rate=rate)
        )
    return specs


def parse_trial_spec(text: str, index: int, seed) -> TrialSpec:
    """``VENUE:DIM+DIM`` → a :class:`TrialSpec` (for explicit CI coverage).

    Unlike the planner, an explicit spec never silently drops a
    dimension: an impossible combination is a usage error.
    """
    venue, sep, dim_text = text.partition(":")
    venue = venue.strip()
    if not sep or venue not in VENUES:
        raise ValueError(
            f"trial spec must be VENUE:DIM+DIM with VENUE one of "
            f"{', '.join(VENUES)}; got {text!r}"
        )
    dims = _canonical_dims(
        d.strip() for d in dim_text.split("+") if d.strip()
    )
    if not dims:
        raise ValueError(f"trial spec {text!r} names no dimensions")
    if "interrupt-resume" in dims and any(d in dims for d in _PREPOPULATING):
        raise ValueError(
            f"trial spec {text!r}: interrupt-resume cannot compose with "
            f"{' or '.join(_PREPOPULATING)} (a pre-populated ledger would "
            "replay the span the interrupt is injected into)"
        )
    rng = Rng((seed, "chaos-explicit", index, text))
    rate = round(0.25 + 0.35 * rng.random(), 3)
    return TrialSpec(index=index, venue=venue, dims=dims, fault_rate=rate)


# ---------------------------------------------------------------------------
# reference workload
# ---------------------------------------------------------------------------


def _workload():
    # Lazy: the runtime layer must not import protocols at module import.
    from ..adversaries import strategy_space_for_protocol
    from ..functions import make_swap
    from ..protocols import Opt2SfeProtocol

    protocol = Opt2SfeProtocol(make_swap(8))
    factories = strategy_space_for_protocol(protocol)[:2]
    return protocol, factories


def _engine_fault_bundle():
    from ..engine.faults import ChannelFaultModel, EngineFaults, PartyFaultModel

    return EngineFaults(
        channel=ChannelFaultModel(
            loss=0.08,
            delay=0.05,
            duplicate=0.04,
            broadcast_loss=0.04,
            seed="chaos-engine",
        ),
        party=PartyFaultModel(crash_rate=0.04, seed="chaos-engine"),
    )


def payload_fingerprint(values) -> str:
    """Canonical digest of a batch's merged values.

    Built on the partial codec (the one representation every chunk store
    already round-trips), so "bit-identical" means the same thing here as
    it does for journal records and cache entries.
    """
    blob = json.dumps(
        [encode_partial(v) for v in values],
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


class _InterruptingTask:
    """Delegating task wrapper that raises ``KeyboardInterrupt`` on one span.

    Shares the inner task's ``cache_material`` (and thus journal key), so
    the spans it *does* complete are resumable by the unwrapped task.
    """

    def __init__(self, inner, boom_start: int):
        self._inner = inner
        self._boom_start = boom_start

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def run_chunk(self, start: int, stop: int):
        if start == self._boom_start:
            raise KeyboardInterrupt(f"chaos: injected interrupt at run {start}")
        return self._inner.run_chunk(start, stop)


def _flip_byte(path: Path) -> None:
    """Corrupt one byte in the middle of a file (XOR — always a change)."""
    data = bytearray(path.read_bytes())
    if not data:
        data = bytearray(b"\x00")
    pos = len(data) // 2
    data[pos] ^= 0xFF
    path.write_bytes(bytes(data))


def _subprocess_env() -> dict:
    """Child environment: this checkout importable, ambient knobs scrubbed."""
    import repro

    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    existing = env.get("PYTHONPATH", "")
    env["PYTHONPATH"] = src + (os.pathsep + existing if existing else "")
    for key in _SCRUBBED_ENV:
        env.pop(key, None)
    return env


def _leak_failure(threads_before: int, deadline_s: float = 10.0) -> Optional[str]:
    """``None`` when the process is back to its pre-trial footprint."""
    import multiprocessing

    t_end = time.monotonic() + deadline_s
    while True:
        children = multiprocessing.active_children()
        threads = threading.active_count()
        if not children and threads <= threads_before:
            return None
        if time.monotonic() >= t_end:
            return (
                f"leaked resources after trial: {len(children)} worker "
                f"process(es), {max(0, threads - threads_before)} extra "
                "thread(s)"
            )
        time.sleep(0.05)


# ---------------------------------------------------------------------------
# trial execution
# ---------------------------------------------------------------------------


@dataclass
class TrialResult:
    """Outcome of one trial: pass/fail plus the evidence."""

    name: str
    ok: bool
    failures: List[str]
    observed: Dict[str, object]
    spec: Optional[dict] = None

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "ok": self.ok,
            "failures": list(self.failures),
            "observed": dict(self.observed),
            "spec": self.spec,
        }


@dataclass
class CampaignReport:
    """All trial results of one campaign, JSON-exportable."""

    seed_repr: str
    results: List[TrialResult] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.results)

    @property
    def exit_code(self) -> int:
        return 0 if self.ok else 1

    def to_dict(self) -> dict:
        failed = [r.name for r in self.results if not r.ok]
        return {
            "schema": 1,
            "seed": self.seed_repr,
            "ok": self.ok,
            "n_trials": len(self.results),
            "failed_trials": failed,
            "trials": [r.to_dict() for r in self.results],
        }

    def __str__(self) -> str:
        lines = []
        for result in self.results:
            verdict = "ok" if result.ok else "FAIL"
            lines.append(f"{result.name:<55s} {verdict}")
            for failure in result.failures:
                lines.append(f"    - {failure}")
        good = sum(1 for r in self.results if r.ok)
        lines.append(
            f"chaos campaign (seed {self.seed_repr}): "
            f"{good}/{len(self.results)} trials ok"
        )
        return "\n".join(lines)


class _Campaign:
    """Shared state of one campaign run: workload, baselines, directories."""

    def __init__(self, seed, workdir: Path, trial_runs: int, chunk_size: int):
        self.seed = seed
        self.workdir = Path(workdir)
        self.trial_runs = trial_runs
        self.chunk_size = chunk_size
        self._baselines: Dict[bool, str] = {}

    def tasks(self, engine_faults: bool) -> List[ExecutionTask]:
        """Fresh task list (tasks hold per-run state like setup memos)."""
        protocol, factories = _workload()
        faults = _engine_fault_bundle() if engine_faults else None
        return [
            ExecutionTask(
                protocol,
                factory,
                self.trial_runs,
                seed=("chaos-workload", index),
                faults=faults,
            )
            for index, factory in enumerate(factories)
        ]

    def baseline(self, engine_faults: bool) -> str:
        """Fault-free serial fingerprint (engine faults are part of the
        task content, so they get their own baseline)."""
        key = bool(engine_faults)
        if key not in self._baselines:
            runner = SerialRunner(chunk_size=self.chunk_size,
                                  retry=_FAST_RETRY, fault=NO_FAULTS)
            self._baselines[key] = payload_fingerprint(
                runner.run(self.tasks(engine_faults))
            )
        return self._baselines[key]

    def venue_runner(self, spec: TrialSpec, fault, journal, cache):
        """A runner on the trial's venue with exactly the given stores."""
        kwargs = dict(
            chunk_size=self.chunk_size,
            retry=_FAST_RETRY,
            fault=fault if fault is not None else NO_FAULTS,
            journal=journal,
            cache=cache,
        )
        if spec.venue == "serial":
            return SerialRunner(**kwargs)
        return ProcessPoolRunner(2, min_parallel_runs=0, **kwargs)


def _serial_prepass(campaign: _Campaign, engine: bool, journal=None, cache=None):
    """Quiet serial run used to pre-populate a journal or cache."""
    runner = SerialRunner(
        chunk_size=campaign.chunk_size, retry=_FAST_RETRY, fault=NO_FAULTS,
        journal=journal, cache=cache,
    )
    runner.run(campaign.tasks(engine))
    return runner.last_stats


def run_trial(spec: TrialSpec, campaign: _Campaign) -> TrialResult:
    """Execute one trial and check every invariant it implies."""
    failures: List[str] = []
    observed: Dict[str, object] = {}
    rng = Rng((campaign.seed, "chaos-run", spec.index))
    trial_dir = campaign.workdir / f"trial-{spec.index:03d}"
    journal_dir = trial_dir / "journal"
    cache_dir = trial_dir / "cache"
    engine = "engine-faults" in spec.dims
    use_cache = "cache-corruption" in spec.dims
    fault = spec.fault_spec()
    baseline = campaign.baseline(engine)
    threads_before = threading.active_count()
    phase_stats = []
    # Set when a pre-phase left journal entries the main phase must replay.
    journaled = False

    # --- pre-phases: populate and damage the stores under test ------------
    if use_cache:
        _serial_prepass(campaign, engine, cache=ChunkCache(cache_dir))
        entries = sorted(cache_dir.glob("*/*.json"))
        if not entries:
            failures.append("cache warm-up stored no entries")
        else:
            _flip_byte(entries[rng.randrange(len(entries))])
            observed["cache_entries"] = len(entries)

    if "journal-corruption" in spec.dims:
        _serial_prepass(campaign, engine, journal=RunJournal(journal_dir))
        records = sorted(journal_dir.glob("*/*.json"))
        if not records:
            failures.append("journal seeding run stored no entries")
        else:
            _flip_byte(records[rng.randrange(len(records))])
            observed["journal_records"] = len(records)
        journaled = True

    if "interrupt-resume" in spec.dims:
        spans = plan_chunks(campaign.trial_runs, campaign.chunk_size)
        boom_start = spans[1 + rng.randrange(len(spans) - 1)][0]
        observed["boom_start"] = boom_start
        tasks = campaign.tasks(engine)
        tasks[0] = _InterruptingTask(tasks[0], boom_start)
        runner = campaign.venue_runner(spec, fault, RunJournal(journal_dir), None)
        try:
            runner.run(tasks)
            failures.append("interrupt phase ran to completion without raising")
        except KeyboardInterrupt:
            stats = runner.last_stats
            if stats is None or stats.cancelled_chunks < 1:
                failures.append("interrupted batch recorded no cancelled chunks")
            if stats is not None:
                phase_stats.append(stats)
                observed["interrupt_cancelled"] = stats.cancelled_chunks
        journaled = True

    # --- main phase --------------------------------------------------------
    values = None
    stats = None
    cache = ChunkCache(cache_dir) if use_cache else None
    runner = campaign.venue_runner(spec, fault, RunJournal(journal_dir), cache)
    try:
        values = runner.run(campaign.tasks(engine))
    except Exception as exc:
        failures.append(
            f"main phase raised {type(exc).__name__}: {exc} "
            "(faults must degrade, never fail a batch)"
        )
    stats = runner.last_stats
    if stats is not None:
        phase_stats.append(stats)

    # --- invariants ---------------------------------------------------------
    if values is not None:
        fingerprint = payload_fingerprint(values)
        observed["payload_sha256"] = fingerprint
        if fingerprint != baseline:
            failures.append(
                "merged payload diverged from the fault-free serial baseline"
            )
    if stats is not None and values is not None:
        if stats.executions != stats.requested:
            failures.append(
                f"covered {stats.executions} of {stats.requested} "
                "requested runs"
            )
        executed = [
            (c.task_index, c.start)
            for c in stats.chunks
            if c.outcome in ("ok", "retried", "replayed")
        ]
        if fault is not None:
            schedule = {
                span: fault.fault_attempts(*span) for span in executed
            }
            faulted = sum(1 for n in schedule.values() if n > 0)
            observed["faulted_chunks"] = faulted
            max_retries = _FAST_RETRY.max_retries
            if spec.venue == "serial":
                # Serial execution is fully deterministic, so the failure
                # counters must match the injected schedule *exactly*.
                predicted_failed = sum(
                    min(n, max_retries + 1) for n in schedule.values()
                )
                predicted_replays = sum(
                    1 for n in schedule.values() if n > max_retries
                )
                if stats.failed_attempts != predicted_failed:
                    failures.append(
                        f"failed_attempts {stats.failed_attempts} != "
                        f"schedule-predicted {predicted_failed}"
                    )
                if stats.serial_replays != predicted_replays:
                    failures.append(
                        f"serial_replays {stats.serial_replays} != "
                        f"schedule-predicted {predicted_replays}"
                    )
            elif faulted and stats.failed_attempts < 1:
                failures.append(
                    "injected chunk faults left no failed-attempt trace"
                )

    def across_phases(attr: str) -> int:
        return sum(getattr(s, attr) for s in phase_stats)

    observed["journal_replayed"] = across_phases("journal_replayed_chunks")
    observed["journal_appended"] = across_phases("journal_appended_chunks")
    if journaled and values is not None:
        if stats is not None and stats.journal_replayed_chunks < 1:
            failures.append("rerun replayed no journaled spans")
    if "journal-corruption" in spec.dims:
        corrupt = across_phases("journal_corrupt_records")
        observed["journal_corrupt"] = corrupt
        if corrupt < 1:
            failures.append(
                "corrupted journal record was not detected and quarantined"
            )
    if use_cache:
        corrupt = across_phases("cache_corrupt_entries")
        observed["cache_corrupt"] = corrupt
        if corrupt < 1:
            failures.append(
                "corrupted cache entry was not detected and quarantined"
            )

    leak = _leak_failure(threads_before)
    if leak is not None:
        failures.append(leak)

    return TrialResult(
        name=f"trial-{spec.index:03d} {spec.describe()}",
        ok=not failures,
        failures=failures,
        observed=observed,
        spec=spec.to_dict(),
    )


# ---------------------------------------------------------------------------
# process-level trials: kill the coordinator itself
# ---------------------------------------------------------------------------


def _verify_cmd(seed, claims: str, budget: str, json_out: Path,
                journal: Optional[Path] = None):
    cmd = [
        sys.executable, "-m", "repro", "--seed", str(seed),
        "verify", "--claims", claims, "--budget", budget,
        "--json", str(json_out),
    ]
    if journal is not None:
        cmd += ["--journal", str(journal)]
    return cmd


def _journal_counters(report: dict) -> Dict[str, int]:
    totals = {"replayed": 0, "corrupt": 0}
    for check in report.get("checks", []):
        for stats in check.get("timing", {}).get("run_stats", []):
            totals["replayed"] += stats.get("journal_replayed_chunks", 0)
            totals["corrupt"] += stats.get("journal_corrupt_records", 0)
    return totals


def run_process_trials(
    seed,
    workdir: Path,
    claims: str = "E2",
    budget: str = "small",
    echo=None,
) -> List[TrialResult]:
    """Kill a real ``repro verify`` coordinator mid-batch; rerun; compare.

    Two trials: SIGKILL (plus one corrupted journal entry) and SIGINT.
    Rerunning with the same ``--journal`` must give a byte-identical
    deterministic payload.
    """
    import signal as _signal

    from ..analysis.export import deterministic_payload

    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    env = _subprocess_env()

    base_out = workdir / "baseline.json"
    base = subprocess.run(
        _verify_cmd(seed, claims, budget, base_out),
        env=env, capture_output=True, text=True, timeout=600,
    )
    base_payload = None
    if base_out.exists():
        base_payload = deterministic_payload(json.loads(base_out.read_text()))

    results = []
    trials = (
        ("coordinator-sigkill-resume", _signal.SIGKILL, True),
        ("coordinator-sigint-resume", _signal.SIGINT, False),
    )
    for name, sig, corrupt in trials:
        if echo is not None:
            echo(f"process trial: {name}")
        failures: List[str] = []
        observed: Dict[str, object] = {}
        if base_payload is None:
            results.append(TrialResult(
                name=f"process {name}", ok=False,
                failures=[
                    "baseline verify run produced no artifact "
                    f"(rc={base.returncode}): {base.stderr.strip()[:200]}"
                ],
                observed=observed,
            ))
            continue
        trial_dir = workdir / name
        journal_dir = trial_dir / "journal"
        first_out = trial_dir / "interrupted.json"
        proc = subprocess.Popen(
            _verify_cmd(seed, claims, budget, first_out, journal=journal_dir),
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        # Wait for at least two durable entries before killing: one to
        # corrupt, one whose replay proves the rerun actually resumed.
        deadline = time.monotonic() + 300
        while proc.poll() is None and time.monotonic() < deadline:
            if sum(1 for _ in journal_dir.glob("*/*.json")) >= 2:
                break
            time.sleep(0.01)
        killed_midrun = proc.poll() is None
        if killed_midrun:
            proc.send_signal(sig)
            try:
                proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        observed["killed_midrun"] = killed_midrun

        records = sorted(journal_dir.glob("*/*.json"))
        observed["records_at_resume"] = len(records)
        if not records:
            failures.append(
                "no journal entries survived the kill (nothing to resume)"
            )
        if corrupt and records:
            _flip_byte(records[len(records) // 2])

        resumed_out = trial_dir / "resumed.json"
        resumed = subprocess.run(
            _verify_cmd(seed, claims, budget, resumed_out,
                        journal=journal_dir),
            env=env, capture_output=True, text=True, timeout=600,
        )
        if resumed.returncode != base.returncode:
            failures.append(
                f"resumed run exited {resumed.returncode}, baseline exited "
                f"{base.returncode}: {resumed.stderr.strip()[:200]}"
            )
        if not resumed_out.exists():
            failures.append("resumed run wrote no artifact")
        else:
            report = json.loads(resumed_out.read_text())
            if deterministic_payload(report) != base_payload:
                failures.append(
                    "resumed deterministic payload diverged from the "
                    "uninterrupted baseline"
                )
            counters = _journal_counters(report)
            observed.update(
                journal_replayed=counters["replayed"],
                journal_corrupt=counters["corrupt"],
            )
            if corrupt and records and counters["corrupt"] < 1:
                failures.append(
                    "corrupted journal entry was not quarantined on rerun"
                )
            # With >1 surviving entry at least one span must replay even
            # after the corruption quarantined another.
            if len(records) > 1 and counters["replayed"] < 1:
                failures.append("rerun replayed no journaled spans")
        results.append(TrialResult(
            name=f"process {name}", ok=not failures,
            failures=failures, observed=observed,
        ))
    return results


# ---------------------------------------------------------------------------
# campaign driver
# ---------------------------------------------------------------------------


def run_campaign(
    seed,
    n_trials: int = 4,
    venues: Sequence[str] = ("serial", "pool"),
    dims: Sequence[str] = DIMENSIONS,
    explicit: Sequence[str] = (),
    workdir=None,
    trial_runs: int = 48,
    chunk_size: int = 8,
    process_trials: bool = False,
    echo=None,
) -> CampaignReport:
    """Plan and execute one campaign; returns the JSON-exportable report.

    ``explicit`` appends ``VENUE:DIM+DIM`` specs after the ``n_trials``
    planned ones — CI uses this for deterministic coverage of specific
    combinations.  ``workdir`` keeps the trial directories for post
    mortems; the default is a temporary directory, cleaned up afterward.
    """
    import tempfile

    specs = plan_campaign(seed, n_trials, venues=venues, dims=dims)
    specs += [
        parse_trial_spec(text, len(specs) + offset, seed)
        for offset, text in enumerate(explicit)
    ]
    report = CampaignReport(seed_repr=repr(seed))
    cleanup = None
    if workdir is None:
        tmp = tempfile.TemporaryDirectory(prefix="repro-chaos-")
        workdir, cleanup = tmp.name, tmp
    try:
        campaign = _Campaign(seed, Path(workdir), trial_runs, chunk_size)
        for spec in specs:
            if echo is not None:
                echo(f"trial {spec.index:03d}: {spec.describe()}")
            try:
                report.results.append(run_trial(spec, campaign))
            except Exception as exc:
                # A harness crash is a *failed trial*, not a lost campaign.
                report.results.append(TrialResult(
                    name=f"trial-{spec.index:03d} {spec.describe()}",
                    ok=False,
                    failures=[
                        f"trial harness error: {type(exc).__name__}: {exc}"
                    ],
                    observed={},
                    spec=spec.to_dict(),
                ))
        if process_trials:
            report.results.extend(
                run_process_trials(seed, Path(workdir) / "process", echo=echo)
            )
    finally:
        if cleanup is not None:
            cleanup.cleanup()
    return report
