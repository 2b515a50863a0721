"""The vectorized batch-execution backend: bit-identity and dispatch.

The backend's entire contract is *exact* equivalence: for every eligible
``(protocol, adversary strategy)`` combination the chunk kernels must
reproduce the reference engine's :class:`EventCounts` — event counts and
corruption counts — bit-for-bit, on every seed, or refuse the task and
fall back.  These tests pin both halves:

* **equivalence** — hundreds of random master seeds per eligible
  protocol, reference vs. vectorized, exact dict equality (no tolerance);
* **dispatch** — ineligible tasks (rng-consuming or unknown
  strategies, non-execution tasks) fall back to the reference
  engine under ``auto`` and raise :class:`BackendError` under the forced
  ``vectorized`` backend, with the choice visible in ``RunStats``;
  eligible chunks of every width run on their kernel, and a kernel
  failure under the forced backend raises instead of being replayed;
* **payload identity** — the deterministic portion of a verification
  artifact is byte-equal across serial/pool/reference/vectorized, for
  every registered claim under reference vs ``auto`` (the registry-wide
  differential), and a chunk cache warmed under one backend serves the
  other;
* **footprint** — no ``repro`` entry point imports NumPy.
"""

import copy
import importlib
import json
import random
from types import SimpleNamespace

import pytest

from repro.adversaries import (
    AbortAtRound,
    KnownOutputStopper,
    LockWatchingAborter,
    PassiveAdversary,
    RandomSingleCorruption,
    SignalDeviator,
    fixed,
    strategy_space_for_protocol,
)
from repro.analysis import (
    deterministic_payload,
    report_to_dict,
    run_batch,
    run_stats_to_dict,
)
from repro.crypto import prf
from repro.functions import make_and, make_concat, make_millionaires, make_swap
from repro.gmw import ThresholdGmwProtocol
from repro.protocols import (
    DummyProtocol,
    GordonKatzProtocol,
    GradualReleaseProtocol,
    Opt2SfeProtocol,
    OptNSfeProtocol,
    SingleRoundProtocol,
    UnbalancedOptProtocol,
)
from repro.protocols.dummy import DummyMachine
from repro.runtime import (
    BackendError,
    ChunkCache,
    ExecutionTask,
    ProcessPoolRunner,
    SerialRunner,
    resolve_backend,
    resolve_runner,
    vectorizable,
)
from repro.runtime.kernels import SentinelRng, kernel_for
from repro.verify import verify_claims
from repro.verify.claims import constant_inputs

N_SEEDS = 200


def _gk_config(i, rnd):
    """One randomized Gordon–Katz configuration per seed index: both
    ShareGen variants, over a binary and a 4-ary function."""
    func = rnd.choice([make_and, lambda: make_millionaires(2)])()
    variant = rnd.choice(["domain", "range"])
    p = rnd.choice([2, 3, 4])
    corrupt = rnd.choice([0, 1])
    known = rnd.choice(func.output_domain)
    inputs = tuple(rnd.choice(domain) for domain in func.input_domains)
    protocol = GordonKatzProtocol(func, p=p, variant=variant)
    factory = fixed(
        "known-output",
        lambda c=corrupt, y=known: KnownOutputStopper(c, known_output=y),
    )
    return protocol, factory, inputs


def _single_round_config(i, rnd):
    corrupt = frozenset(rnd.choice([(0,), (1,), (0, 1)]))
    protocol = SingleRoundProtocol(make_and())
    factory = fixed(
        f"lock-watch{sorted(corrupt)}",
        lambda s=corrupt: LockWatchingAborter(set(s)),
    )
    return protocol, factory, (rnd.choice([0, 1]), rnd.choice([0, 1]))


def _gradual_config(i, rnd):
    corrupt = frozenset(rnd.choice([(0,), (1,), (0, 1)]))
    protocol = GradualReleaseProtocol(make_and())
    factory = fixed(
        f"lock-watch{sorted(corrupt)}",
        lambda s=corrupt: LockWatchingAborter(set(s)),
    )
    return protocol, factory, (rnd.choice([0, 1]), rnd.choice([0, 1]))


def _lock_watch(corrupt):
    return fixed(
        f"lock-watch{sorted(corrupt)}",
        lambda s=frozenset(corrupt): LockWatchingAborter(set(s)),
    )


def _multiparty_config(protocol_class, sizes):
    """A random size, a random non-empty proper coalition and, half the
    time, random constant inputs (else the function's own sampler)."""

    def config(i, rnd):
        n = rnd.choice(sizes)
        corrupt = rnd.sample(range(n), rnd.randint(1, n - 1))
        func = make_concat(n, 8)
        inputs = None
        if rnd.random() < 0.5:
            inputs = tuple(rnd.randrange(256) for _ in range(n))
        return protocol_class(func), _lock_watch(corrupt), inputs

    return config


# (config, label, runs per seed).  The calibrated kernels replicate the
# events of the task's own first runs, so their configurations need runs
# beyond the calibration runs for a wrong key to show.
EQUIVALENCE_CONFIGS = [
    (_gk_config, "gordon-katz", 2),
    (_single_round_config, "single-round", 2),
    (_gradual_config, "gradual-release", 2),
    (_multiparty_config(OptNSfeProtocol, (3, 4, 5)), "opt-nsfe", 8),
    (_multiparty_config(UnbalancedOptProtocol, (3, 4, 5)), "unbalanced-opt", 8),
    (_multiparty_config(ThresholdGmwProtocol, (3, 4)), "gmw-threshold", 4),
]


@pytest.mark.parametrize(
    "config,label,n_runs",
    EQUIVALENCE_CONFIGS,
    ids=[label for _, label, _ in EQUIVALENCE_CONFIGS],
)
def test_exact_equivalence_over_random_seeds(config, label, n_runs):
    """Reference and vectorized backends agree exactly on N_SEEDS random
    master seeds (randomized corruption/inputs/parameters per seed)."""
    rnd = random.Random(f"vectorized-{label}")
    checked = 0
    for i in range(N_SEEDS):
        protocol, factory, inputs = config(i, rnd)
        seed = ("vec-equiv", label, i, rnd.getrandbits(64))
        sampler = None if inputs is None else constant_inputs(inputs)
        task_args = dict(seed=seed, input_sampler=sampler)
        ref_runner = SerialRunner(cache=None, backend="reference")
        vec_runner = SerialRunner(cache=None, backend="vectorized")
        ref = run_batch(
            protocol, factory, n_runs, runner=ref_runner, **task_args
        )
        vec = run_batch(
            protocol, factory, n_runs, runner=vec_runner, **task_args
        )
        assert ref.counts == vec.counts, (label, i, seed)
        assert ref.corruption_counts == vec.corruption_counts, (label, i)
        assert vec_runner.last_stats.execution_backend == "vectorized"
        assert vec_runner.last_stats.vectorized_runs == n_runs
        checked += 1
    assert checked == N_SEEDS


# The fresh-job catalogue of perfbench/servemix.py (every strategy
# against every protocol) and the protocols of its sweep jobs.
SERVE_MIX_PROTOCOLS = (
    "pi1", "pi2", "pi2-ideal-coin", "opt-2sfe", "single-round", "dummy",
    "gradual-release",
)
SERVE_MIX_STRATEGIES = (
    "passive[0]", "passive[1]", "lock-watch[0]", "lock-watch[1]",
    "abort@r0[0]", "abort@r1[0]", "abort@r2[0]", "abort@r1[1]",
)
SWEEP_PROTOCOLS = ("pi1", "pi2", "opt-2sfe", "single-round", "dummy")


def _serve_mix_pairs():
    from repro.cli import _protocol_registry
    from repro.runtime.codec import resolve_strategy

    registry = _protocol_registry(2)
    pairs = {
        (p, s): resolve_strategy(s)
        for p in SERVE_MIX_PROTOCOLS for s in SERVE_MIX_STRATEGIES
    }
    for p in SWEEP_PROTOCOLS:
        for factory in strategy_space_for_protocol(registry[p]):
            pairs.setdefault((p, factory.name), factory)
    return registry, pairs


SERVE_MIX_REGISTRY, SERVE_MIX_PAIRS = _serve_mix_pairs()


@pytest.mark.parametrize(
    "protocol,strategy", sorted(SERVE_MIX_PAIRS),
    ids=[f"{p}-{s}" for p, s in sorted(SERVE_MIX_PAIRS)],
)
def test_serve_mix_pairs_run_on_the_draw_keyed_kernel(protocol, strategy):
    """Every RNG-free pair the service benchmark sends has a kernel, and
    ``auto`` gives the reference engine's counts, corruption-set order
    included, at two seeds."""
    for seed in ("serve-mix-a", "serve-mix-b"):
        task = ExecutionTask(
            SERVE_MIX_REGISTRY[protocol], SERVE_MIX_PAIRS[protocol, strategy],
            128, seed=(seed, protocol, strategy),
        )
        assert vectorizable(task)
        ref = SerialRunner(cache=None, backend="reference").run_one(task)
        runner = SerialRunner(cache=None, backend="auto")
        got = runner.run_one(task)
        assert ref.counts == got.counts, seed
        assert list(ref.corruption_counts.items()) == list(
            got.corruption_counts.items()
        ), seed
        assert runner.last_stats.vectorized_runs == 128


class _CopyPeekMachine(DummyMachine):
    """Peeks at a small draw on a deep copy of its stream."""

    def on_round(self, round_no, inbox, ctx):
        if round_no == 0:
            copy.deepcopy(ctx.rng).randrange(4)
        super().on_round(round_no, inbox, ctx)


class _ValueLabelledMachine(DummyMachine):
    """Draws its second small value from a stream its first one names."""

    def on_round(self, round_no, inbox, ctx):
        if round_no == 0:
            first = ctx.rng.randrange(2)
            ctx.rng.fork(f"second-{first}").randrange(2)
        super().on_round(round_no, inbox, ctx)


class _ValueCountedMachine(DummyMachine):
    """Makes one more (large) draw when its first draw is below 1/2."""

    def on_round(self, round_no, inbox, ctx):
        if round_no == 0 and ctx.rng.random() < 0.5:
            ctx.rng.randbytes(8)
        super().on_round(round_no, inbox, ctx)


@pytest.mark.parametrize(
    "machine", [_CopyPeekMachine, _ValueLabelledMachine, _ValueCountedMachine]
)
def test_unreplayable_draws_leave_the_task_on_the_engine(machine):
    """A run whose draws a replay cannot find (made on a copy, on a
    stream named by an earlier draw, or more of them when a large draw
    says so) leaves its task on the engine."""

    class Toy(DummyProtocol):
        def build_machines(self, rng):
            return [machine(i, self.n_parties) for i in range(self.n_parties)]

    task = ExecutionTask(
        Toy(make_and()), fixed("passive[0]", lambda: PassiveAdversary({0})),
        32, seed=("vec-refusal", machine.__name__),
    )
    assert not vectorizable(task)
    ref = SerialRunner(cache=None, backend="reference").run_one(task)
    runner = SerialRunner(cache=None, backend="auto")
    assert runner.run_one(task) == ref
    assert runner.last_stats.execution_backend == "reference"
    assert runner.last_stats.vectorized_runs == 0


def _gk_task(n_runs=32, seed="vec-dispatch"):
    return ExecutionTask(
        GordonKatzProtocol(make_and(), p=2),
        fixed(
            "known-output", lambda: KnownOutputStopper(0, known_output=1)
        ),
        n_runs,
        seed=seed,
        input_sampler=constant_inputs((1, 1)),
    )


def test_eligible_task_is_vectorizable():
    assert vectorizable(_gk_task())


def test_unknown_strategy_falls_back_to_reference():
    task = ExecutionTask(
        GordonKatzProtocol(make_and(), p=2),
        fixed("abort@2", lambda: AbortAtRound({0}, 2)),
        16,
        seed="vec-unknown",
        input_sampler=constant_inputs((1, 1)),
    )
    assert not vectorizable(task)
    runner = SerialRunner(cache=None, backend="auto")
    runner.run_one(task)
    assert runner.last_stats.execution_backend == "reference"
    assert runner.last_stats.vectorized_runs == 0


def test_rng_consuming_factory_falls_back_to_reference():
    """A factory that draws from its per-run RNG cannot be probed into a
    single representative instance, so the registry must refuse it."""
    from repro.adversaries import RandomSingleCorruption

    task = ExecutionTask(
        GordonKatzProtocol(make_and(), p=2),
        lambda rng: RandomSingleCorruption(2, rng),
        16,
        seed="vec-rng",
        input_sampler=constant_inputs((1, 1)),
    )
    assert not vectorizable(task)
    runner = SerialRunner(cache=None, backend="auto")
    runner.run_one(task)
    assert runner.last_stats.execution_backend == "reference"


def _opaque_sampler(rng):
    return tuple(rng.randrange(256) for _ in range(3))


# Each case leaves one gate of the kernels unmet: an RNG-consuming
# factory, a custom input sampler, and a signal deviator, whose release
# coin comes from the stream of the party i* names (which stream a run
# reads depends on a draw's value).
PRIV_SFE_FALLBACKS = {
    "rng-consuming": (
        OptNSfeProtocol, lambda rng: RandomSingleCorruption(3, rng), None,
    ),
    "signal-deviator": (
        UnbalancedOptProtocol, fixed("sd0", lambda: SignalDeviator({0})), None,
    ),
    "custom-sampler": (OptNSfeProtocol, _lock_watch({0}), _opaque_sampler),
}


@pytest.mark.parametrize("case", sorted(PRIV_SFE_FALLBACKS))
def test_priv_sfe_ineligible_tasks_fall_back_to_reference(case):
    protocol_class, factory, sampler = PRIV_SFE_FALLBACKS[case]
    task = ExecutionTask(
        protocol_class(make_concat(3, 8)), factory, 16,
        seed=("vec-priv-sfe", case), input_sampler=sampler,
    )
    assert not vectorizable(task)
    runner = SerialRunner(cache=None, backend="auto")
    runner.run_one(task)
    assert runner.last_stats.execution_backend == "reference"
    assert runner.last_stats.vectorized_runs == 0


def test_all_parties_lock_watcher_matches_the_engine():
    """A coalition of every party, which the per-protocol priv-sfe kernel
    refused, is keyed on its draws like any other task."""
    task = ExecutionTask(
        OptNSfeProtocol(make_concat(3, 8)), _lock_watch({0, 1, 2}), 16,
        seed=("vec-priv-sfe", "all-parties"),
    )
    assert vectorizable(task)
    ref = SerialRunner(cache=None, backend="reference").run_one(task)
    runner = SerialRunner(cache=None, backend="auto")
    got = runner.run_one(task)
    assert ref == got
    assert list(ref.corruption_counts) == list(got.corruption_counts)
    assert runner.last_stats.vectorized_runs == 16


@pytest.mark.parametrize("protocol_class", [
    OptNSfeProtocol, UnbalancedOptProtocol, ThresholdGmwProtocol,
])
def test_multiparty_lock_watchers_are_vectorizable(protocol_class):
    for sampler in (None, constant_inputs((1, 2, 3))):
        task = ExecutionTask(
            protocol_class(make_concat(3, 8)), _lock_watch({0, 2}), 16,
            seed="vec-multiparty", input_sampler=sampler,
        )
        assert vectorizable(task)


def test_non_execution_task_falls_back_to_reference():
    """Tasks that are not ExecutionTasks (e.g. transcript-digest jobs)
    never reach a kernel, whatever the backend policy says."""

    class DigestTask:
        n_runs = 8

        def run_chunk(self, start, stop):
            from repro.core.utility import EventCounts

            return EventCounts()

    task = DigestTask()
    assert not vectorizable(task)
    runner = SerialRunner(cache=None, backend="auto")
    runner.run_one(task)
    assert runner.last_stats.execution_backend == "reference"


def test_forced_vectorized_raises_on_ineligible_task():
    task = ExecutionTask(
        GordonKatzProtocol(make_and(), p=2),
        fixed("abort@2", lambda: AbortAtRound({0}, 2)),
        16,
        seed="vec-forced",
        input_sampler=constant_inputs((1, 1)),
    )
    for runner in (
        SerialRunner(cache=None, backend="vectorized"),
        ProcessPoolRunner(
            2, min_parallel_runs=1, cache=None, backend="vectorized"
        ),
    ):
        with pytest.raises(BackendError):
            runner.run_one(task)
        # The retry ladder must not have degraded the assertion into a
        # silent reference replay.
        assert runner.last_stats.serial_replays == 0


def test_resolve_backend_validation():
    assert resolve_backend(None) == "auto"
    assert resolve_backend("reference") == "reference"
    with pytest.raises(BackendError):
        resolve_backend("numba")
    assert resolve_runner(backend="reference").exec_backend == "reference"


def test_pool_vectorized_matches_serial_reference():
    task = _gk_task(n_runs=300, seed="vec-pool")
    serial = SerialRunner(cache=None, backend="reference")
    pool = ProcessPoolRunner(
        2, min_parallel_runs=1, chunk_size=75, cache=None, backend="auto"
    )
    ref = serial.run_one(task)
    vec = pool.run_one(task)
    assert ref.counts == vec.counts
    assert ref.corruption_counts == vec.corruption_counts
    assert pool.last_stats.execution_backend == "vectorized"
    assert pool.last_stats.vectorized_runs == 300


def test_pool_auto_runs_narrow_gk_chunks_on_the_kernel():
    """The pool's 16-run Gordon–Katz chunks run on the kernel and fold
    to the serial reference result."""
    task = _gk_task(n_runs=64, seed="vec-pool-16")
    ref = SerialRunner(cache=None, backend="reference").run_one(task)
    pool = ProcessPoolRunner(
        2, min_parallel_runs=1, chunk_size=16, cache=None, backend="auto"
    )
    got = pool.run_one(task)
    assert got.counts == ref.counts
    assert got.corruption_counts == ref.corruption_counts
    assert pool.last_stats.execution_backend == "vectorized"
    assert pool.last_stats.vectorized_runs == 64
    assert [c.engine for c in pool.last_stats.chunks] == ["vectorized"] * 4


def test_pool_resolves_kernels_before_forking():
    """The parent memoizes each task's kernel, so the pool's workers
    inherit it instead of re-running the matchers."""
    task = _gk_task(n_runs=64, seed="vec-pool-memo")
    assert "_vectorized_kernel" not in vars(task)
    pool = ProcessPoolRunner(
        2, min_parallel_runs=1, chunk_size=16, cache=None, backend="auto"
    )
    pool.run_one(task)
    assert vars(task)["_vectorized_kernel"] is not None


def test_pool_builds_no_kernel_for_a_fully_journaled_task(tmp_path):
    """A task whose every span the journal replays never reaches a
    worker, so the parent skips its matchers and calibration runs."""
    from repro.runtime import RunJournal

    def run(task):
        pool = ProcessPoolRunner(
            2, min_parallel_runs=1, chunk_size=16, cache=None,
            backend="auto", journal=RunJournal(tmp_path),
        )
        return pool.run_one(task), pool.last_stats

    def task():
        return ExecutionTask(
            OptNSfeProtocol(make_concat(3, 8)), _lock_watch({0}), 64,
            seed="vec-pool-journal",
        )

    first, _ = run(task())
    replay_task = task()
    replayed, stats = run(replay_task)
    assert replayed.counts == first.counts
    assert stats.journal_replayed_chunks == stats.n_chunks == 4
    assert "_vectorized_kernel" not in vars(replay_task)


def test_calibration_runs_are_counted_on_both_venues():
    """The six engine runs that calibrate a ΠOptnSFE lock-watcher kernel
    (two per value of i*, run 0 among them) land in the batch stats,
    in the chunk that built the kernel on the serial venue and in the
    pool's parent, which builds it before forking."""
    def task():
        return ExecutionTask(
            OptNSfeProtocol(make_concat(3, 8)), _lock_watch({0}), 64,
            seed="vec-calibration",
        )

    serial = SerialRunner(cache=None, backend="auto", chunk_size=16)
    pool = ProcessPoolRunner(
        2, min_parallel_runs=1, chunk_size=16, cache=None, backend="auto"
    )
    for runner in (serial, pool):
        runner.run_one(task())
        assert runner.last_stats.execution_backend == "vectorized"
        assert runner.last_stats.calibration_runs == 6
        assert run_stats_to_dict(runner.last_stats)["calibration_runs"] == 6
    assert pool.last_stats.backend == "process-pool"


def test_forced_vectorized_runs_narrow_chunks_on_the_kernel():
    task = _gk_task(n_runs=32, seed="vec-forced-narrow")
    runner = SerialRunner(cache=None, backend="vectorized", chunk_size=8)
    runner.run_one(task)
    assert runner.last_stats.execution_backend == "vectorized"
    assert runner.last_stats.vectorized_runs == 32
    assert {c.engine for c in runner.last_stats.chunks} == {"vectorized"}


def _crash(start, stop):
    raise TypeError("kernel bug")


def test_forced_vectorized_raises_on_kernel_crash():
    """A kernel that crashes under the forced backend is a backend
    failure: the retry ladder must neither retry it nor replay the chunk
    on the reference engine."""
    for runner in (
        SerialRunner(cache=None, backend="vectorized"),
        ProcessPoolRunner(
            2, min_parallel_runs=1, cache=None, backend="vectorized"
        ),
    ):
        task = _gk_task(n_runs=32, seed="vec-crash")
        task._vectorized_kernel = _crash
        with pytest.raises(BackendError, match="kernel bug"):
            runner.run_one(task)
        assert runner.last_stats.failed_attempts == 0
        assert runner.last_stats.serial_replays == 0


def test_pool_auto_keeps_release_kernels_on_narrow_chunks():
    """Release kernels win at every width, so 16-run pool chunks (the
    service's path) stay vectorized."""
    task = ExecutionTask(
        SingleRoundProtocol(make_and()),
        fixed("lock-watch[0]", lambda: LockWatchingAborter({0})),
        64,
        seed="vec-pool-release",
        input_sampler=constant_inputs((1, 1)),
    )
    ref = SerialRunner(cache=None, backend="reference").run_one(task)
    pool = ProcessPoolRunner(
        2, min_parallel_runs=1, chunk_size=16, cache=None, backend="auto"
    )
    got = pool.run_one(task)
    assert got.counts == ref.counts
    assert pool.last_stats.execution_backend == "vectorized"
    assert pool.last_stats.vectorized_runs == 64
    assert {c.engine for c in pool.last_stats.chunks} == {"vectorized"}


# One task per protocol family a kernel covers, and the kernel module
# that covers it.
KERNEL_MODULES = {"gordon_katz": "gordon_katz"}
KERNEL_FAMILIES = {
    "gordon_katz": lambda: (
        GordonKatzProtocol(make_and(), p=2),
        fixed("known-output", lambda: KnownOutputStopper(0, known_output=1)),
        constant_inputs((1, 1)),
    ),
    "release": lambda: (
        SingleRoundProtocol(make_and()), _lock_watch({0}),
        constant_inputs((1, 1)),
    ),
    "priv_sfe": lambda: (
        OptNSfeProtocol(make_concat(4, 8)), _lock_watch({0, 1}), None,
    ),
    "opt_2sfe": lambda: (
        Opt2SfeProtocol(make_swap(16)), _lock_watch({0}), None,
    ),
}


@pytest.mark.parametrize("width", [8, 16, 64])
@pytest.mark.parametrize("family", sorted(KERNEL_FAMILIES))
def test_kernel_chunk_needs_fewer_digests_than_the_engine(
    monkeypatch, family, width
):
    """Every kernel family beats the engine on narrow and wide chunks,
    the 16-run chunks of the pool and service venues included, so
    dispatch may ignore the width.  Cost is counted, not timed: the SHA-256 digests
    behind ``Rng`` forks and ``Prg`` reads, which both paths draw the
    run's streams through.  Building the kernel (its calibration runs)
    is a once-per-task cost and stays outside the count."""
    protocol, factory, sampler = KERNEL_FAMILIES[family]()
    task = ExecutionTask(
        protocol, factory, width, seed=("kernel-digests", family, width),
        input_sampler=sampler,
    )
    kernel = kernel_for(task)
    matcher = importlib.import_module(
        f"repro.runtime.kernels.{KERNEL_MODULES.get(family, 'draw_keyed')}"
    ).matcher
    assert matcher(task, factory(SentinelRng())) is not None

    sha256 = prf.hashlib.sha256
    digests = []

    def counting(*args):
        digests.append(None)
        return sha256(*args)

    monkeypatch.setattr(prf, "hashlib", SimpleNamespace(sha256=counting))
    vec = kernel(0, width)
    kernel_digests = len(digests)
    ref = task.run_chunk(0, width)
    engine_digests = len(digests) - kernel_digests
    assert vec == ref
    assert kernel_digests < engine_digests, (kernel_digests, engine_digests)


def test_cache_warmed_by_one_backend_serves_the_other(tmp_path):
    """Vectorized and reference chunks share cache keys because their
    partials are bit-identical."""
    warm = SerialRunner(cache=ChunkCache(tmp_path), backend="reference")
    warm.run_one(_gk_task(seed="vec-cache"))
    assert warm.last_stats.cache_stores > 0
    read = SerialRunner(cache=ChunkCache(tmp_path), backend="vectorized")
    value = read.run_one(_gk_task(seed="vec-cache"))
    assert read.last_stats.cache_hits > 0
    assert read.last_stats.vectorized_runs == 0  # served from disk
    assert value.counts == warm.run_one(_gk_task(seed="vec-cache")).counts


def test_verification_payload_byte_equal_across_backends():
    """The deterministic portion of a verify artifact must not depend on
    the venue or the execution backend."""

    def payload(runner):
        report = verify_claims(
            "E10-stop", budget="small", seed="vec-payload", runner=runner
        )
        return json.dumps(
            deterministic_payload(report_to_dict(report)), sort_keys=True
        )

    vec_runner = SerialRunner(cache=None, backend="vectorized")
    texts = {
        "reference": payload(SerialRunner(cache=None, backend="reference")),
        "vectorized": payload(vec_runner),
        "pool-auto": payload(
            ProcessPoolRunner(
                2, min_parallel_runs=1, cache=None, backend="auto"
            )
        ),
    }
    assert texts["reference"] == texts["vectorized"] == texts["pool-auto"]
    assert any(
        s.vectorized_runs for s in vec_runner.stats_history
    ), "the vectorized side never actually vectorized"


def test_registry_payload_byte_equal_across_backends():
    """The registry-wide backend differential: every registered claim's
    deterministic payload is byte-identical under the reference engine
    and under ``auto``, which runs each eligible task on its kernel."""
    texts = {}
    for backend in ("reference", "auto"):
        runner = SerialRunner(cache=None, backend=backend)
        report = verify_claims(
            "all", budget="small", seed="vec-registry", runner=runner
        )
        texts[backend] = json.dumps(
            deterministic_payload(report_to_dict(report)), sort_keys=True
        )
        vectorized = sum(s.vectorized_runs for s in runner.stats_history)
        assert (vectorized > 0) == (backend == "auto"), backend
    assert texts["reference"] == texts["auto"]


def test_e20_claims_pass_at_small_budget():
    """The backend-equivalence claim family verifies."""
    report = verify_claims("E20", budget="small", seed="vec-e20")
    assert report.exit_code == 0


def test_e20_compares_two_engines_with_a_cache_in_the_env(
    tmp_path, monkeypatch
):
    """E20's sides run on runners built with no store, so an ambient
    ``REPRO_CACHE_DIR`` can neither serve the vectorized side the
    reference side's partials nor receive any entry."""
    from repro import metrics

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    before = metrics.value("vectorized_runs")
    report = verify_claims("E20-gk", budget="small", seed="vec-e20")
    assert report.exit_code == 0
    assert metrics.value("vectorized_runs") > before
    assert not list(tmp_path.glob("*/*.json"))


def test_entry_points_do_not_import_numpy(fresh_python):
    """The backend is pure standard library: loading the CLI, the
    service and the verifier pulls in no NumPy."""
    out = fresh_python(
        "import sys, repro.cli, repro.service, repro.verify; "
        "print('numpy' in sys.modules)"
    )
    assert out.strip() == "False"
