"""The vectorized batch-execution backend: bit-identity and dispatch.

The backend's entire contract is *exact* equivalence: for every eligible
``(protocol, adversary strategy)`` combination the NumPy kernels must
reproduce the reference engine's :class:`EventCounts` — event counts and
corruption counts — bit-for-bit, on every seed, or refuse the task and
fall back.  These tests pin both halves:

* **equivalence** — hundreds of random master seeds per eligible
  protocol, reference vs. vectorized, exact dict equality (no tolerance);
* **dispatch** — ineligible tasks (active faults, rng-consuming or
  unknown strategies, non-execution tasks) fall back to the reference
  engine under ``auto`` and raise :class:`BackendError` under the forced
  ``vectorized`` backend, with the choice visible in ``RunStats``;
  under ``auto`` a chunk narrower than its kernel's crossover width
  (``min_lanes``) runs on the reference engine, while the forced
  backend ignores the width;
* **payload identity** — the deterministic portion of a verification
  artifact is byte-equal across serial/pool/reference/vectorized, and a
  chunk cache warmed under one backend serves the other.
"""

import json
import random

import pytest

from repro.adversaries import (
    AbortAtRound,
    KnownOutputStopper,
    LockWatchingAborter,
    fixed,
)
from repro.analysis import deterministic_payload, report_to_dict, run_batch
from repro.engine.faults import ChannelFaultModel, EngineFaults
from repro.functions import make_and
from repro.protocols import (
    GordonKatzProtocol,
    GradualReleaseProtocol,
    SingleRoundProtocol,
)
from repro.runtime import (
    ENV_BACKEND,
    HAVE_NUMPY,
    BackendError,
    ChunkCache,
    ExecutionTask,
    ProcessPoolRunner,
    SerialRunner,
    resolve_backend,
    resolve_runner,
    vectorizable,
)
from repro.runtime.vectorized import kernel_for
from repro.verify import verify_claims
from repro.verify.claims import constant_inputs

needs_numpy = pytest.mark.skipif(
    not HAVE_NUMPY, reason="numpy not installed"
)

N_SEEDS = 200


def _gk_config(i, rnd):
    """One randomized Gordon–Katz configuration per seed index."""
    p = rnd.choice([2, 3, 4])
    corrupt = rnd.choice([0, 1])
    known = rnd.choice([0, 1])
    inputs = (rnd.choice([0, 1]), rnd.choice([0, 1]))
    protocol = GordonKatzProtocol(make_and(), p=p)
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


@needs_numpy
@pytest.mark.parametrize(
    "config,label",
    [
        (_gk_config, "gordon-katz"),
        (_single_round_config, "single-round"),
        (_gradual_config, "gradual-release"),
    ],
    ids=["gordon-katz", "single-round", "gradual-release"],
)
def test_exact_equivalence_over_random_seeds(config, label):
    """Reference and vectorized backends agree exactly on N_SEEDS random
    master seeds (randomized corruption/inputs/parameters per seed)."""
    rnd = random.Random(f"vectorized-{label}")
    checked = 0
    for i in range(N_SEEDS):
        protocol, factory, inputs = config(i, rnd)
        seed = ("vec-equiv", label, i, rnd.getrandbits(64))
        task_args = dict(
            seed=seed, input_sampler=constant_inputs(inputs)
        )
        ref_runner = SerialRunner(cache=None, backend="reference")
        vec_runner = SerialRunner(cache=None, backend="vectorized")
        ref = run_batch(protocol, factory, 2, runner=ref_runner, **task_args)
        vec = run_batch(protocol, factory, 2, runner=vec_runner, **task_args)
        assert ref.counts == vec.counts, (label, i, seed)
        assert ref.corruption_counts == vec.corruption_counts, (label, i)
        assert vec_runner.last_stats.execution_backend == "vectorized"
        assert vec_runner.last_stats.vectorized_runs == 2
        checked += 1
    assert checked == N_SEEDS


def _gk_task(n_runs=32, seed="vec-dispatch", faults=None):
    return ExecutionTask(
        GordonKatzProtocol(make_and(), p=2),
        fixed(
            "known-output", lambda: KnownOutputStopper(0, known_output=1)
        ),
        n_runs,
        seed=seed,
        input_sampler=constant_inputs((1, 1)),
        faults=faults,
    )


@needs_numpy
def test_eligible_task_is_vectorizable():
    assert vectorizable(_gk_task())


def test_active_faults_fall_back_to_reference():
    faults = EngineFaults(
        channel=ChannelFaultModel(loss=0.2, seed=("vec", "chan"))
    )
    task = _gk_task(faults=faults)
    assert not vectorizable(task)
    runner = SerialRunner(cache=None, backend="auto")
    runner.run_one(task)
    assert runner.last_stats.execution_backend == "reference"
    assert runner.last_stats.vectorized_runs == 0


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


def test_resolve_backend_env_and_validation(monkeypatch):
    monkeypatch.delenv(ENV_BACKEND, raising=False)
    assert resolve_backend(None) == "auto"
    assert resolve_backend("reference") == "reference"
    monkeypatch.setenv(ENV_BACKEND, "vectorized")
    assert resolve_backend(None) == "vectorized"
    assert resolve_backend("reference") == "reference"  # arg wins
    with pytest.raises(BackendError):
        resolve_backend("numba")
    assert resolve_runner(backend="reference").exec_backend == "reference"


@needs_numpy
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


@needs_numpy
def test_pool_auto_runs_narrow_gk_chunks_on_reference():
    """The pool's 16-run chunks are below the Gordon–Katz kernel's
    crossover width, so ``auto`` keeps every one on the reference
    engine."""
    task = _gk_task(n_runs=64, seed="vec-pool-16")
    ref = SerialRunner(cache=None, backend="reference").run_one(task)
    pool = ProcessPoolRunner(
        2, min_parallel_runs=1, chunk_size=16, cache=None, backend="auto"
    )
    got = pool.run_one(task)
    assert got.counts == ref.counts
    assert got.corruption_counts == ref.corruption_counts
    assert pool.last_stats.execution_backend == "reference"
    assert pool.last_stats.vectorized_runs == 0
    assert [c.engine for c in pool.last_stats.chunks] == ["reference"] * 4


@needs_numpy
def test_auto_splits_a_batch_at_the_crossover_width():
    """A chunk of exactly the crossover width runs on the kernel; the
    narrower tail chunk of the same batch runs on the reference
    engine, and the batch reports both."""
    crossover = kernel_for(_gk_task()).min_lanes
    task = _gk_task(n_runs=crossover + 8, seed="vec-crossover")
    ref = SerialRunner(cache=None, backend="reference").run_one(task)
    runner = SerialRunner(cache=None, backend="auto", chunk_size=crossover)
    got = runner.run_one(task)
    stats = runner.last_stats
    assert [(c.start, c.stop, c.engine) for c in stats.chunks] == [
        (0, crossover, "vectorized"),
        (crossover, crossover + 8, "reference"),
    ]
    assert stats.execution_backend == "mixed"
    assert stats.vectorized_runs == crossover
    assert got.counts == ref.counts
    assert got.corruption_counts == ref.corruption_counts


@needs_numpy
def test_forced_vectorized_ignores_the_crossover_width():
    task = _gk_task(n_runs=32, seed="vec-forced-narrow")
    runner = SerialRunner(cache=None, backend="vectorized", chunk_size=8)
    runner.run_one(task)
    assert runner.last_stats.execution_backend == "vectorized"
    assert runner.last_stats.vectorized_runs == 32
    assert {c.engine for c in runner.last_stats.chunks} == {"vectorized"}


@needs_numpy
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


@needs_numpy
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


@needs_numpy
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


def test_e20_claims_pass_at_small_budget():
    """The backend-equivalence claim family verifies (or skips cleanly
    when numpy is absent)."""
    report = verify_claims("E20", budget="small", seed="vec-e20")
    assert report.exit_code == 0
