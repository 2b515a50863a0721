"""Golden-transcript regression tests.

Each canonical protocol gets a committed digest of its round-by-round
transcripts under a fixed seed (``tests/data/golden_transcripts.json``).
The digest covers every run's full rendered transcript — senders,
payload summaries, outputs, events — so any drift in protocol logic,
message scheduling, RNG forking, or trace rendering shows up as a digest
mismatch rather than a silently shifted Monte-Carlo estimate.  A second
digest covers every run's adversary log (the ``repr`` of each entry, in
order), which the rendered transcript does not include.

The same digests must come out of every execution mode: serial, process
pool, cold + warm chunk cache, and the fault-injected retry/replay
ladder.  That is the runtime's core bit-identity contract, checked here
at transcript granularity instead of event-count granularity.

Regenerate after an intentional protocol change::

    PYTHONPATH=src python tests/test_golden_transcripts.py --regenerate
"""

import hashlib
import json
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import pytest

from repro.adversaries import (
    KnownOutputStopper,
    LeakyInputExtractor,
    LockWatchingAborter,
)
from repro.crypto.prf import Rng
from repro.engine.execution import run_execution
from repro.engine.trace import render_transcript
from repro.functions import make_and, make_concat, make_swap
from repro.protocols import (
    GordonKatzProtocol,
    LeakyAndProtocol,
    Opt2SfeProtocol,
    OptNSfeProtocol,
)
from repro.protocols.gradual_release import GradualReleaseProtocol
from repro.runtime import ProcessPoolRunner, SerialRunner
from repro.runtime.cache import ChunkCache
from repro.runtime.retry import FaultSpec, RetryPolicy

GOLDEN_PATH = Path(__file__).parent / "data" / "golden_transcripts.json"

N_RUNS = 12
SEED = "golden-transcripts"


def render_adversary_log(result) -> str:
    """Every adversary-log entry's ``repr``, one per line, in log order."""
    return "\n".join(repr(entry) for entry in result.adversary_log)


#: What a digest covers: the rendered transcript or the adversary log.
VIEWS = {
    "transcript": render_transcript,
    "adversary_log": render_adversary_log,
}


@dataclass
class TranscriptDigestTask:
    """A runner task whose partial is a Counter of per-run digests.

    Mirrors :class:`repro.runtime.tasks.ExecutionTask`'s seed derivation
    exactly (``Rng(seed).fork(f"run-{k}")`` with ``inputs``/``adversary``/
    ``exec`` sub-streams), so run ``k`` replays the estimator's execution
    bit-identically; but instead of classifying events it hashes the
    rendering of ``view`` (a key of :data:`VIEWS`).  Counters merge by
    ``+``, so any chunk partition folds to the same digest set.
    """

    protocol: object
    factory: object
    n_runs: int
    seed: object
    view: str = "transcript"

    @property
    def label(self) -> str:
        return f"transcripts:{self.protocol.name}"

    def cache_material(self):
        return (
            "transcript-digest",
            getattr(self.protocol, "cache_key", self.protocol.name),
            getattr(self.factory, "name", "adversary"),
            self.seed,
            self.view,
        )

    def run_chunk(self, start: int, stop: int) -> Counter:
        master = Rng(self.seed)
        render = VIEWS[self.view]
        digests = Counter()
        for k in range(start, stop):
            rng = master.fork(f"run-{k}")
            inputs = self.protocol.func.sample_inputs(rng.fork("inputs"))
            adversary = self.factory(rng.fork("adversary"))
            result = run_execution(
                self.protocol, inputs, adversary, rng.fork("exec")
            )
            text = render(result)
            digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
            digests[f"run-{k}:{digest}"] = 1
        return digests


def _protocols():
    return {
        "gordon_katz": (
            GordonKatzProtocol(make_and(), p=2),
            lambda rng: KnownOutputStopper(0, known_output=1),
        ),
        "opt_2sfe": (
            Opt2SfeProtocol(make_swap(16)),
            lambda rng: LockWatchingAborter({0}),
        ),
        "opt_nsfe": (
            OptNSfeProtocol(make_concat(4, 8)),
            lambda rng: LockWatchingAborter({0, 1}),
        ),
        "gradual_release": (
            GradualReleaseProtocol(make_swap(16)),
            lambda rng: LockWatchingAborter({0}),
        ),
        "leaky_and": (
            LeakyAndProtocol(),
            lambda rng: LeakyInputExtractor(),
        ),
    }


def compute_digest(name: str, runner, view: str = "transcript") -> str:
    """One protocol's combined ``view`` digest under ``runner``."""
    protocol, factory = _protocols()[name]
    task = TranscriptDigestTask(protocol, factory, N_RUNS, (SEED, name), view)
    (merged,) = runner.run([task])
    assert sum(merged.values()) == N_RUNS, "a run went missing in the merge"
    combined = "\n".join(sorted(merged))
    return hashlib.sha256(combined.encode("utf-8")).hexdigest()


def _golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


PROTOCOL_NAMES = sorted(_protocols())


class TestGoldenTranscripts:
    @pytest.mark.parametrize("name", PROTOCOL_NAMES)
    def test_serial_matches_golden(self, name):
        assert compute_digest(name, SerialRunner()) == _golden()[name]["digest"]

    @pytest.mark.parametrize("name", PROTOCOL_NAMES)
    def test_serial_adversary_log_matches_golden(self, name):
        digest = compute_digest(name, SerialRunner(), view="adversary_log")
        assert digest == _golden()[name]["adversary_log_digest"]

    @pytest.mark.parametrize("name", PROTOCOL_NAMES)
    def test_pool_matches_golden(self, name):
        runner = ProcessPoolRunner(jobs=2, chunk_size=4, min_parallel_runs=1)
        assert compute_digest(name, runner) == _golden()[name]["digest"]

    @pytest.mark.parametrize("name", PROTOCOL_NAMES)
    def test_warm_cache_matches_golden(self, name, tmp_path):
        cache = ChunkCache(tmp_path / "chunks")
        cold = compute_digest(name, SerialRunner(cache=cache))
        warm_runner = SerialRunner(cache=ChunkCache(tmp_path / "chunks"))
        warm = compute_digest(name, warm_runner)
        assert cold == _golden()[name]["digest"]
        assert warm == _golden()[name]["digest"]
        assert warm_runner.last_stats.cache_hits > 0, "cache never warmed"

    @pytest.mark.parametrize("name", PROTOCOL_NAMES)
    def test_fault_replay_matches_golden(self, name):
        runner = SerialRunner(
            chunk_size=4,
            retry=RetryPolicy(max_retries=1, backoff_s=0.0),
            fault=FaultSpec(rate=0.5, kind="raise", seed="golden-faults"),
        )
        assert compute_digest(name, runner) == _golden()[name]["digest"]
        stats = runner.last_stats
        assert stats.failed_attempts > 0, "fault injection never fired"

    def test_golden_file_covers_every_protocol(self):
        golden = _golden()
        assert sorted(golden) == PROTOCOL_NAMES
        for name, entry in golden.items():
            assert entry["n_runs"] == N_RUNS
            assert entry["seed"] == [SEED, name]
            assert len(entry["digest"]) == 64
            assert len(entry["adversary_log_digest"]) == 64


def regenerate() -> None:
    # The golden digests define what "correct" means for every backend,
    # so they come from the reference engine only.
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    golden = {
        name: {
            "seed": [SEED, name],
            "n_runs": N_RUNS,
            "digest": compute_digest(
                name, SerialRunner(backend="reference")
            ),
            "adversary_log_digest": compute_digest(
                name, SerialRunner(backend="reference"), view="adversary_log"
            ),
        }
        for name in PROTOCOL_NAMES
    }
    GOLDEN_PATH.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")


if __name__ == "__main__":
    import sys

    if "--regenerate" in sys.argv:
        regenerate()
    else:
        print(__doc__)
