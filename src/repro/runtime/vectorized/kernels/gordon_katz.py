"""Vectorized kernel: Gordon–Katz 1/p protocols vs the known-output stopper.

The reference engine steps ~``reveal_rounds`` protocol rounds per run and
has ShareGen derive hundreds of labelled sub-streams (pads, MAC keys,
full fake streams for both parties).  Under the registered worst-case
adversary the fairness event of a run is a closed-form function of a
handful of those streams, because every labelled ``Rng`` fork depends
only on its seed and label — never on how much of any sibling stream was
consumed.  Per run the event is determined by:

* ``i_star`` — ShareGen's geometric switch round, the first
  ``random() < alpha`` success of the ``i_star`` sub-stream;
* the corrupted party's value stream ``s_c[j] = fake_c(j+1)`` for
  ``j+1 < i_star`` and ``y_c`` after — the stopper aborts at the first
  index ``j*`` with ``s_c[j*] == known_output`` (it peeks index ``j`` via
  the rushing token at round ``j+1``);
* the honest party's abort output — its last banked value
  ``fake_h(j*)``, or ShareGen's ``fallback_h`` when ``j* = 0``.

From those, exactly as ``classify_gk`` computes on the transcript:
``learned = (j* >= i_star - 1)`` (the corrupted party saw a real value)
and ``honest = (abort output == y_h)``; a run whose stream never shows
``known_output`` completes normally (E11).  Each quantity is evaluated
for the whole chunk at once over batched SHA-256 lanes; the fake values
come from a precomputed table indexed by the vectorized ``choice`` draw.
"""

from __future__ import annotations

from typing import Optional

from ....core.events import FairnessEvent
from ....core.utility import EventCounts
from ..np_compat import np
from ..sha import rows_with_rows, sha256_batch
from ..streams import PrgMatrix, fork_rows, random_draw, randrange_rows

_VALUE_MASK = (1 << 64) - 1
#: Largest fake-value table the kernel will precompute.
_MAX_DOMAIN = 1 << 16

#: Crossover width: the smallest chunk, in runs, that ``auto`` hands to
#: this kernel.  The kernel makes some 30 ``sha256_batch`` calls per
#: chunk whatever its width, so per-call NumPy overhead makes it lose to
#: the reference engine on narrow chunks.  Read off the lane sweep in
#: ``benchmarks/bench_vectorized.py`` (``BENCH_vectorized.json``): p=4
#: breaks even between 32 and 40 lanes, p=2 between 40 and 48.  It must
#: stay above the 16-run chunks the pool, distributed and service venues
#: cut, and at most the 40-lane p=4 serial batch of E12 under
#: ``repro verify --budget small``, where the kernel wins.
LANE_CROSSOVER = 40

_EVENT_BY_CODE = (
    FairnessEvent.E00,
    FairnessEvent.E01,
    FairnessEvent.E10,
    FairnessEvent.E11,
)


def _ascii_digits(values, digits: int):
    """Decimal ASCII rendering of ``values`` (all with ``digits`` digits)."""
    tail = np.empty((values.size, digits), dtype=np.uint8)
    rem = values.astype(np.int64).copy()
    for col in range(digits - 1, -1, -1):
        tail[:, col] = (rem % 10 + ord("0")).astype(np.uint8)
        rem //= 10
    return tail


def run_seed_rows(master_seed: bytes, start: int, stop: int):
    """Seed matrix of ``Rng(seed).fork(f"run-{k}")`` for k in [start, stop).

    Rows are grouped by the decimal width of ``k`` so every
    ``sha256_batch`` call sees equal-length messages.
    """
    out = np.empty((stop - start, 32), dtype=np.uint8)
    prefix = np.frombuffer(master_seed + b"/run-", dtype=np.uint8)
    k = start
    while k < stop:
        digits = len(str(k))
        hi = min(stop, 10 ** digits)
        ks = np.arange(k, hi)
        msgs = np.empty((ks.size, prefix.size + digits), dtype=np.uint8)
        msgs[:, : prefix.size] = prefix
        msgs[:, prefix.size:] = _ascii_digits(ks, digits)
        out[k - start: hi - start] = sha256_batch(msgs)
        k = hi
    return out


def _first_success(istar_seeds, alpha: float, rounds: int):
    """Vectorized ``GkShareGen._draw_i_star``: per-lane geometric switch
    round, truncated to ``[1, rounds]`` (draw ``t`` succeeding means
    ``i_star = t + 1``; at most ``rounds - 1`` draws)."""
    n = istar_seeds.shape[0]
    i_star = np.full(n, rounds, dtype=np.int64)
    lanes = np.arange(n)
    prg = PrgMatrix(istar_seeds)
    for t in range(rounds - 1):
        if not lanes.size:
            break
        success = random_draw(prg, t) < alpha
        i_star[lanes[success]] = t + 1
        lanes = lanes[~success]
        prg = prg.subset(~success)
    return i_star


def _fake_table(func, inputs, variant: str, party: int):
    """``(width, table)`` replicating ``fake_samplers[party]``: the table
    maps the sampler's single ``choice`` index to the masked fake value."""
    if variant == "range":
        domain = func.output_domain
        values = [int(z) & _VALUE_MASK for z in domain]
    else:
        other = 1 - party
        domain = func.input_domains[other]
        values = []
        for x in domain:
            fake = list(inputs)
            fake[other] = x
            values.append(int(func.outputs_for(tuple(fake))[party]) & _VALUE_MASK)
    return len(domain), np.array(values, dtype=np.uint64)


def _int_sampler_draws(sg_seeds, label: bytes, width: int, table):
    """Fake/fallback values for every row: fork ``label``, one
    ``choice``-style draw, table lookup."""
    idx = randrange_rows(fork_rows(sg_seeds, label), width)
    return table[idx]


def matcher(task, adversary) -> Optional[callable]:
    """Kernel for ``GordonKatzProtocol`` vs ``KnownOutputStopper``."""
    from ....adversaries.gk_aborter import KnownOutputStopper
    from ....protocols.gordon_katz import GordonKatzProtocol

    protocol = task.protocol
    if type(protocol) is not GordonKatzProtocol:
        return None
    if type(adversary) is not KnownOutputStopper:
        return None
    if adversary.start_round != 0:
        return None
    c = adversary.corrupt_index
    if c not in (0, 1) or adversary._static_corruptions != {c}:
        return None
    v = adversary.known_output
    if not isinstance(v, int) or not 0 <= v <= _VALUE_MASK:
        return None
    # The event depends on the run's inputs (through y_c/y_h and the
    # domain-variant fake tables), so only pinned-input batches vectorize.
    sampler = task.input_sampler
    token = getattr(sampler, "cache_token", None)
    if not (isinstance(token, str) and token.startswith("const:")):
        return None
    inputs = tuple(sampler(None))
    func = protocol.func
    if len(inputs) != func.n_parties or func.n_parties != 2:
        return None
    if not all(isinstance(x, int) for x in inputs):
        return None
    variant = protocol.variant
    if variant == "range":
        if func.output_domain is None or len(func.output_domain) > _MAX_DOMAIN:
            return None
    elif variant == "domain":
        if func.input_domains is None or any(
            d is None or len(d) > _MAX_DOMAIN for d in func.input_domains
        ):
            return None
    else:
        return None

    h = 1 - c
    outputs = func.outputs_for(inputs)
    if not all(
        isinstance(y, int) and 0 <= y <= _VALUE_MASK for y in outputs
    ):
        return None
    y_c = int(outputs[c])
    y_h = int(outputs[h])
    alpha = protocol.alpha
    rounds = protocol.reveal_rounds
    width_c, table_c = _fake_table(func, inputs, variant, c)
    width_h, table_h = _fake_table(func, inputs, variant, h)
    from ....crypto.prf import Rng

    master_seed = Rng(task.seed).seed_bytes
    corruption = frozenset({c})

    def kernel(start: int, stop: int) -> EventCounts:
        n = stop - start
        run_seeds = run_seed_rows(master_seed, start, stop)
        exec_seeds = fork_rows(run_seeds, b"exec")
        sg_seeds = fork_rows(exec_seeds, b"F_sharegen_gk@0")
        i_star = _first_success(
            fork_rows(sg_seeds, b"i_star"), alpha, rounds
        )

        # Scan the corrupted party's fake region for the first value equal
        # to known_output; stream index j = i - 1.
        j_star = np.full(n, -1, dtype=np.int64)
        unresolved = np.ones(n, dtype=bool)
        for i in range(1, rounds):
            active = np.where(unresolved & (i < i_star))[0]
            if not active.size:
                # i only grows, so no unresolved lane can re-enter the
                # fake region once none is in it.
                break
            fakes = _int_sampler_draws(
                sg_seeds[active], b"fake-%d-%d" % (c, i), width_c, table_c
            )
            hits = active[fakes == v]
            j_star[hits] = i - 1
            unresolved[hits] = False
        # Lanes that exhausted the fake region reach the real value y_c.
        if y_c == v:
            real_hits = np.where(unresolved)[0]
            j_star[real_hits] = i_star[real_hits] - 1
            unresolved[real_hits] = False
        no_hit = unresolved

        # Honest party's abort output: fallback before any reveal, else
        # its own last banked (fake) value fake_h(j*).
        honest_ok = np.zeros(n, dtype=bool)
        j0 = np.where(~no_hit & (j_star == 0))[0]
        if j0.size:
            values = _int_sampler_draws(
                sg_seeds[j0], b"fallback-%d" % h, width_h, table_h
            )
            honest_ok[j0] = values == y_h
        prefix = b"/fake-%d-" % h
        pref_arr = np.frombuffer(prefix, dtype=np.uint8)
        remaining = np.where(~no_hit & (j_star >= 1))[0]
        for digits in range(1, len(str(rounds)) + 1):
            lo = 1 if digits == 1 else 10 ** (digits - 1)
            hi = 10 ** digits
            sel = remaining[(j_star[remaining] >= lo) & (j_star[remaining] < hi)]
            if not sel.size:
                continue
            tails = np.empty((sel.size, pref_arr.size + digits), dtype=np.uint8)
            tails[:, : pref_arr.size] = pref_arr
            tails[:, pref_arr.size:] = _ascii_digits(j_star[sel], digits)
            rng_seeds = sha256_batch(rows_with_rows(sg_seeds[sel], tails))
            values = table_h[randrange_rows(rng_seeds, width_h)]
            honest_ok[sel] = values == y_h

        learned = np.zeros(n, dtype=bool)
        learned[~no_hit] = (j_star == i_star - 1)[~no_hit]
        learned[no_hit] = True
        honest_ok[no_hit] = True

        codes = learned.astype(np.int64) * 2 + honest_ok.astype(np.int64)
        tally = np.bincount(codes, minlength=4)
        counts = EventCounts()
        for code, event in enumerate(_EVENT_BY_CODE):
            if tally[code]:
                counts.counts[event] += int(tally[code])
        counts.corruption_counts[corruption] = n
        return counts

    kernel.min_lanes = LANE_CROSSOVER
    return kernel
