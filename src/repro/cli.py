"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``zoo``            list the implemented protocols and attack strategies
``compare``        place named protocols in the ⪯γ fairness order
``attack``         measure one protocol's best attacker and event mix
``balance``        per-t utility profile + utility-balance verdict
``reconstruction`` measure a protocol's reconstruction rounds
``curve``          per-t utility curves for two protocols + crossover
``profile``        cProfile a small batch and print the top hotspots
``verify``         check the registered paper claims (E1–E21) and exit
                   0 (all ok) / 1 (violated) / 2 (bad claim spec)
``serve``          serve the whole experiment surface as a JSON-RPC job
                   API with content-addressed dedupe, streaming partial
                   RunStats, and per-tenant rate limits
                   (``repro serve --listen HOST:PORT``)

All measurements are Monte-Carlo; ``--runs`` and ``--seed`` control the
budget and reproducibility, and ``--jobs`` (or the ``REPRO_JOBS``
environment variable) fans batches out over forked worker processes on
this host without changing any result.  ``--max-retries`` and
``--chunk-timeout`` tune the runtime's failure semantics (failed or
stalled chunks are re-executed, bit-identically, before degrading to
in-process replay), and ``--stats`` appends a JSON dump of every batch's
``RunStats`` — including retry and degradation counters, per-phase
timings, and cache traffic — after the command output.  ``--cache DIR``
(or ``REPRO_CACHE_DIR``) enables the persistent chunk-result cache:
re-running a sweep with the same protocol, strategies and seed replays
stored chunk partials bit-identically instead of recomputing them.
``--journal DIR`` (or ``REPRO_JOURNAL_DIR``) enables the crash-safe run ledger: every
completed chunk partial is stored, and every run replays the spans
``DIR`` already holds instead of recomputing them, so rerunning an
interrupted command with the same ``--journal`` resumes it — the result
is byte-identical to an uninterrupted run.  A process crash loses
nothing recorded; a machine crash may cost recomputation, never a wrong
answer.  ``--backend`` selects the
execution engine: ``auto`` (default) hands the chunks of an eligible
(protocol, strategy) combination to its vectorized chunk kernel and
runs everything else on the reference state machine, ``reference``
forces the state machine, ``vectorized`` asserts eligibility and fails
loudly on any non-vectorizable task or kernel failure — all three
produce bit-identical results.  ``--chunk-size`` pins the chunk size
instead of deriving it from ``--runs``.  The ``REPRO_*`` environment
knobs are the rows of ``runtime.config.KNOBS``; an unknown one is an
error.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict, List

from .adversaries import (
    LockWatchingAborter,
    fixed,
    strategy_space_for_protocol,
)
from .analysis import (
    assess_protocol,
    balance_profile,
    build_order,
    crossover,
    format_table,
    measure_reconstruction_rounds,
    save_json,
    utility_curve,
)
from .analysis import run_stats_to_dict
from .core import (
    PayoffVector,
    balanced_sum_bound,
    is_utility_balanced,
    monte_carlo_tolerance,
)
from .functions import make_concat, make_contract_exchange, make_swap
from .runtime import RetryPolicy, resolve_cache, resolve_journal, resolve_runner
from .runtime.config import KNOBS, check_environment, knob, positive


def _protocol_registry(n: int) -> Dict[str, object]:
    """Name → freshly built protocol, for the CLI's --protocol flags."""
    from .gmw import ThresholdGmwProtocol
    from .protocols import (
        CoinOrderedContractSigning,
        DummyProtocol,
        GordonKatzProtocol,
        IdealCoinContractSigning,
        NaiveContractSigning,
        Opt2SfeProtocol,
        OptNSfeProtocol,
        SingleRoundProtocol,
        UnbalancedOptProtocol,
    )
    from .functions import make_and

    def _gradual_release(spec):
        from .protocols.gradual_release import GradualReleaseProtocol

        return GradualReleaseProtocol(spec)

    swap = make_swap(16)
    registry = {
        "pi1": NaiveContractSigning(make_contract_exchange(16)),
        "pi2": CoinOrderedContractSigning(make_contract_exchange(16)),
        "pi2-ideal-coin": IdealCoinContractSigning(make_contract_exchange(16)),
        "opt-2sfe": Opt2SfeProtocol(swap),
        "single-round": SingleRoundProtocol(swap),
        "gradual-release": _gradual_release(swap),
        "dummy": DummyProtocol(swap),
        "gk-and-p2": GordonKatzProtocol(make_and(), p=2),
        "gk-and-p4": GordonKatzProtocol(make_and(), p=4),
    }
    if n >= 3:
        concat = make_concat(n, 8)
        registry["opt-nsfe"] = OptNSfeProtocol(concat)
        registry["gmw-threshold"] = ThresholdGmwProtocol(concat)
        registry["unbalanced-opt"] = UnbalancedOptProtocol(concat)
    return registry


def _parse_gamma(text: str) -> PayoffVector:
    parts = [float(x) for x in text.split(",")]
    if len(parts) != 4:
        raise argparse.ArgumentTypeError(
            "gamma must be four comma-separated values γ00,γ01,γ10,γ11"
        )
    vec = PayoffVector(*parts)
    if not vec.in_gamma_fair():
        raise argparse.ArgumentTypeError(f"{vec} is not in Γfair")
    return vec


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Utility-based protocol fairness (PODC'15) measurements",
    )
    parser.add_argument("--runs", type=int, default=400, help="Monte-Carlo runs")
    parser.add_argument("--seed", default="cli", help="random seed")
    parser.add_argument(
        "--jobs",
        type=KNOBS["REPRO_JOBS"].parse,
        default=None,
        help="forked worker processes for Monte-Carlo batches on this "
        "host (default: $REPRO_JOBS or 1; 0 or auto = every CPU this "
        "process may run on)",
    )
    parser.add_argument(
        "--max-retries",
        type=KNOBS["REPRO_MAX_RETRIES"].parse,
        default=None,
        help="in-pool retries per failed chunk before degrading to "
        "in-process replay (default: $REPRO_MAX_RETRIES or 2)",
    )
    parser.add_argument(
        "--chunk-timeout",
        type=float,
        default=None,
        help="per-chunk wall-clock deadline in seconds for pool backends "
        "(default: no deadline)",
    )
    parser.add_argument(
        "--cache",
        default=None,
        metavar="DIR",
        help="persistent chunk-result cache directory (default: "
        "$REPRO_CACHE_DIR or no cache); identical (protocol, strategy, "
        "seed, span) chunks are replayed from disk",
    )
    parser.add_argument(
        "--journal",
        default=None,
        metavar="DIR",
        help="crash-safe run-ledger directory (default: $REPRO_JOURNAL_DIR "
        "or no journal); every completed chunk partial is stored there "
        "and replayed by later runs, so rerunning an interrupted command "
        "with the same directory resumes it; a process crash loses "
        "nothing recorded, a machine crash may cost recomputation, never "
        "a wrong answer",
    )
    parser.add_argument(
        "--backend",
        choices=("auto", "reference", "vectorized"),
        default=None,
        help="execution backend for Monte-Carlo chunks (default: "
        "auto); 'auto' uses the vectorized chunk "
        "kernels for eligible (protocol, strategy) combinations and "
        "the state machine for the rest, 'vectorized' asserts "
        "eligibility, 'reference' always steps the state machine",
    )
    parser.add_argument(
        "--chunk-size",
        type=int,
        default=None,
        metavar="N",
        help="runs per chunk (default: derived from the run count)",
    )
    parser.add_argument(
        "--stats",
        action="store_true",
        help="dump each batch's RunStats (throughput + retry/degradation "
        "counters) as JSON after the command output",
    )
    parser.add_argument(
        "--gamma",
        type=_parse_gamma,
        default=PayoffVector(0.0, 0.0, 1.0, 0.5),
        help="payoff vector γ00,γ01,γ10,γ11 (default 0,0,1,0.5)",
    )
    parser.add_argument(
        "--parties", type=int, default=5, help="n for multi-party protocols"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("zoo", help="list protocols and strategies")

    compare = sub.add_parser("compare", help="order protocols by fairness")
    compare.add_argument("protocols", nargs="+", help="protocol names")

    attack = sub.add_parser("attack", help="best attacker of one protocol")
    attack.add_argument("protocol")

    balance = sub.add_parser("balance", help="per-t profile + balance verdict")
    balance.add_argument("protocol")

    recon = sub.add_parser(
        "reconstruction", help="measure reconstruction rounds"
    )
    recon.add_argument("protocol")

    curve = sub.add_parser("curve", help="per-t curves of two protocols")
    curve.add_argument("protocol_a")
    curve.add_argument("protocol_b")

    prof = sub.add_parser(
        "profile",
        help="cProfile a small serial batch and print the top hotspots",
    )
    prof.add_argument(
        "protocol",
        nargs="?",
        default="opt-2sfe",
        help="protocol to profile (default opt-2sfe)",
    )
    prof.add_argument(
        "--top",
        type=int,
        default=12,
        help="number of hotspot rows to print (default 12)",
    )

    verify = sub.add_parser(
        "verify",
        help="evaluate the registered paper claims against their "
        "Monte-Carlo measurements",
    )
    verify.add_argument(
        "--claims",
        default="all",
        help="comma-separated claim ids (E10-stop) or experiment ids "
        "(E2,E3); default: all",
    )
    verify.add_argument(
        "--budget",
        default="small",
        help="run-count budget: small / medium / large, or an integer "
        "target for a nominal 200-run claim (default small)",
    )
    verify.add_argument(
        "--json",
        default=None,
        metavar="OUT",
        dest="json_out",
        help="write the full verification artifact (verdicts, CIs, seeds, "
        "chunk spans) as JSON",
    )
    # Accepted after the subcommand too (``repro verify --jobs 2``);
    # SUPPRESS keeps the subparser from clobbering a pre-subcommand value.
    verify.add_argument(
        "--jobs",
        type=KNOBS["REPRO_JOBS"].parse,
        default=argparse.SUPPRESS,
        help=argparse.SUPPRESS,
    )
    verify.add_argument(
        "--backend",
        choices=("auto", "reference", "vectorized"),
        default=argparse.SUPPRESS,
        help=argparse.SUPPRESS,
    )
    verify.add_argument(
        "--journal",
        default=argparse.SUPPRESS,
        help=argparse.SUPPRESS,
    )
    verify.add_argument(
        "--chunk-size",
        type=int,
        default=argparse.SUPPRESS,
        help=argparse.SUPPRESS,
    )

    serve_cmd = sub.add_parser(
        "serve",
        help="serve the whole experiment surface as a JSON-RPC job API "
        "(estimate_utility, sweep_strategies, verify_claims)",
    )
    serve_cmd.add_argument(
        "--listen",
        default="127.0.0.1:0",
        metavar="HOST:PORT",
        help="address to listen on (default 127.0.0.1:0 — port 0 lets "
        "the OS pick; the chosen port is announced on stdout as JSON "
        "and reported by the service.info method)",
    )
    serve_cmd.add_argument(
        "--service-workers",
        type=int,
        default=2,
        metavar="N",
        help="run N jobs at once, each in its own job process with a "
        "fresh batch runner built from the global runner flags "
        "(default 2)",
    )

    return parser


def _get(registry, name: str):
    if name not in registry:
        raise SystemExit(
            f"unknown protocol {name!r}; available: {', '.join(sorted(registry))}"
        )
    return registry[name]


def cmd_zoo(args, registry) -> str:
    rows = [
        [name, p.name, p.n_parties, p.max_rounds]
        for name, p in sorted(registry.items())
    ]
    return format_table(["id", "protocol", "parties", "max rounds"], rows)


def cmd_compare(args, registry) -> str:
    assessments = []
    for name in args.protocols:
        protocol = _get(registry, name)
        space = strategy_space_for_protocol(protocol)
        assessments.append(
            assess_protocol(
                protocol,
                space,
                args.gamma,
                args.runs,
                seed=(args.seed, name),
                runner=args.runner,
            )
        )
    order = build_order(
        assessments,
        tolerance=monte_carlo_tolerance(args.runs, spread=args.gamma.gamma10),
    )
    return order.render()


def cmd_attack(args, registry) -> str:
    protocol = _get(registry, args.protocol)
    space = strategy_space_for_protocol(protocol)
    assessment = assess_protocol(
        protocol, space, args.gamma, args.runs, seed=args.seed, runner=args.runner
    )
    best = assessment.best_attack
    lines = [
        f"protocol: {protocol.name}",
        f"strategies swept: {len(space)}",
        f"best attacker: {best.adversary}",
        f"sup utility: {best.mean:.4f}  [{best.ci_low:.4f}, {best.ci_high:.4f}]",
        "event mix: "
        + ", ".join(
            f"{e.name}={p:.3f}" for e, p in best.event_distribution.items() if p
        ),
    ]
    return "\n".join(lines)


def cmd_balance(args, registry) -> str:
    protocol = _get(registry, args.protocol)
    n = protocol.n_parties
    if n < 3:
        raise SystemExit("balance analysis needs a multi-party protocol")
    gamma = args.gamma.require_fair_plus()
    factories = {
        t: [fixed(f"lw{t}", lambda t=t: LockWatchingAborter(set(range(t))))]
        for t in range(1, n)
    }
    profile = balance_profile(
        protocol, factories, gamma, args.runs, args.seed, runner=args.runner
    )
    rows = [[t, f"{profile.per_t[t].mean:.4f}"] for t in range(1, n)]
    tol = (n - 1) * monte_carlo_tolerance(args.runs, spread=gamma.gamma10)
    verdict = is_utility_balanced(profile, tol=tol)
    return "\n".join(
        [
            format_table(["t", "u(Π, A_t)"], rows),
            f"sum = {profile.utility_sum:.4f}  "
            f"(balanced optimum {balanced_sum_bound(n, gamma):.4f})",
            f"utility-balanced: {verdict}",
        ]
    )


def cmd_reconstruction(args, registry) -> str:
    protocol = _get(registry, args.protocol)
    m = measure_reconstruction_rounds(
        protocol, n_runs=args.runs, seed=args.seed, runner=args.runner
    )
    rows = [[r, f"{p:.3f}"] for r, p in sorted(m.unfair_probability.items())]
    return "\n".join(
        [
            format_table(["abort round", "max Pr[E10]"], rows),
            f"honest rounds: {m.honest_rounds}",
            f"reconstruction rounds: {m.reconstruction_rounds}",
        ]
    )


def cmd_curve(args, registry) -> str:
    a = _get(registry, args.protocol_a)
    b = _get(registry, args.protocol_b)
    if a.n_parties != b.n_parties:
        raise SystemExit("protocols must have the same party count")
    gamma = args.gamma.require_fair_plus()
    curve_a = utility_curve(
        a, gamma, args.runs, seed=(args.seed, "a"), runner=args.runner
    )
    curve_b = utility_curve(
        b, gamma, args.runs, seed=(args.seed, "b"), runner=args.runner
    )
    rows = [
        [t, f"{curve_a.value(t):.4f}", f"{curve_b.value(t):.4f}"]
        for t in sorted(curve_a.points)
    ]
    cross = crossover(curve_a, curve_b)
    verdict = (
        f"{a.name} is at least as fair at every corruption budget"
        if cross is None
        else f"first corruption budget where {b.name} is the safer choice: t = {cross}"
    )
    return "\n".join(
        [format_table(["t", a.name, b.name], rows), verdict]
    )


def cmd_profile(args, registry) -> str:
    """cProfile a small serial batch of the protocol's strategy sweep.

    Always runs in-process (a pool would hide worker time from the
    profiler) and without any chunk store, whatever ``--cache`` or
    ``REPRO_CACHE_DIR`` say (a cache hit would profile the entry decoder
    instead of the protocol).
    """
    import cProfile
    import io
    import pstats

    from .runtime import ExecutionTask, SerialRunner

    protocol = _get(registry, args.protocol)
    space = strategy_space_for_protocol(protocol)
    tasks = [
        ExecutionTask(
            protocol, factory, args.runs, seed=(args.seed, factory.name)
        )
        for factory in space
    ]
    runner = SerialRunner(backend=args.backend)
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        runner.run(tasks)
    finally:
        profiler.disable()

    stats = pstats.Stats(profiler, stream=io.StringIO())
    stats.sort_stats("cumulative")
    rows = []
    for func, (cc, nc, tottime, cumtime, _callers) in sorted(
        stats.stats.items(), key=lambda kv: kv[1][3], reverse=True
    ):
        filename, lineno, name = func
        if filename.startswith("<") or "cProfile" in filename:
            continue
        short = "/".join(filename.split("/")[-2:])
        rows.append(
            [
                f"{short}:{lineno}({name})",
                nc,
                f"{tottime:.4f}",
                f"{cumtime:.4f}",
            ]
        )
        if len(rows) >= max(1, args.top):
            break
    run_stats = runner.last_stats
    lines = [
        f"protocol: {protocol.name}  "
        f"({len(space)} strategies x {args.runs} runs, serial)",
        format_table(["function", "calls", "tottime", "cumtime"], rows),
        (
            f"phases: setup {run_stats.setup_s:.3f}s, "
            f"execute {run_stats.execute_s:.3f}s, "
            f"classify {run_stats.classify_s:.3f}s "
            f"(total wall {run_stats.wall_clock_s:.3f}s)"
        ),
        (
            f"setup memos: {run_stats.memo_hits} hits, "
            f"{run_stats.memo_misses} misses"
        ),
        (
            f"execution backend: {run_stats.execution_backend} "
            f"({run_stats.vectorized_runs} vectorized runs)"
        ),
    ]
    lines.append(_cost_model_table(protocol, args.seed))
    return "\n".join(lines)


def _cost_model_table(protocol, seed) -> str:
    """Predicted-vs-measured honest transcript costs for one protocol.

    The prediction side is the symbolic cost model
    (``analysis.symbolic_cost.evaluate``); the measured side is an
    8-run honest-execution average (``analysis.measure_cost``).  Any
    nonzero error column is a model/engine drift the E21 claims would
    flag — this table makes it visible without running ``repro verify``.
    """
    from .analysis import measure_cost
    from .analysis.symbolic_cost import evaluate, model_for

    if model_for(protocol) is None:
        return (
            f"cost model: none registered for {type(protocol).__name__} — "
            "predicted-vs-measured table skipped"
        )
    predicted = evaluate(protocol)
    measured = measure_cost(protocol, n_runs=8, seed=(seed, "cost-model"))
    pairs = [
        ("rounds", predicted.rounds, measured.rounds),
        (
            "p2p messages",
            predicted.point_to_point_messages,
            measured.point_to_point_messages,
        ),
        ("broadcasts", predicted.broadcasts, measured.broadcasts),
        (
            "functionality responses",
            predicted.functionality_responses,
            measured.functionality_responses,
        ),
    ]
    rows = [
        [quantity, pred, f"{meas:g}", f"{meas - pred:+g}"]
        for quantity, pred, meas in pairs
    ]
    return format_table(
        ["honest cost", "predicted", "measured", "error"], rows
    )


def cmd_verify(args, registry):
    """Run the claims registry; exit 0/1/2 per the verification verdict.

    Returns ``(text, exit_code)`` — the only command whose exit code
    carries meaning beyond success, so ``main`` special-cases tuples.
    """
    from .verify import ClaimConfigError, verify_claims

    try:
        report = verify_claims(
            args.claims,
            budget=args.budget,
            seed=args.seed,
            runner=args.runner,
        )
    except ClaimConfigError as exc:
        # Exit 2 = configuration error, matching argparse's own usage
        # errors and distinct from exit 1 (a claim actually violated).
        print(f"repro verify: {exc}", file=sys.stderr)
        raise SystemExit(2)
    lines = [str(report)]
    if args.json_out:
        path = save_json(report, args.json_out)
        lines.append(f"artifact written: {path}")
    return "\n".join(lines), report.exit_code


def _parse_listen(text: str):
    """Split a ``--listen HOST:PORT`` value (port 0 = OS-assigned)."""
    host, sep, port = text.rpartition(":")
    if not sep or not host:
        raise SystemExit(f"--listen must be HOST:PORT, got {text!r}")
    try:
        port = int(port)
    except ValueError:
        raise SystemExit(f"--listen port must be an integer, got {port!r}")
    return host, port


def cmd_serve(args, registry) -> str:
    """Run the fairness service until interrupted.

    Each job executes in one of the ``--service-workers`` job processes,
    on a fresh runner built from the same global flags every other
    command honours (``--jobs``, ``--cache``, ``--backend``, ...), so a
    service job and the equivalent CLI invocation share chunk-cache
    entries and produce byte-identical ``deterministic_payload``s.
    """
    from .service import ServiceServer

    host, port = _parse_listen(args.listen)
    if args.service_workers < 1:
        raise SystemExit(
            f"--service-workers must be positive, got {args.service_workers}"
        )

    def runner_factory():
        return _build_runner(args)

    try:
        server = ServiceServer(
            host, port,
            runner_factory=runner_factory,
            workers=args.service_workers,
        )
        server.bind()
    except OSError as exc:
        raise SystemExit(f"repro: cannot bind {host}:{port}: {exc}")
    server.announce()
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.shutdown(drain=True)
    return ""


COMMANDS = {
    "zoo": cmd_zoo,
    "compare": cmd_compare,
    "attack": cmd_attack,
    "balance": cmd_balance,
    "reconstruction": cmd_reconstruction,
    "curve": cmd_curve,
    "profile": cmd_profile,
    "verify": cmd_verify,
    "serve": cmd_serve,
}


def _build_runner(args):
    """One runner for the whole command, so ``--stats`` sees every batch."""
    # The edge check: an unknown REPRO_* variable, or a garbage or
    # out-of-range knob from the environment or a flag, raises a
    # ValueError naming its variable or flag; at the CLI surface that is
    # a one-line usage error.  The service knobs are checked here too.
    try:
        check_environment()
        retry = RetryPolicy(
            max_retries=knob(
                "REPRO_MAX_RETRIES", args.max_retries, "--max-retries"
            ),
            chunk_timeout_s=positive(args.chunk_timeout, "--chunk-timeout"),
        )
        return resolve_runner(
            knob("REPRO_JOBS", args.jobs, "--jobs"),
            chunk_size=positive(args.chunk_size, "--chunk-size"),
            retry=retry,
            cache=resolve_cache(args.cache),
            backend=args.backend,
            journal=resolve_journal(args.journal),
        )
    except ValueError as exc:
        raise SystemExit(f"repro: {exc}")


def main(argv: List[str] = None) -> int:
    args = build_parser().parse_args(argv)
    args.runner = _build_runner(args)
    registry = _protocol_registry(args.parties)
    result = COMMANDS[args.command](args, registry)
    # Commands whose exit code carries meaning (``verify``) return
    # (text, code); the rest return plain text and exit 0.
    text, code = result if isinstance(result, tuple) else (result, 0)
    print(text)
    if args.stats:
        history = [run_stats_to_dict(s) for s in args.runner.stats_history]
        print(json.dumps(history, indent=2, sort_keys=True))
    return code
