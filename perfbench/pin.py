"""Regenerate ``pins.json``: serial-reference digests of every workload input.

Run from the repository root::

    python3 perfbench/pin.py [verify] [serve] [--procs 2]

Verify workloads: for each candidate verify seed, every claim of each
verify workload is run in-process on a ``SerialRunner`` with the default
backend; seeds on which any claim is not verified are skipped, so no
pinned input makes ``repro verify`` exit non-zero.  ``serve-mix``: every
catalogue job (see ``servemix``) is run in-process through the service's
own method table on a ``SerialRunner``.

Only rerun this when a change is *meant* to alter a deterministic payload;
the benchmark counts any digest that differs from its pin as a failure.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import servemix  # noqa: E402
from payload import PINS_PATH, claim_digests, deterministic_payload, digest  # noqa: E402
from workloads import VERIFY_CONFIGS, VERIFY_SEED_COUNT  # noqa: E402


def _verify_task(item):
    from repro.analysis.export import report_to_dict
    from repro.runtime import SerialRunner
    from repro.verify import verify_claims

    name, seed = item
    config = VERIFY_CONFIGS[name]
    report = verify_claims(
        config["claims"], budget=config["budget"], seed=seed,
        runner=SerialRunner(),
    )
    return name, seed, report.exit_code, claim_digests(report_to_dict(report))


def _serve_task(ref):
    from repro.runtime import SerialRunner
    from repro.service import canonical, methods

    kind, slot, variant = ref
    method, spec = servemix.SPECS[kind]
    if kind == "fresh":
        params = [spec(slot, variant, extended) for extended in (False, True)]
    else:
        params = [spec(slot, variant)]
    digests = [
        digest(deterministic_payload(methods.run_method(
            method, SerialRunner(), canonical.canonicalize(method, p))))
        for p in params
    ]
    return ref, digests if kind == "fresh" else digests[0]


def _pin_verify(pool, candidates: int) -> dict:
    pins = {name: {} for name in VERIFY_CONFIGS}
    items = [(name, f"perfbench-{k}")
             for k in range(candidates) for name in VERIFY_CONFIGS]
    first = next(iter(VERIFY_CONFIGS))
    results = {}
    for name, seed, code, digests in pool.imap_unordered(_verify_task, items):
        results[(name, seed)] = (code, digests)
        print(f"verify {name} {seed}: exit {code}", file=sys.stderr)
    for k in range(candidates):
        seed = f"perfbench-{k}"
        if all(results[(n, seed)][0] == 0 for n in VERIFY_CONFIGS):
            for name in VERIFY_CONFIGS:
                pins[name][seed] = results[(name, seed)][1]
        if len(pins[first]) == VERIFY_SEED_COUNT:
            return pins
    raise SystemExit(f"only {len(pins[first])} clean verify seeds among "
                     f"{candidates}; raise --candidates")


def _pin_serve(pool) -> dict:
    pins = {kind: [[None] * servemix.N_VARIANTS for _ in range(n)]
            for kind, n in servemix.SLOTS.items()}
    items = [(kind, slot, variant)
             for kind, n in servemix.SLOTS.items()
             for slot in range(n)
             for variant in range(servemix.N_VARIANTS)]
    for (kind, slot, variant), value in pool.imap_unordered(
        _serve_task, items, chunksize=8
    ):
        pins[kind][slot][variant] = value
    return pins


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("sections", nargs="*", choices=("verify", "serve"),
                        default=["verify", "serve"],
                        help="pin tables to regenerate (default: both)")
    parser.add_argument("--procs", type=int, default=2)
    parser.add_argument("--candidates", type=int, default=24,
                        help="verify seeds to try (default 24)")
    args = parser.parse_args(argv)
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    import repro.cli  # noqa: F401  (import once, before forking)

    pins = json.loads(PINS_PATH.read_text()) if PINS_PATH.exists() else {}
    with multiprocessing.get_context("fork").Pool(args.procs) as pool:
        if "verify" in args.sections:
            pins["verify"] = _pin_verify(pool, args.candidates)
        if "serve" in args.sections:
            pins["serve"] = _pin_serve(pool)
    PINS_PATH.write_text(
        json.dumps(pins, sort_keys=True, separators=(",", ":")) + "\n"
    )
    print(f"wrote {PINS_PATH}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
