"""Run one ``repro`` command in this interpreter with the layer tracer on.

Usage (``src`` on ``PYTHONPATH``)::

    python3 perfbench/launch.py TRACE.json -- <repro arguments>

Times the import of ``repro.cli``, installs :class:`tracer.Tracer`, runs
``repro.cli.main`` with the given arguments (the same code path as
``python -m repro``), then writes the tracer's report, the import time
and the setup-memo counters to ``TRACE.json``.  The trace id is taken
from ``PERFBENCH_TRACE_ID``.  Exits with the command's exit code.
"""

import json
import os
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracer import Tracer  # noqa: E402


def memo_counters() -> dict:
    """Setup-memo hits and misses of this process, where the program
    still exposes them."""
    totals = {"hits": 0, "misses": 0}
    found = []
    for module_name in ("repro.crypto.field", "repro.circuits.compiler"):
        try:
            module = __import__(module_name, fromlist=["memo_counters"])
            counters = module.memo_counters()
        except (ImportError, AttributeError):
            continue
        found.append(module_name)
        totals["hits"] += counters["hits"]
        totals["misses"] += counters["misses"]
    totals["sources"] = found
    return totals


def main() -> int:
    out, sep, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    if sep != "--":
        raise SystemExit("usage: launch.py TRACE.json -- <repro arguments>")
    t_import = time.perf_counter()
    import repro.cli

    import_s = time.perf_counter() - t_import
    tracer = Tracer(trace_id=os.environ.get("PERFBENCH_TRACE_ID", "run"))
    launcher_pid = os.getpid()
    tracer.install()
    code = 0
    try:
        code = repro.cli.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
    finally:
        tracer.uninstall()
        if os.getpid() == launcher_pid:
            report = tracer.report()
            report["import_s"] = import_s
            report["memo"] = memo_counters()
            Path(out).write_text(json.dumps(report))
    return code


if __name__ == "__main__":
    sys.exit(main())
