"""Start-up guard: a ``repro`` process must not load sympy.

sympy's import alone costs seconds on a cold interpreter, and no run
needs it: the cost models are integer arithmetic, and the package has
no runtime dependency.  These tests start a fresh interpreter so an
``import sympy`` anywhere in the package (or its imports) shows up
here.  "Loaded" means a module object in ``sys.modules``; a ``None``
entry (how an import is blocked) counts as not loaded.
"""

LOADED = "sys.modules.get('sympy') is not None"


def test_importing_the_entry_points_does_not_load_sympy(fresh_python):
    out = fresh_python(
        "import sys\n"
        "import repro.cli, repro.service, repro.verify\n"
        f"print({LOADED})\n"
    )
    assert out.strip() == "False"


def test_verifying_e21_does_not_load_sympy(fresh_python):
    out = fresh_python(
        "import sys\n"
        "import repro.cli\n"
        "code = repro.cli.main(\n"
        "    ['verify', '--claims', 'E21', '--budget', 'small'])\n"
        f"print(code, {LOADED})\n"
    )
    *report, last = out.strip().splitlines()
    assert last == "0 False"
    assert "6 claims: 6 ok" in report[-1]
