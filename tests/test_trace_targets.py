"""The benchmark tracer's targets exist in the package and are reached.

perfbench/trace_cli.py wraps functions by (module, attribute path) and counts
Frac operators and the polynomial gcd.  This reads its tables, without
editing the tracer, so that a rename shows up in the tier-1 tests, and runs
it once on ``verify all`` to check that the verify path calls the traced
names.
"""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

from specialortho import scalars
from specialortho.scalars import Frac

TRACE_CLI = Path(__file__).resolve().parents[1] / "perfbench" / "trace_cli.py"


def load_trace_cli():
    spec = importlib.util.spec_from_file_location("perfbench_trace_cli", TRACE_CLI)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_span_target_resolves():
    trace_cli = load_trace_cli()
    for name, targets in trace_cli.SPANS.items():
        for module_name, path in targets:
            owner = importlib.import_module("specialortho." + module_name)
            for part in path.split("."):
                owner = getattr(owner, part, None)
                assert owner is not None, f"{name}: {module_name}.{path} is missing"
            assert callable(owner), f"{name}: {module_name}.{path} is not callable"


def test_counted_scalar_operations_exist():
    trace_cli = load_trace_cli()
    for name, methods in trace_cli.FRAC_OPS.items():
        for method in methods:
            assert callable(getattr(Frac, method, None)), f"{name}: Frac.{method}"
    assert callable(scalars._p_gcd)


def test_verify_all_enters_every_span_but_export():
    trace_cli = load_trace_cli()
    env = {**os.environ, "PYTHONPATH": str(TRACE_CLI.parents[1] / "src")}
    args = ["verify", "all", "--json", "--at", "l1=2,l2=3,l3=-5", "--alpha", "2"]
    done = subprocess.run(
        [sys.executable, str(TRACE_CLI), *args], capture_output=True, text=True, env=env
    )
    assert done.returncode == 0, done.stderr
    lines = [l for l in done.stderr.splitlines() if l.startswith(trace_cli.TRACE_TAG)]
    assert len(lines) == 1
    calls = json.loads(lines[0][len(trace_cli.TRACE_TAG):])["calls"]
    # one graded Jacobi scan and one form scan per assembled superalgebra
    assert calls["superalg.super_jacobi"] == 3
    assert calls["superalg.form_invariance"] == 3
    missing = [n for n in trace_cli.SPANS if n != "superalg.export" and not calls.get(n)]
    assert missing == []
