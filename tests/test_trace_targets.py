"""The benchmark tracer's targets exist in the package.

perfbench/trace_cli.py wraps functions by (module, attribute path) and counts
Frac operators and the polynomial gcd.  This reads its tables, without
editing or running the tracer, so that a rename shows up in the tier-1 tests.
"""

import importlib
import importlib.util
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
