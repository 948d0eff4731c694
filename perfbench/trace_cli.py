"""Run one specialortho command in-process with layer spans and counters.

    PYTHONPATH=src python3 perfbench/trace_cli.py verify all

The command's stdout and exit code are exactly those of the command line.
After the command returns, one line holding the per-layer numbers as JSON
goes to stderr, prefixed by TRACE_TAG.

Spans wrap calls into each module's public functions from outside; nothing
in the program is edited. A span's self time is its duration minus the
durations of the spans it encloses. Frac arithmetic and the polynomial gcd
are counted, not timed, so their time stays in the self time of the
enclosing span.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

TRACE_TAG = "perfbench-trace "

# metric prefix -> functions (module, attribute path) timed as that span
SPANS = {
    "octonions.build_algebra": [("octonions", "build_algebra")],
    # CliffordAlgebra builds lazily: the constructor is trivial and the
    # monomial and spin-matrix work happens in the methods the rep builders call
    "clifford.build": [
        ("clifford", "CliffordAlgebra.__init__"),
        ("clifford", "CliffordAlgebra.g2_kernel"),
        ("clifford", "CliffordAlgebra.spinor_action"),
    ],
    "quadlie.build_g2_rep": [("quadlie", "build_g2_rep")],
    "quadlie.build_spinor_rep": [("quadlie", "build_spinor_rep")],
    "family.build_family": [("family", "build_family")],
    "quadlie.covariants": [("quadlie", "covariants")],
    "altmap.evaluate": [("altmap", "AltMap.evaluate")],
    "linalg.det": [("linalg", "det")],
    "altmap.wedge_rel": [("altmap", "wedge_rel")],
    "altmap.compose": [("altmap", "compose")],
    "altmap.hodge_dual": [("altmap", "hodge_dual")],
    "superalg.super_jacobi": [("superalg", "SuperAlgebra.super_jacobi_check")],
    "superalg.form_invariance": [("superalg", "SuperAlgebra.form_invariance_witness")],
    "superalg.build_tilde": [("superalg", "build_tilde")],
    "superalg.export": [("superalg", "export_superalgebra")],
    "scalars.solve_linear": [("scalars", "solve_linear")],
}

# metric prefix -> Frac methods counted under it
FRAC_OPS = {
    "scalars.mul": ("__mul__", "__rmul__"),
    "scalars.add": ("__add__", "__radd__"),
    "scalars.div": ("__truediv__", "__rtruediv__"),
}


class Tracer:
    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        # one entry per open span: time spent in the spans it encloses
        self.enclosed = [0.0]
        self.operands = [0, 0]  # Frac operands seen, of which not constant

    def span(self, name: str, fn):
        self_s, calls, enclosed, clock = self.self_s, self.calls, self.enclosed, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            enclosed.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                self_s[name] += dt - enclosed.pop()
                enclosed[-1] += dt
                calls[name] += 1

        return wrapper

    def count(self, name: str, fn):
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    def count_frac_op(self, name: str, fn, frac_type):
        calls, operands, is_constant = self.calls, self.operands, frac_type.is_constant

        @functools.wraps(fn)
        def wrapper(a, b):
            calls[name] += 1
            operands[0] += 2
            if not is_constant(a):
                operands[1] += 1
            if type(b) is frac_type and not is_constant(b):
                operands[1] += 1
            return fn(a, b)

        return wrapper


def _resolve(module, path: str):
    owner = module
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr


def install(tracer: Tracer) -> None:
    """Replace every reference to a traced function in the loaded package."""
    import specialortho.suites as suites
    from specialortho.scalars import Frac

    modules = [m for n, m in sys.modules.items() if n.startswith("specialortho.")]
    replacements = {}
    for name, targets in SPANS.items():
        for module_name, path in targets:
            owner, attr = _resolve(sys.modules["specialortho." + module_name], path)
            original = getattr(owner, attr)
            replacements[id(original)] = tracer.span(name, original)
            setattr(owner, attr, replacements[id(original)])
    for module in modules:
        for attr, value in list(vars(module).items()):
            if callable(value) and id(value) in replacements:
                setattr(module, attr, replacements[id(value)])
    for suite, runner in list(suites._SUITES.items()):
        suites._SUITES[suite] = tracer.span(f"suites.{suite}", runner)
    for name, methods in FRAC_OPS.items():
        for method in methods:
            setattr(Frac, method, tracer.count_frac_op(name, getattr(Frac, method), Frac))
    scalars = sys.modules["specialortho.scalars"]
    scalars._p_gcd = tracer.count("scalars.gcd", scalars._p_gcd)


def main(argv: list[str]) -> int:
    t0 = time.perf_counter()
    import specialortho.cli as cli

    import_s = time.perf_counter() - t0
    tracer = Tracer()
    install(tracer)
    t0 = time.perf_counter()
    try:
        code = cli.main(argv)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code if isinstance(exc.code, int) else 2
    main_s = time.perf_counter() - t0
    sys.stdout.flush()
    trace = {
        "import_s": import_s,
        "main_s": main_s,
        "uncovered_s": main_s - tracer.enclosed[0],
        "self_s": tracer.self_s,
        "calls": tracer.calls,
        "operands": tracer.operands[0],
        "nonconstant": tracer.operands[1],
    }
    sys.stderr.write(TRACE_TAG + json.dumps(trace) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
