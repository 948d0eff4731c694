"""Every function of the package has a caller: a CLI command or a named reason.

The guard runs the benchmark's commands (``perfbench/run.py``, seed 1) and two
usage errors in one child process under cProfile, and collects the functions
and methods defined at module or class level in ``src/specialortho`` that no
command entered.  That set must equal ``ALLOWED``, where each entry gives its
reason: library API with its oracle tests, or the roadmap item that gives it a
caller.  A new function without a caller fails here until it gets one or an
entry; an entry whose function gained a caller, or was deleted, fails too.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "specialortho"

USAGE_ERRORS = (("verify", "bogus"), ("verify", "all", "--at", "l1=0"))

# runs in a fresh interpreter, so import-time calls are profiled as well
CHILD = r"""
import cProfile, contextlib, io, json, sys
profile = cProfile.Profile()
profile.enable()
sys.path.insert(0, sys.argv[1])
import run
from specialortho import cli
expected = json.loads(run.EXPECTED.read_text())["commands"]
problems = []
for argv in [c for w in run.WORKLOADS for c in run.commands(w, 1)]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(list(argv))
    problem = run.check(argv, out.getvalue().encode(), code, expected)
    if problem:
        problems.append(" ".join(argv) + ": " + problem)
for argv in json.loads(sys.argv[2]):
    with contextlib.redirect_stderr(io.StringIO()):
        if cli.main(argv) != 2:
            problems.append(" ".join(argv) + ": exit is not 2")
profile.disable()
profile.create_stats()
entered = [[f, line, name] for f, line, name in profile.stats if isinstance(line, int)]
print(json.dumps({"problems": problems, "entered": entered}))
"""


def defined_functions() -> dict[tuple[str, int, str], str]:
    """(file, first line, name) -> "module.Class.name" for every function and
    method defined at module or class level; the first line of a decorated
    function is its first decorator's, as in its code object."""
    out = {}
    for path in sorted(PACKAGE.glob("*.py")):
        module = path.stem
        body = [(node, module) for node in ast.parse(path.read_text()).body]
        while body:
            node, owner = body.pop()
            if isinstance(node, ast.ClassDef):
                body.extend((child, f"{owner}.{node.name}") for child in node.body)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([node.lineno] + [d.lineno for d in node.decorator_list])
                out[(str(path), first, node.name)] = f"{owner}.{node.name}"
    return out


def test_every_function_is_entered_or_allowed():
    done = subprocess.run(
        [sys.executable, "-c", CHILD, str(ROOT / "perfbench"), json.dumps(USAGE_ERRORS)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        cwd=ROOT,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["problems"] == []
    entered = {(f, line, name) for f, line, name in result["entered"]}
    never = {q for key, q in defined_functions().items() if key not in entered}
    assert sorted(never - ALLOWED.keys()) == [], "no command enters these"
    assert sorted(ALLOWED.keys() - never) == [], "entered or deleted: drop the entry"


REPR = "interactive display; no command prints an object's repr"

ALLOWED = {
    # interactive display
    "altmap.AltMap.__repr__": REPR,
    "clifford.CliffordElement.__repr__": REPR,
    "exterior.QuadraticSpace.__repr__": REPR,
    "octonions.Octonion.__repr__": REPR,
    "octonions.OctonionAlgebra.__repr__": REPR,
    "quadlie.QuadLieRep.__repr__": REPR,
    "quadlie.SuperAlgebra.__repr__": REPR,
    "scalars.Frac.__repr__": REPR,
    # the generic octonion operations, the oracle of the one-term unit values
    # (test_octonions.test_unit_terms_equal_the_generic_operations)
    "octonions.Octonion.__mul__": "library product; oracle of unit_product",
    "octonions.Octonion.__sub__": "library operation; used by the generic commutator",
    "octonions.Octonion.conjugate": "library operation; used by the generic cross product",
    "octonions.Octonion.is_zero": "library predicate; test_associator_alternates_and_quaternions_associate",
    "octonions.commutator": "library operation; oracle of the commutator table",
    "octonions.associator": "library operation; oracle of unit_associator and the g2 pointwise oracles",
    "octonions.cross_product": "library operation; oracle of unit_cross and spinor_cyclic_oracle",
    "octonions.associative_form": "library operation; test_associative_form_values_and_alternation",
    "octonions.bilinear_B": "library form B(x, y); oracle of the Gram entries that "
    "clifford-c-action and clifford-trace-form read (test_c_of_structure_and_action)",
    "octonions.Octonion.__eq__": "library comparison; the dense spin oracle "
    "apply_to_octonion is compared by it (test_c_of_structure_and_action)",
    "octonions.Octonion.scale": "library operation; used by the generic cross product",
    "octonions.OctonionAlgebra.from_coeffs": "library constructor; the dense spin oracle "
    "apply_to_octonion builds its result with it",
    "octonions.OctonionAlgebra.one": "library constructor; test_omega_spin_eigenvalues",
    # brute-force references and documented library API
    "altmap.brute_compose": "oracle of compose; test_compose_matches_brute_force",
    "altmap.brute_wedge_rel": "oracle of wedge_rel; test_wedge_matches_brute_force_small",
    "altmap.PairingSpec.apply": "the field evaluation of a pairing table, behind "
    "brute_wedge_rel; test_apply_and_wedge_match_pairwise_folds",
    "altmap.AltMap.substitute": "library API; test_binding_first_equals_substituting_after",
    "altmap.AltMap.__eq__": "library comparison of maps, which the oracle tests use; "
    "the reports compare maps by first_difference and _proportionality",
    "superalg.import_superalgebra": "inverse of export; test_export_import_round_trip",
    "clifford.CliffordElement.__eq__": "Clifford algebra operation; test_generator_relations",
    "clifford.CliffordElement.__mul__": "Clifford algebra operation; test_generator_relations",
    "clifford.CliffordElement.__sub__": "super_bracket of two parts that are not both odd, "
    "which c_of never forms; test_quantize_antisymmetrization",
    "exterior.render_multi_index": "renders a failing comparison's witness; "
    "test_first_difference_names_the_least_differing_index",
    # the field operations that keep Frac a field type for library callers
    "scalars.Frac.__bool__": "field operation; test_pow_and_bool",
    "scalars.Frac.__hash__": "field operation; test_canonical_form_stable",
    "scalars.Frac.__rsub__": "field operation; test_fast_paths_give_the_canonical_form",
    "scalars.Frac.__rtruediv__": "field operation for int / Frac",
    "scalars.Frac.from_fraction": "constructor from a fractions.Fraction, which the "
    "library no longer imports on its own; oracle of rat (test_rat_matches_the_fraction_oracle)",
    "scalars.Frac._coerce": "int operands of the field operations; "
    "test_apply_and_wedge_match_pairwise_folds",
    "cli._build_parser": "the argv reader of perfbench/setup_probe.py",
    "cli._help": "the usage text of -h and --help; "
    "test_help_names_the_commands_suites_and_flags",
    # callers come with the open roadmap items
    "altmap._ordered_blocks": "compose for deg f != 2, item 6 (binary cubics); "
    "test_criterion_11_oracles_and_reverification",
    "linalg.rank": "stabilizers, item 1; test_rref_pivots",
    "quadlie.build_so": "osp(n|2), item 1; test_module_records_build_osp_from_so",
    "quadlie.SuperAlgebra.bracket": "Killing form, item 2; test_bracket_antisymmetry_and_guards",
    "quadlie.SuperAlgebra._rows": "the Frac rows of both orders, built by the first bracket "
    "call; Killing form, item 2; test_bracket_antisymmetry_and_guards",
}
