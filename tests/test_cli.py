"""Exit codes, flag parsing, and output determinism of the command line."""

import argparse
import hashlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from specialortho import cli
from specialortho.cli import main
from specialortho.errors import ParseError
from specialortho.suites import SUITE_NAMES
from specialortho.superalg import import_superalgebra


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_verify_ok(capsys):
    code, out, err = run(capsys, "verify", "g2", "--compact")
    assert code == 0
    assert err == ""
    assert out.endswith("result: ok (15 checks: 15 hold)\n")


def test_verify_failure_exit_code(capsys):
    code, out, _ = run(capsys, "verify", "d21", "--alpha", "1", "--beta", "1")
    assert code == 1
    assert "FAIL" in out
    assert "witness" in out


def test_verify_json(capsys):
    code, out, _ = run(capsys, "verify", "mathews", "--json")
    assert code == 0
    blob = json.loads(out)
    assert blob["suite"] == "mathews"
    assert blob["result"] == "ok"


def test_verify_out_file(tmp_path, capsys):
    target = tmp_path / "report.txt"
    code, out, _ = run(capsys, "verify", "hodge", "--out", str(target))
    assert code == 0
    assert out == ""
    assert target.read_text().startswith("suite: hodge\n")


def test_verify_byte_identical(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run(capsys, "verify", "g2", "--json", "--out", str(a))
    run(capsys, "verify", "g2", "--json", "--out", str(b))
    assert a.read_bytes() == b.read_bytes()


PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
EXPECTED = PERFBENCH / "expected.json"


@pytest.mark.parametrize(
    "command",
    [
        "verify all",
        "verify all --json --at l1=2,l2=3,l3=-5 --alpha 2",
        "verify d21 --alpha=-1/2",
        "verify d21 --alpha 1 --beta 1",
        "hodge",
        "decompose phi",
        "decompose q-im",
        "decompose q-oct",
        "export --algebra g2",
        "export --algebra so7",
        "export --algebra g3",
        "export --algebra f4",
        "export --algebra d21",
    ],
)
def test_reports_match_the_pinned_digests(capsys, command):
    # the benchmark pins these reports by sha256; a report that changes by one
    # byte shows up here, not only when the benchmark runs
    want = json.loads(EXPECTED.read_text())["commands"][command]
    code, out, err = run(capsys, *command.split())
    assert err == ""
    blob = out.encode("utf-8")
    assert (code, len(blob), hashlib.sha256(blob).hexdigest()) == (
        want["exit"], want["bytes"], want["sha256"]
    )


def test_unknown_suite_exits_2(capsys):
    code, _, err = run(capsys, "verify", "nope")
    assert code == 2
    assert "unknown suite" in err


def test_zero_alpha_exits_2(capsys):
    code, _, err = run(capsys, "verify", "d21", "--alpha", "0")
    assert code == 2
    assert "nonzero" in err


def test_bad_at_exits_2(capsys):
    code, _, err = run(capsys, "verify", "g2", "--at", "l1=2,bogus=1")
    assert code == 2
    assert "--at" in err


def test_repeated_at_key_exits_2(capsys):
    code, out, err = run(capsys, "verify", "g2", "--at", "l1=2,l2=3,l1=3")
    assert code == 2
    assert out == ""
    assert "l1" in err and "more than once" in err


@pytest.mark.parametrize(
    "argv,flag",
    [
        (["verify", "g2", "--at", "l1=2", "--at", "l2=3"], "--at"),
        (["hodge", "--at", "l1=2", "--at", "l2=3"], "--at"),
        (["verify", "d21", "--alpha", "1", "--alpha", "2"], "--alpha"),
        (["verify", "d21", "--alpha=1", "--beta", "1", "--beta=2"], "--beta"),
    ],
)
def test_repeated_binding_flag_exits_2(capsys, argv, flag):
    # a second binding flag must not silently replace the first
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == f"error: {flag} is given more than once\n"


@pytest.mark.parametrize(
    "separate,attached",
    [
        (["--alpha", "-1/2"], ["--alpha=-1/2"]),
        (["--alpha", "2", "--beta", "-3"], ["--alpha=2", "--beta=-3"]),
    ],
)
def test_negative_values_in_either_spelling(capsys, separate, attached):
    code_a, out_a, _ = run(capsys, "verify", "d21", *separate)
    code_b, out_b, _ = run(capsys, "verify", "d21", *attached)
    assert (code_a, code_b) == (0, 0)
    assert out_a == out_b


def test_checks_survive_python_O():
    # no check may be an assert: with -O the reports and exit codes are the same
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}

    def cli(*flags):
        argv = [sys.executable, *flags, "-m", "specialortho.cli"]
        return [
            subprocess.run(argv + args, capture_output=True, text=True, env=env)
            for args in (
                ["verify", "d21", "--alpha=-1/2"],
                ["verify", "d21", "--alpha", "1", "--beta", "1"],
            )
        ]

    plain, optimized = cli(), cli("-O")
    assert [(p.returncode, p.stdout) for p in plain] == [
        (p.returncode, p.stdout) for p in optimized
    ]
    assert [p.returncode for p in plain] == [0, 1]


def test_cold_start_loads_only_what_runs():
    # json and hashlib load only for --json, export and import_superalgebra,
    # no module of the package needs dataclasses (with inspect behind it), and
    # the command line reads its arguments without argparse (with gettext and,
    # on the first message it translates, locale behind it)
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    heavy = ("dataclasses", "inspect", "hashlib", "json", "argparse", "gettext", "locale")

    def loaded(statements):
        probe = (
            "import sys\n"
            "before = set(sys.modules)\n"
            f"{statements}\n"
            f"print(sorted(set(sys.modules) - before & set({heavy!r})))"
        )
        proc = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True, env=env
        )
        assert proc.returncode == 0, proc.stderr
        return proc.stdout.splitlines()[-1]

    assert loaded("import specialortho.cli") == "[]"
    verify = "from specialortho.cli import main\nassert main(['verify', 'd21']) == 0"
    assert loaded(verify) == "[]"
    assert loaded(verify.replace("'d21'", "'d21', '--json'")) == "['json']"
    assert loaded(verify.replace("'verify', 'd21'", "'hodge'")) == "[]"
    export = verify.replace(
        "'verify', 'd21'", f"'export', '--algebra', 'f4', '--out', {os.devnull!r}"
    )
    assert loaded(export) == "['hashlib', 'json']"


def test_exponent_carry_in_alpha_exits_2(capsys):
    # wrapped, the first product reads l1^14464*l2 and alpha would read as 2
    code, out, err = run(
        capsys, "verify", "d21", "--alpha=l1^40000*l1^40000 - l1^14464*l2 + 2"
    )
    assert (code, out) == (2, "")
    assert "above 65535" in err


@pytest.mark.parametrize(
    "argv,message",
    [
        (
            ["verify", "d21", "--alpha", "9" * 4400],
            "error: a number of 4400 digits is above the limit of 4300 digits\n",
        ),
        (
            ["verify", "g2", "--at", "l1=2^65535"],
            "error: a number has more than 4300 digits, too many to print\n",
        ),
        (
            ["decompose", "phi", "--at", "l1=10^1500,l2=10^1500,l3=10^1500"],
            "error: a number has more than 4300 digits, too many to print\n",
        ),
    ],
    ids=["alpha", "parameters-line", "coefficient"],
)
def test_integers_past_the_digit_limit_exit_2(capsys, argv, message):
    # Python refuses int <-> str conversions of more than 4300 digits
    assert run(capsys, *argv) == (2, "", message)


def test_non_rational_alpha_exits_2(capsys):
    code, _, err = run(capsys, "verify", "d21", "--alpha", "l1")
    assert code == 2
    assert "rational" in err


def test_alpha_outside_the_denominator_set_exits_2(capsys):
    assert run(capsys, "verify", "all", "--alpha", "1/(l1+1)") == (
        2,
        "",
        "error: denominator l1 + 1 is not c * l1^i l2^j l3^k a^m (a + 1)^r\n",
    )


def test_decompose_row_counts(capsys):
    for target, count in (("phi", 7), ("q-im", 7), ("q-oct", 14)):
        code, out, _ = run(capsys, "decompose", target)
        assert code == 0
        assert len(out.splitlines()) == count
    assert "affine plane" in out


def test_decompose_bad_target(capsys):
    code, _, err = run(capsys, "decompose", "bogus")
    assert code == 2
    assert err == (
        "error: unknown decomposition target 'bogus'; "
        "expected one of: phi, q-im, q-oct\n"
    )


def test_hodge_table(capsys):
    code, out, _ = run(capsys, "hodge")
    assert code == 0
    assert len(out.splitlines()) == 11
    assert "147/8" in out
    assert "-56" in out


def test_export_round_trip(tmp_path, capsys):
    target = tmp_path / "d21.json"
    code, out, _ = run(
        capsys, "export", "--algebra", "d21", "--alpha", "2", "--out", str(target)
    )
    assert code == 0
    assert "9|8" in out
    sa = import_superalgebra(target.read_text())
    assert (sa.even_dim, sa.odd_dim) == (9, 8)
    assert not any(sa.super_jacobi_check().values())


def test_export_even_algebra_to_stdout(capsys):
    code, out, _ = run(capsys, "export", "--algebra", "g2", "--compact")
    assert code == 0
    blob = json.loads(out)
    assert blob["even_dim"] == 14
    assert blob["odd_dim"] == 0
    assert blob["parameters"] == {"l1": "1", "l2": "1", "l3": "1"}


def test_export_not_special_exits_2(tmp_path, capsys):
    code, _, err = run(
        capsys, "export", "--algebra", "d21",
        "--alpha", "1", "--beta", "1", "--out", str(tmp_path / "x.json"),
    )
    assert code == 2
    assert "special" in err


def test_export_bad_algebra(capsys):
    code, _, err = run(capsys, "export", "--algebra", "e8")
    assert code == 2
    assert err == "error: unknown algebra 'e8'; expected one of: g2, so7, d21, g3, f4\n"


def test_export_texts_name_every_export_key(capsys):
    # the error text and the usage text each list the keys by hand: a new
    # suites.MODULES entry fails here until both name it
    _, _, err = run(capsys, "export", "--algebra", "e8")
    listed = err.rstrip("\n").partition("expected one of: ")[2]
    assert set(listed.split(", ")) == set(cli._EXPORTS)
    usage = " ".join(cli._USAGE.split()).partition("NAME: ")[2].partition(".")[0]
    assert set(usage.replace(" or ", ", ").split(", ")) == set(cli._EXPORTS)


# The argparse parser the command line used before its argv table, kept as
# the oracle of the table: the same argv must be accepted with the same
# attributes, or rejected, by both.


class _Once(argparse.Action):
    """Store a flag's value; a second occurrence is a ParseError."""

    def __call__(self, parser, namespace, values, option_string=None):
        if getattr(namespace, self.dest) is not None:
            raise ParseError(f"{option_string} is given more than once")
        setattr(namespace, self.dest, values)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="specialortho")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_bindings(p: argparse.ArgumentParser) -> None:
        p.add_argument("--alpha", action=_Once)
        p.add_argument("--beta", action=_Once)
        group = p.add_mutually_exclusive_group()
        group.add_argument("--compact", action="store_true")
        group.add_argument("--split", action="store_true")
        group.add_argument("--at", action=_Once)

    verify = sub.add_parser("verify")
    verify.add_argument("suite")
    add_bindings(verify)
    verify.add_argument("--json", action="store_true")
    verify.add_argument("--out", default=None)
    verify.set_defaults(fn=cli._cmd_verify)

    decompose = sub.add_parser("decompose")
    decompose.add_argument("target")
    add_bindings(decompose)
    decompose.set_defaults(fn=cli._cmd_decompose)

    hodge = sub.add_parser("hodge")
    add_bindings(hodge)
    hodge.set_defaults(fn=cli._cmd_hodge)

    export = sub.add_parser("export")
    export.add_argument("--algebra", required=True)
    add_bindings(export)
    export.add_argument("--out", default=None)
    export.set_defaults(fn=cli._cmd_export)
    return parser


def _attach_values(argv):
    """Rewrite ``--alpha V`` and ``--beta V`` as ``--alpha=V`` and ``--beta=V``:
    argparse reads a separate value such as ``-1/2`` as an unknown flag."""
    out = []
    for arg in argv:
        if out and out[-1] in ("--alpha", "--beta"):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def _perfbench_argv():
    """Every benchmark command for seeds 1-3, and the set-up probe's argv."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
        bench = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(bench)
    finally:
        sys.path.remove(str(PERFBENCH))
    commands = [
        list(argv)
        for seed in (1, 2, 3)
        for workload in bench.WORKLOADS
        for argv in bench.commands(workload, seed)
    ]
    return commands + [list(bench.FIXED[w][0]) for w in bench.WORKLOADS]

ORACLE_ARGV = [
    # negative values in both spellings, and the symbolic default by name
    ["verify", "d21", "--alpha", "-1/2"],
    ["verify", "d21", "--alpha=-1/2"],
    ["verify", "d21", "--alpha", "2", "--beta", "-3"],
    ["verify", "d21", "--beta=-3", "--alpha=2"],
    ["verify", "d21", "--alpha=symbolic"],
    ["verify", "all", "--at", "l1=-1,l2=2,l3=3"],
    ["verify", "all", "--at=l1=-1"],
    # flags anywhere after the command
    ["verify", "--json", "all"],
    ["decompose", "--compact", "q-im"],
    ["verify", "--alpha", "-1/2", "d21"],
    # unique and ambiguous prefixes
    ["verify", "all", "--comp"],
    ["verify", "d21", "--alph", "2"],
    ["verify", "d21", "--alph=2"],
    ["verify", "all", "--j", "--o", "x.json"],
    ["export", "--alg", "f4"],
    ["verify", "all", "--a", "1"],
    ["export", "--al", "f4"],
    # repeats: a switch may repeat and the last --out or --algebra wins
    ["verify", "all", "--json", "--json"],
    ["verify", "all", "--out", "a", "--out", "b"],
    ["export", "--algebra", "g2", "--algebra", "f4"],
    ["verify", "d21", "--alpha", "1", "--alpha", "2"],
    ["verify", "d21", "--alpha", "1", "--alph=2"],
    ["hodge", "--at", "l1=2", "--at", "l2=3"],
    # missing and extra positionals, missing values
    ["verify"],
    ["decompose"],
    ["verify", "--compact"],
    ["verify", "all", "extra"],
    ["hodge", "extra"],
    ["verify", "all", "--out"],
    ["verify", "all", "--alpha"],
    ["export", "--algebra"],
    ["verify", "all", "--out", "--json"],
    ["verify", "all", "--json=1"],
    # exclusive bindings, required and foreign flags
    ["verify", "all", "--compact", "--split"],
    ["verify", "all", "--split", "--at", "l1=2"],
    ["hodge", "--compact", "--compact"],
    ["export"],
    ["export", "--compact"],
    ["hodge", "--json"],
    ["decompose", "phi", "--out", "x"],
    # no command, an unknown command, a flag before the command
    [],
    ["bogus"],
    ["--compact", "verify", "all"],
    # usage text
    ["-h"],
    ["--help"],
    ["verify", "-h"],
    ["export", "--help"],
]

# argv on which the table and argparse differ on purpose, with the reason
DIFFERENCES = {
    ("verify", "--", "all"): "argparse reads -- as the end of the flags; the table "
    "has no such marker, since no positional argument starts with '-'",
    ("decompose", "-1"): "argparse takes -1 as the target and then fails on it "
    "as an unknown target, exit 2 either way; the table reads every argument "
    "that starts with '-', and is no flag's value, as a flag",
    ("verify", "all", "--out", "-o"): "argparse reads a value that starts with "
    "'-' and is not a plain number as a missing value; the table refuses only "
    "a value that starts with '--', as a negative rational such as -1/2 is not "
    "a plain number to argparse either",
}


def _read(parse, argv, capsys):
    """The attributes parse reads from argv, "help", or "error"."""
    try:
        args = parse(argv)
    except ParseError:
        return "error"
    except SystemExit as stop:
        capsys.readouterr()
        return "help" if stop.code == 0 else "error"
    return "help" if args.fn is cli._help else vars(args)


def _argparse(argv):
    return _build_parser().parse_args(_attach_values(argv))


def test_argv_table_reads_what_argparse_read(capsys):
    for argv in _perfbench_argv() + ORACLE_ARGV:
        want, got = _read(_argparse, argv, capsys), _read(cli._parse_args, argv, capsys)
        assert got == want, argv
    for argv in map(list, DIFFERENCES):
        assert _read(_argparse, argv, capsys) != _read(cli._parse_args, argv, capsys)


def test_usage_errors_are_one_line_and_exit_2(capsys):
    for argv, message in (
        ([], "no command; expected one of: verify, decompose, hodge, export"),
        (["verify"], "verify expects a suite"),
        (["verify", "all", "--a", "1"], "--a matches --alpha, --at of verify"),
        (["verify", "all", "--compact", "--split"],
         "--compact, --split and --at exclude each other"),
        (["export"], "export expects --algebra"),
    ):
        assert run(capsys, *argv) == (2, "", f"error: {message}\n")
    proc = subprocess.run(
        [sys.executable, "-m", "specialortho.cli", "hodge", "--json"],
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")},
    )
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == "error: --json matches no flag of hodge\n"


def test_help_names_the_commands_suites_and_flags(capsys):
    code, out, err = run(capsys, "--help")
    assert (code, err) == (0, "")
    assert run(capsys, "verify", "all", "-h") == (0, out, "")
    names = (
        *cli._COMMANDS, *SUITE_NAMES, "all",
        *(f"--{flag}" for _, _, flags in cli._COMMANDS.values() for flag in flags),
    )
    assert [name for name in names if name not in out] == []
