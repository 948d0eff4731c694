"""Exit codes, flag parsing, and output determinism of the command line."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from specialortho.cli import main
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


EXPECTED = Path(__file__).resolve().parent.parent / "perfbench" / "expected.json"


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
    # and no module of the package needs dataclasses (with inspect behind it)
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    heavy = ("dataclasses", "inspect", "hashlib", "json")

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
