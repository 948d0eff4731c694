"""Tests of the benchmark itself; run with `python3 -m pytest perfbench -q`."""

import json
import shutil
import subprocess
import sys

import run

CONTRACT = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _last_json(text: str) -> dict:
    return json.loads(text.strip().splitlines()[-1])


def _run_cli(argv):
    return run.Process([sys.executable, "-m", "specialortho.cli", *argv], run.child_env())


def test_smoke_every_command_passes(capsys):
    assert run.main(["--smoke", "--seed", "7"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == sum(len(run.commands(w, 7)) for w in run.WORKLOADS)
    assert all(line.startswith("ok") for line in lines)


def test_any_byte_change_or_exit_change_fails():
    expected = json.loads(run.EXPECTED.read_text())["commands"]
    argv = ("decompose", "phi")
    proc = _run_cli(argv)
    assert run.check(argv, proc.stdout, proc.code, expected) is None
    for i in range(len(proc.stdout)):
        changed = bytearray(proc.stdout)
        changed[i] ^= 1
        assert run.check(argv, bytes(changed), proc.code, expected)
    assert run.check(argv, proc.stdout + b"\n", proc.code, expected)
    assert run.check(argv, proc.stdout, 1, expected)


def test_seeded_d21_points_are_checked_by_status():
    special, _, off = run.commands("cli-tools", 3)[-3:]
    assert not any(a.startswith("--beta") for a in special)
    assert off[-1].startswith("--beta=")
    for argv in (special, off):
        proc = _run_cli(argv)
        assert run.check(argv, proc.stdout, proc.code, {}) is None
        assert run.check(argv, proc.stdout, 2, {})
        swapped = proc.stdout.replace(b"result: ok", b"result: FAIL").replace(
            b"sector OOO", b"sector EEE"
        )
        assert run.check(argv, swapped, proc.code, {})


def test_seed_fixes_the_inputs():
    assert run.commands("cli-tools", 5) == run.commands("cli-tools", 5)
    assert run.d21_points(5) != run.d21_points(6)
    for seed in range(200):
        for alpha, beta in run.d21_points(seed):
            assert alpha not in (0, -1)
            assert beta is None or (beta != 0 and beta != -1 - alpha)


def test_end_to_end_result_names_every_metric(capsys):
    assert run.main(["--workload", "cli-tools", "--seed", "1", "--seconds", "0"]) == 0
    result = _last_json(capsys.readouterr().out)
    assert result["correct"] and result["failed"] == 0
    want = {m["name"]: m["unit"] for m in CONTRACT["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_trace_names_every_layer_and_counts_repeat(capsys):
    results = []
    for _ in range(2):
        argv = ["--workload", "cli-tools", "--seed", "1", "--seconds", "0", "--trace", "1"]
        assert run.main(argv) == 0
        results.append(_last_json(capsys.readouterr().out))
    want = {m["name"]: m["unit"] for m in CONTRACT["per_layer"]}
    for result in results:
        assert result["correct"]
        assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    first, second = (r["metrics"] for r in results)
    for name in want:
        if name.endswith("_calls"):
            assert first[name]["value"] == second[name]["value"] > 0
    assert first["trace.uncovered_s"]["value"] < first["trace.wall_s"]["value"]


def test_refuses_a_directory_without_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench")
    command = CONTRACT["command"] + ["--workload", "cli-tools", "--seed", "1",
                                     "--seconds", "1", "--trace", "0"]
    got = subprocess.run(command, cwd=tmp_path, capture_output=True, timeout=60)
    assert got.returncode != 0
    assert got.stdout == b""


def test_workloads_match_the_contract():
    assert set(run.WORKLOADS) == {w["name"] for w in CONTRACT["workloads"]}
