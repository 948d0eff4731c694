"""Benchmark of the specialortho command line.

Run from the root of a checkout:

    python3 perfbench/run.py --workload verify-all-symbolic --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --smoke     # every command of every workload once

One client in a closed loop: each command is a fresh process, started after
the previous one has exited and its stdout and exit code have been checked.
With --trace 0 the result holds the end-to-end metrics; with --trace 1 it
alternates untraced passes with passes under perfbench/trace_cli.py and holds
the per-layer metrics. The last line of stdout is the JSON result; the line
before it records the environment. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import selectors
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import trace_cli

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
EXPECTED = HERE / "expected.json"
COMMAND_TIMEOUT_S = 150
# reference.py's median time on the host the bounds were set on; see measure()
REFERENCE_S = 0.25

EXPORTS = ("g2", "so7", "g3", "f4", "d21")
# Negative values are passed as --alpha=-1/2: the space-separated form
# "--alpha -1/2" is rejected by argparse with exit 2 (a known CLI defect).
FIXED = {
    "verify-all-symbolic": [("verify", "all")],
    "verify-all-bound": [
        ("verify", "all", "--json", "--at", "l1=2,l2=3,l3=-5", "--alpha", "2")
    ],
    "cli-tools": [
        ("hodge",),
        ("decompose", "phi"),
        ("decompose", "q-im"),
        ("decompose", "q-oct"),
        *(("export", "--algebra", name) for name in EXPORTS),
        ("verify", "d21", "--alpha=-1/2"),
        ("verify", "d21", "--alpha", "1", "--beta", "1"),  # non-special control
    ],
}
WORKLOADS = tuple(FIXED)
SUITES = ("g2", "f4", "d21", "mathews", "hodge", "decompositions")
SPANS = (*trace_cli.SPANS, *(f"suites.{name}" for name in SUITES))
CALL_COUNTS = (
    "altmap.evaluate", "linalg.det", "scalars.mul", "scalars.add",
    "scalars.div", "scalars.gcd", "scalars.solve_linear",
)


class BenchError(Exception):
    """The checkout cannot be benchmarked; no result is printed."""


def child_env() -> dict[str, str]:
    return dict(os.environ, PYTHONPATH=str(SRC))


def _draw_alpha(rng: random.Random) -> Fraction:
    # alpha = 0 and alpha = -1 (so beta = 0) are construction errors, not checks
    while True:
        x = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        if x not in (0, -1):
            return x


def d21_points(seed: int) -> list[tuple[Fraction, Fraction | None]]:
    """Two points on the special locus (beta omitted) and one off it."""
    rng = random.Random(seed)
    points: list[tuple[Fraction, Fraction | None]] = [
        (_draw_alpha(rng), None),
        (_draw_alpha(rng), None),
    ]
    alpha, beta = _draw_alpha(rng), _draw_alpha(rng)
    while beta == -1 - alpha:
        beta = _draw_alpha(rng)
    points.append((alpha, beta))
    return points


def commands(workload: str, seed: int) -> list[tuple[str, ...]]:
    out = list(FIXED[workload])
    if workload == "cli-tools":
        for alpha, beta in d21_points(seed):
            argv = ("verify", "d21", f"--alpha={alpha}")
            out.append(argv if beta is None else argv + (f"--beta={beta}",))
    return out


def _flag(argv: tuple[str, ...], name: str) -> Fraction:
    return Fraction(next(a for a in argv if a.startswith(name + "=")).split("=", 1)[1])


def check(argv: tuple[str, ...], out: bytes, code: int, expected: dict) -> str | None:
    """None when the command's output is right, else what is wrong with it."""
    key = " ".join(argv)
    want = expected.get(key)
    if want is not None:
        if code != want["exit"]:
            return f"exit {code}, recorded {want['exit']}"
        if hashlib.sha256(out).hexdigest() != want["sha256"]:
            return "stdout differs from the recorded digest"
        return None
    # a seeded D(2,1;alpha) point: checked by status, not by digest
    alpha = _flag(argv, "--alpha")
    special = not any(a.startswith("--beta=") for a in argv)
    beta = -1 - alpha if special else _flag(argv, "--beta")
    lines = out.decode("utf-8", "replace").splitlines()
    if f"parameters: l1=l1, l2=l2, l3=l3, alpha={alpha}, beta={beta}" not in lines:
        return "parameters line does not show the requested point"
    superalgebra = [line for line in lines if "] d21-superalgebra:" in line]
    if len(superalgebra) != 1:
        return "no d21-superalgebra record"
    if special:
        if code != 0 or not lines or not lines[-1].startswith("result: ok ("):
            return f"special point: exit {code}, expected ok with exit 0"
        if not superalgebra[0].startswith("  [holds  ]"):
            return "special point: superalgebra does not hold"
        return None
    if code != 1 or not lines or not lines[-1].startswith("result: FAIL ("):
        return f"non-special point: exit {code}, expected FAIL with exit 1"
    if "[fails  ]" not in superalgebra[0] or "sector OOO: J(" not in superalgebra[0]:
        return "non-special point: no OOO witness"
    return None


class Process:
    """One finished child: output, exit code, wall and CPU time, peak RSS."""

    def __init__(self, argv: list[str], env: dict[str, str]):
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            argv, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE
        )
        self.stdout, self.stderr = _drain(proc, time.monotonic() + COMMAND_TIMEOUT_S)
        _, status, usage = os.wait4(proc.pid, 0)
        self.wall_s = time.perf_counter() - t0
        proc.returncode = self.code = os.waitstatus_to_exitcode(status)
        self.cpu_s = usage.ru_utime + usage.ru_stime
        self.rss_mb = usage.ru_maxrss / 1024  # kilobytes on Linux


def _drain(proc: subprocess.Popen, deadline: float | None) -> tuple[bytes, bytes]:
    """Read stdout and stderr to the end; kill the child at the deadline."""
    chunks: dict[int, list[bytes]] = {proc.stdout.fileno(): [], proc.stderr.fileno(): []}
    with selectors.DefaultSelector() as sel:
        sel.register(proc.stdout, selectors.EVENT_READ)
        sel.register(proc.stderr, selectors.EVENT_READ)
        while sel.get_map():
            timeout = None if deadline is None else max(0.0, deadline - time.monotonic())
            ready = sel.select(timeout)
            if not ready and deadline is not None and time.monotonic() >= deadline:
                proc.kill()
                deadline = None
            for key, _ in ready:
                data = os.read(key.fd, 1 << 16)
                if data:
                    chunks[key.fd].append(data)
                else:
                    sel.unregister(key.fileobj)
    out, err = (b"".join(chunks[f.fileno()]) for f in (proc.stdout, proc.stderr))
    proc.stdout.close()
    proc.stderr.close()
    return out, err


class Bench:
    def __init__(self, workload: str, seed: int):
        if not (SRC / "specialortho" / "cli.py").is_file():
            raise BenchError(f"no specialortho sources under {SRC}")
        if not EXPECTED.is_file():
            raise BenchError(f"missing {EXPECTED}")
        self.workload = workload
        self.commands = commands(workload, seed)
        self.expected = json.loads(EXPECTED.read_text())["commands"]
        self.env = child_env()
        self.attempted = 0
        self.failures: list[str] = []

    def build(self) -> None:
        """Byte-compile the sources so no timed process pays for it."""
        proc = Process([sys.executable, "-m", "compileall", "-q", str(SRC)], self.env)
        if proc.code != 0:
            raise BenchError("compileall failed:\n" + proc.stderr.decode())

    def probe(self, script: str, *args: str) -> float:
        """Wall time of a fresh interpreter running one of the benchmark's scripts."""
        proc = Process([sys.executable, str(HERE / script), *args], self.env)
        if proc.code != 0:
            raise BenchError(f"{script} failed:\n" + proc.stderr.decode())
        return proc.wall_s

    def run(self, argv: tuple[str, ...], traced: bool) -> Process:
        prefix = [str(HERE / "trace_cli.py")] if traced else ["-m", "specialortho.cli"]
        proc = Process([sys.executable, *prefix, *argv], self.env)
        self.attempted += 1
        problem = check(argv, proc.stdout, proc.code, self.expected)
        if problem:
            self.failures.append(f"{' '.join(argv)}: {problem}")
            sys.stderr.write(f"FAILED {' '.join(argv)}: {problem}\n{proc.stderr.decode()}")
        return proc

    def one_pass(self, traced: bool = False) -> list[Process]:
        return [self.run(argv, traced) for argv in self.commands]

    def measure(self, seconds: float) -> tuple[dict, dict]:
        """End-to-end metrics from rounds of probes and one pass each.

        A round times the reference load, then the set-up probe, then one
        pass; one more reference and set-up probe follow the last round. A
        shared host changes speed by tens of percent for minutes at a time,
        and the reference load, which no change to the program can move,
        slows with it. So each time is scaled by REFERENCE_S over the
        reference time measured next to it: a pass by the mean of the
        references just before and just after it, a set-up probe by the
        reference just before it. The result is the time the work would
        take on a host where the reference takes REFERENCE_S.
        """
        self.build()
        refs, setups, passes = [], [], []

        def probes() -> None:
            refs.append(self.probe("reference.py"))
            setups.append(self.probe("setup_probe.py", *FIXED[self.workload][0]))

        for _ in rounds(seconds):
            probes()
            passes.append(self.one_pass())
        probes()
        scales = [2 * REFERENCE_S / (a + b) for a, b in zip(refs, refs[1:])]
        wall = [sum(p.wall_s for p in ps) for ps in passes]
        cpu = [sum(p.cpu_s for p in ps) for ps in passes]
        metrics = {
            "wall_s": (statistics.median(k * t for k, t in zip(scales, wall)), "s"),
            "cpu_s": (statistics.median(k * t for k, t in zip(scales, cpu)), "s"),
            "setup_s": (statistics.median(REFERENCE_S * s / r for s, r in zip(setups, refs)), "s"),
            "peak_rss_mb": (statistics.median(max(p.rss_mb for p in ps) for ps in passes), "MB"),
        }
        unscaled = {"wall_s": statistics.median(wall), "cpu_s": statistics.median(cpu),
                    "setup_s": statistics.median(setups)}
        return metrics, {"passes": len(passes), "reference_s": statistics.median(refs),
                         "unscaled": unscaled}

    def measure_traced(self, seconds: float) -> tuple[dict, dict]:
        self.build()
        plain, traced = [], []
        for _ in rounds(seconds):
            plain.append(sum(p.wall_s for p in self.one_pass()))
            traced.append(_merge_traces(self.one_pass(traced=True)))
        metrics = {}
        for key in traced[0]:
            unit = "count" if key.endswith("_calls") else "ratio" if key.endswith("_share") else "s"
            # median_low: a count stays a whole number of calls
            metrics[key] = (statistics.median_low(t[key] for t in traced), unit)
        metrics["trace.overhead_s"] = (
            statistics.median(t["trace.process_wall_s"] for t in traced)
            - statistics.median(plain),
            "s",
        )
        del metrics["trace.process_wall_s"]
        return metrics, {"passes": len(traced)}


def rounds(seconds: float):
    """Loop rounds that all end within `seconds`, judging each round by the
    one before it. There is always at least one round."""
    t_end = time.perf_counter() + seconds
    while True:
        t0 = time.perf_counter()
        yield
        t1 = time.perf_counter()
        if t1 + (t1 - t0) > t_end:
            return


def _merge_traces(procs: list[Process]) -> dict[str, float]:
    """Sum the per-command traces of one pass into per-layer metrics."""
    out = {f"{name}_s": 0.0 for name in SPANS}
    out.update({f"{name}_calls": 0 for name in CALL_COUNTS})
    out.update({"cli.import_s": 0.0, "trace.wall_s": 0.0, "trace.uncovered_s": 0.0})
    operands = nonconstant = 0
    for proc in procs:
        line = proc.stderr.decode().rstrip("\n").rsplit("\n", 1)[-1]
        if not line.startswith(trace_cli.TRACE_TAG):
            raise BenchError("traced command left no trace:\n" + proc.stderr.decode())
        trace = json.loads(line[len(trace_cli.TRACE_TAG):])
        for name in SPANS:
            out[f"{name}_s"] += trace["self_s"].get(name, 0.0)
        for name in CALL_COUNTS:
            out[f"{name}_calls"] += trace["calls"].get(name, 0)
        out["cli.import_s"] += trace["import_s"]
        out["trace.wall_s"] += trace["main_s"]
        out["trace.uncovered_s"] += trace["uncovered_s"]
        operands += trace["operands"]
        nonconstant += trace["nonconstant"]
    out["scalars.nonconstant_share"] = nonconstant / operands if operands else 0.0
    out["trace.process_wall_s"] = sum(p.wall_s for p in procs)
    return out


def environment() -> dict:
    """Run facts recorded beside the metrics; none of them is gated."""
    commit = None
    if (ROOT / ".git").exists():
        got = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
        commit = got.stdout.strip() or None
    lines = {
        str(path.relative_to(SRC)): len(path.read_text(encoding="utf-8").splitlines())
        for path in sorted(SRC.rglob("*.py"))
    }
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "commit": commit,
        "src_lines": lines,
        "src_lines_total": sum(lines.values()),
    }


def smoke(seed: int) -> int:
    """Run every command of every workload once and check its output."""
    failed = 0
    for workload in WORKLOADS:
        bench = Bench(workload, seed)
        for argv in bench.commands:
            proc = bench.run(argv, traced=False)
            ok = len(bench.failures) == failed
            failed = len(bench.failures)
            print(f"{'ok  ' if ok else 'FAIL'} {proc.wall_s:6.2f} s  {workload}: {' '.join(argv)}")
    return 1 if failed else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="one pass of every command")
    args = parser.parse_args(argv)
    try:
        if args.smoke:
            return smoke(args.seed)
        if args.workload is None:
            parser.error("--workload is required")
        bench = Bench(args.workload, args.seed)
        measure = bench.measure_traced if args.trace else bench.measure
        metrics, facts = measure(args.seconds)
    except BenchError as err:
        sys.stderr.write(f"perfbench: {err}\n")
        return 2
    info = {"workload": args.workload, "seed": args.seed, **facts,
            "error_rate": len(bench.failures) / bench.attempted, **environment()}
    print(json.dumps({"environment": info}))
    print(json.dumps({
        "correct": not bench.failures,
        "attempted": bench.attempted,
        "failed": len(bench.failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
