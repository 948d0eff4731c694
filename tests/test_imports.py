"""The command line loads neither ``fractions`` nor ``decimal``.

``import specialortho.cli``, the symbolic ``verify all``, ``hodge``,
``export --algebra f4`` and the bound ``verify all --at`` run in one child
process, so that nothing the test process has imported hides a load.  A
bound substitution (``Frac.substitute`` with bindings) is exact on integer
numerator/denominator pairs, so ``verify all --at`` loads neither either.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

CHILD = r"""
import contextlib, io, json, sys
from specialortho import cli

def loaded():
    return sorted(name for name in ("fractions", "decimal") if name in sys.modules)

seen = {"import": [None, loaded(), ""]}
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    seen[" ".join(argv)] = [code, loaded(), out.getvalue().splitlines()[-1]]
print(json.dumps(seen))
"""

COMMANDS = (
    ["verify", "all"],
    ["hodge"],
    ["export", "--algebra", "f4"],
    # the bound run comes last: it is the one that substitutes
    ["verify", "all", "--at", "l1=2,l2=3,l3=-5"],
)


def test_fractions_never_loads():
    done = subprocess.run(
        [sys.executable, "-c", CHILD, json.dumps(COMMANDS)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        cwd=ROOT,
    )
    assert done.returncode == 0, done.stderr
    seen = json.loads(done.stdout)
    for key in ("import", "verify all", "hodge", "export --algebra f4"):
        assert seen[key][1] == [], key
    assert seen["verify all"][0] == seen["hodge"][0] == seen["export --algebra f4"][0] == 0
    code, modules, last = seen["verify all --at l1=2,l2=3,l3=-5"]
    assert code == 0 and last.startswith("result: ok")
    assert modules == []
