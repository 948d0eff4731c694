"""Build every Workspace stage of one command's binding in a fresh interpreter.

    PYTHONPATH=src python3 perfbench/setup_probe.py verify all --at l1=2,l2=3,l3=-5 --alpha 2

The probe imports specialortho.cli, as the command line does, and turns the
command's arguments into a Workspace with the command line's own parser. It
then builds each cached stage of that Workspace before any check runs, so the
benchmark can time set-up apart from checking. It prints the stages it built.
"""

import sys
from functools import cached_property

from specialortho import cli
from specialortho.suites import Workspace


def main(argv: list[str]) -> None:
    ws = cli._workspace(cli._build_parser().parse_args(argv))
    stages = [n for n, v in vars(Workspace).items() if isinstance(v, cached_property)]
    for name in stages:
        getattr(ws, name)
    print(" ".join(stages))


if __name__ == "__main__":
    main(sys.argv[1:])
