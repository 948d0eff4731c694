"""Command-line interface.

Four subcommands: ``verify`` runs one of the named suites (or ``all``) and
exits 0 when every check holds or is vacuous, 1 when any check fails, and 2
on usage or construction errors; ``decompose`` prints the annotated
index-raised forms; ``hodge`` prints the constants table; ``export`` writes a
superalgebra's structure constants as canonical JSON.

Reports are byte-identical across runs with equal flags.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from .errors import ParseError, SpecialOrthoError
from .quadlie import (
    decompose_phi_dual,
    decompose_quad_im,
    decompose_quad_oct,
)
from .scalars import Frac, parse, rat, render
from .suites import SUITE_NAMES, SUPERALGEBRAS, Workspace, hodge_report, run_suite
from .superalg import build_tilde, export_superalgebra


def _constant(flag: str, text: str) -> Frac:
    value = parse(text)
    if not value.is_constant():
        raise ParseError(f"{flag} expects a rational number, got {text!r}")
    return value


def _parse_at(text: str) -> dict[str, Frac]:
    out: dict[str, Frac] = {}
    for item in text.split(","):
        item = item.strip()
        if not item:
            continue
        key, sep, value = item.partition("=")
        key = key.strip()
        if not sep or key not in ("l1", "l2", "l3"):
            raise ParseError(
                f"--at expects comma-separated l1=..,l2=..,l3=.., got {item!r}"
            )
        if key in out:
            raise ParseError(f"--at binds {key} more than once")
        out[key] = _constant("--at", value.strip())
    return out


class _Once(argparse.Action):
    """Store a flag's value; a second occurrence is a ParseError."""

    def __call__(self, parser, namespace, values, option_string=None):
        if getattr(namespace, self.dest) is not None:
            raise ParseError(f"{option_string} is given more than once")
        setattr(namespace, self.dest, values)


def _workspace(args: argparse.Namespace) -> Workspace:
    bindings: dict[str, Optional[Frac]] = {"l1": None, "l2": None, "l3": None}
    if getattr(args, "compact", False):
        bindings = {k: rat(1) for k in bindings}
    elif getattr(args, "split", False):
        bindings = {"l1": rat(1), "l2": rat(1), "l3": rat(-1)}
    elif getattr(args, "at", None):
        bindings.update(_parse_at(args.at))
    alpha = getattr(args, "alpha", None)
    beta = getattr(args, "beta", None)
    return Workspace(
        l1=bindings["l1"],
        l2=bindings["l2"],
        l3=bindings["l3"],
        alpha=None if alpha in (None, "symbolic") else _constant("--alpha", alpha),
        beta=None if beta in (None, "symbolic") else _constant("--beta", beta),
    )


def _emit(text: str, out: Optional[str]) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _cmd_verify(args: argparse.Namespace) -> int:
    ws = _workspace(args)
    report = run_suite(args.suite, ws)
    _emit(report.to_json() if args.json else report.to_text(), args.out)
    return 0 if report.ok else 1


def _cmd_decompose(args: argparse.Namespace) -> int:
    ws = _workspace(args)
    if args.target == "phi":
        terms = decompose_phi_dual(ws.octs)
    elif args.target == "q-im":
        terms = decompose_quad_im(ws.octs, ws.cov_im.quad)
    elif args.target == "q-oct":
        terms = decompose_quad_oct(ws.cov_oct.quad)
    else:
        raise ParseError(
            f"unknown decomposition target {args.target!r}; "
            "expected one of: phi, q-im, q-oct"
        )
    lines = [
        f"{'^'.join(f'e{i}' for i in t.index)}: {render(t.coefficient)}  [{t.annotation}]"
        for t in terms
    ]
    _emit("\n".join(lines) + "\n", None)
    return 0


def _cmd_hodge(args: argparse.Namespace) -> int:
    _emit(hodge_report(_workspace(args)), None)
    return 0


def _cmd_export(args: argparse.Namespace) -> int:
    ws = _workspace(args)
    if args.algebra == "g2":
        sa = ws.g2_rep.algebra
    elif args.algebra == "so7":
        sa = ws.so7_rep.algebra
    elif args.algebra in SUPERALGEBRAS:
        covariants, label, _ = SUPERALGEBRAS[args.algebra]
        sa = build_tilde(covariants(ws), label)
    else:
        raise ParseError(
            f"unknown algebra {args.algebra!r}; expected one of: g2, so7, d21, g3, f4"
        )
    if args.algebra == "d21":
        params = {"a": render(ws.alpha), "b": render(ws.beta)}
    else:
        params = {"l1": render(ws.l1), "l2": render(ws.l2), "l3": render(ws.l3)}
    _emit(export_superalgebra(sa, parameters=params), args.out)
    if args.out:
        sys.stdout.write(
            f"wrote {args.out}: {sa.name} ({sa.even_dim}|{sa.odd_dim})\n"
        )
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="specialortho",
        description=(
            "Exact verification of the moment-map, covariant, Hodge-dual, and "
            "superalgebra identities of the two octonion representations and "
            "the four-dimensional family."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_bindings(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--alpha",
            action=_Once,
            metavar="R",
            help="family parameter: a rational number or 'symbolic' (default)",
        )
        p.add_argument(
            "--beta",
            action=_Once,
            metavar="R",
            help="second family parameter; defaults to -1-alpha",
        )
        group = p.add_mutually_exclusive_group()
        group.add_argument(
            "--compact", action="store_true", help="bind l1=l2=l3=1"
        )
        group.add_argument(
            "--split", action="store_true", help="bind l1=l2=1, l3=-1"
        )
        group.add_argument(
            "--at",
            action=_Once,
            metavar="BINDINGS",
            help="explicit bindings, e.g. l1=2,l2=3,l3=-1",
        )

    verify = sub.add_parser(
        "verify",
        help="run a verification suite: "
        + ", ".join(SUITE_NAMES + ("all",)),
    )
    verify.add_argument("suite", help="suite name")
    add_bindings(verify)
    verify.add_argument("--json", action="store_true", help="emit JSON")
    verify.add_argument("--out", default=None, metavar="FILE", help="write to FILE")
    verify.set_defaults(fn=_cmd_verify)

    decompose = sub.add_parser(
        "decompose", help="print an annotated index-raised form"
    )
    decompose.add_argument("target", help="phi, q-im, or q-oct")
    add_bindings(decompose)
    decompose.set_defaults(fn=_cmd_decompose)

    hodge = sub.add_parser("hodge", help="print the Hodge constants table")
    add_bindings(hodge)
    hodge.set_defaults(fn=_cmd_hodge)

    export = sub.add_parser(
        "export", help="write structure constants as canonical JSON"
    )
    export.add_argument(
        "--algebra", required=True, help="g2, so7, d21, g3, or f4"
    )
    add_bindings(export)
    export.add_argument("--out", default=None, metavar="FILE", help="write to FILE")
    export.set_defaults(fn=_cmd_export)
    return parser


def _attach_values(argv: Sequence[str]) -> list[str]:
    """Rewrite ``--alpha V`` and ``--beta V`` as ``--alpha=V`` and ``--beta=V``.

    argparse reads a separate value such as ``-1/2`` as an unknown flag; the
    attached spelling is always read as the value.
    """
    out: list[str] = []
    for arg in argv:
        if out and out[-1] in ("--alpha", "--beta"):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(_attach_values(sys.argv[1:] if argv is None else argv))
        return args.fn(args)
    except SpecialOrthoError as err:
        sys.stderr.write(f"error: {err}\n")
        return 2
    except OSError as err:
        sys.stderr.write(f"error: {err}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
