"""Command-line interface.

Four subcommands: ``verify`` runs one of the named suites (or ``all``) and
exits 0 when every check holds or is vacuous, 1 when any check fails, and 2
on usage or construction errors; ``decompose`` prints the annotated
index-raised forms; ``hodge`` prints the constants table; ``export`` writes a
superalgebra's structure constants as canonical JSON.

Reports are byte-identical across runs with equal flags.
"""

from __future__ import annotations

import sys
from types import SimpleNamespace
from typing import Optional, Sequence

from .errors import ParseError, SpecialOrthoError
from .quadlie import (
    decompose_phi_dual,
    decompose_quad_im,
    decompose_quad_oct,
)
from .scalars import Frac, parse, rat, render
from .suites import MODULES, Workspace, hodge_report, run_suite
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


def _workspace(args: SimpleNamespace) -> Workspace:
    bindings: dict[str, Optional[Frac]] = {"l1": None, "l2": None, "l3": None}
    if args.compact:
        bindings = {k: rat(1) for k in bindings}
    elif args.split:
        bindings = {"l1": rat(1), "l2": rat(1), "l3": rat(-1)}
    elif args.at:
        bindings.update(_parse_at(args.at))
    alpha, beta = args.alpha, args.beta
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


def _cmd_verify(args: SimpleNamespace) -> int:
    ws = _workspace(args)
    report = run_suite(args.suite, ws)
    _emit(report.to_json() if args.json else report.to_text(), args.out)
    return 0 if report.ok else 1


def _cmd_decompose(args: SimpleNamespace) -> int:
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


def _cmd_hodge(args: SimpleNamespace) -> int:
    _emit(hodge_report(_workspace(args)), None)
    return 0


# export key -> (its module, True for g + sl2 + V (x) k^2, False for g)
_EXPORTS = {m.key: (m, True) for m in MODULES.values()}
_EXPORTS.update((m.g, (m, False)) for m in MODULES.values() if m.g)


def _cmd_export(args: SimpleNamespace) -> int:
    ws = _workspace(args)
    found = _EXPORTS.get(args.algebra)
    if found is None:
        raise ParseError(
            f"unknown algebra {args.algebra!r}; expected one of: g2, so7, d21, g3, f4"
        )
    module, whole = found
    if whole:
        sa = build_tilde(getattr(ws, module.cov), module.label)
    else:
        sa = getattr(ws, module.rep).algebra
    params = {name: render(getattr(ws, attr)) for name, attr in module.bindings.items()}
    _emit(export_superalgebra(sa, parameters=params), args.out)
    if args.out:
        sys.stdout.write(
            f"wrote {args.out}: {sa.name} ({sa.even_dim}|{sa.odd_dim})\n"
        )
    return 0


_USAGE = """\
usage: specialortho verify SUITE [--json] [--out FILE] [BINDINGS]
       specialortho decompose TARGET [BINDINGS]
       specialortho hodge [BINDINGS]
       specialortho export --algebra NAME [--out FILE] [BINDINGS]

SUITE: g2, f4, d21, mathews, hodge, decompositions or all.  TARGET: phi,
q-im or q-oct.  NAME: g2, so7, d21, g3 or f4.  BINDINGS: at most one of
--compact (l1=l2=l3=1), --split (l1=l2=1, l3=-1) and --at L (for example
l1=2,l2=3,l3=-1), and --alpha R (symbolic by default) and --beta R
(-1-alpha by default).  --json prints JSON; --out writes to FILE.  A value
follows its flag (--alpha -1/2) or is attached (--alpha=-1/2), and a
unique prefix names a flag (--comp).  Exit 0: every check holds; 1: a
check fails; 2: a usage or construction error.
"""


def _help(args: SimpleNamespace) -> int:
    sys.stdout.write(_USAGE)
    return 0


# each command's flags, True for a flag that takes a value
_BINDINGS = {"alpha": True, "beta": True, "compact": False, "split": False, "at": True}
# command: (its function, its positional argument or None, its flags)
_COMMANDS = {
    "verify": (_cmd_verify, "suite", {**_BINDINGS, "json": False, "out": True}),
    "decompose": (_cmd_decompose, "target", _BINDINGS),
    "hodge": (_cmd_hodge, None, _BINDINGS),
    "export": (_cmd_export, None, {**_BINDINGS, "algebra": True, "out": True}),
}


def _parse_args(argv: Sequence[str]) -> SimpleNamespace:
    """The command, then its positional argument and flags in any order, read
    against _COMMANDS; every usage error is a ParseError.  Any unique prefix
    names a flag, and a value that is not attached (--at=...) is the next
    argument unless that starts with "--".  --alpha, --beta and --at may be
    given once; a later --out or --algebra replaces an earlier one.
    """
    command, *rest = argv or ("",)
    if command in ("-h", "--help"):
        return SimpleNamespace(fn=_help)
    if command not in _COMMANDS:
        raise ParseError(
            (f"unknown command {command!r}" if command else "no command")
            + "; expected one of: " + ", ".join(_COMMANDS)
        )
    fn, positional, flags = _COMMANDS[command]
    args = SimpleNamespace(
        command=command, fn=fn, **{n: None if v else False for n, v in flags.items()}
    )
    positionals = []
    rest = iter(rest)
    for arg in rest:
        if arg[:1] != "-":
            positionals.append(arg)
            continue
        text, attached, value = ("--help" if arg == "-h" else arg).partition("=")
        names = [f"--{n}" for n in (*flags, "help") if f"--{n}".startswith(text)]
        if len(names) != 1:
            found = ", ".join(names) or "no flag"
            raise ParseError(f"{text} matches {found} of {command}")
        name = names[0][2:]
        takes_value = flags.get(name, False)
        if attached and not takes_value:
            raise ParseError(f"--{name} takes no value")
        if name == "help":
            return SimpleNamespace(fn=_help)
        if not takes_value:
            setattr(args, name, True)
            continue
        if not attached:
            value = next(rest, "--")
            if value.startswith("--"):
                raise ParseError(f"--{name} expects a value")
        if name in ("alpha", "beta", "at") and getattr(args, name) is not None:
            raise ParseError(f"--{name} is given more than once")
        setattr(args, name, value)
    if len(positionals) != (positional is not None):
        raise ParseError(
            f"unexpected argument {positionals[-1]!r}"
            if positionals
            else f"{command} expects a {positional}"
        )
    if positional:
        setattr(args, positional, positionals[0])
    if args.compact + args.split + (args.at is not None) > 1:
        raise ParseError("--compact, --split and --at exclude each other")
    if command == "export" and args.algebra is None:
        raise ParseError("export expects --algebra")
    return args


def _build_parser() -> SimpleNamespace:
    return SimpleNamespace(parse_args=_parse_args)


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _parse_args(sys.argv[1:] if argv is None else argv)
        return args.fn(args)
    except (SpecialOrthoError, OSError) as err:
        sys.stderr.write(f"error: {err}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
