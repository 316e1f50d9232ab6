"""Command-line interface.

Exit codes: 0 all applicable checks pass; 2 structural failure (the input
is not an almost alpha-paracosymplectic structure); 3 a derived
identity failed; 4 parse or usage error.  Set PARACOSYM_VERBOSITY to 0, 1,
or 2 to control the text rendering.

`run`, the process entry of `python -m paracosym.cli` and the `paracosym`
script, runs without the cyclic collector and ends with `os._exit` after
flushing stdout and stderr, so an `atexit` handler registered in such a
process does not run; library callers use `main`, which returns the exit
code.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
from typing import TYPE_CHECKING, List, NoReturn, Optional

from .errors import (
    EXIT_PARSE,
    EXIT_STRUCTURAL,
    DefinitionError,
    DeformationParameterError,
    EngineError,
    ParseError,
)

if TYPE_CHECKING:
    from fractions import Fraction


def _verbosity() -> int:
    raw = os.environ.get("PARACOSYM_VERBOSITY", "1")
    try:
        return max(0, min(2, int(raw)))
    except ValueError:
        return 1


def _read(path: str) -> str:
    # utf-8-sig drops the byte-order mark that some editors save
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise DefinitionError(f"cannot read {path}: {exc}") from exc


def _parse_point(raw: str, context) -> List[Fraction]:
    from .parser import _parse_rational
    from .scalars import PointValues

    dim = context.dim
    if dim != 3:
        # the point feeds only the h-type classification, which is 3D
        raise DefinitionError(f"--point applies to a 3-dimensional definition only, not dim {dim}")
    parts = raw.split(",")
    if len(parts) != dim:
        raise DefinitionError(f"--point needs {dim} comma-separated rationals")
    point = [_parse_rational(p) for p in parts]
    PointValues(context, point)  # refuses a generator power above the bound
    return point


def _emit(report, as_json: bool) -> int:
    if as_json:
        sys.stdout.write(report.to_json())
    else:
        sys.stdout.write(report.render_text(_verbosity()))
    return report.exit_code


class _ArgumentParser(argparse.ArgumentParser):
    """argparse with the documented usage-error exit code, EXIT_PARSE; its
    subparsers are of this class too."""

    def error(self, message: str) -> NoReturn:
        self.print_usage(sys.stderr)
        self.exit(EXIT_PARSE, f"{self.prog}: error: {message}\n")


def main(argv: Optional[List[str]] = None) -> int:
    parser = _ArgumentParser(
        prog="paracosym",
        description="Exact verification and classification of almost "
        "alpha-paracosymplectic structures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="check the structural axioms and the alpha gate")
    p_verify.add_argument("file")
    p_verify.add_argument("--json", action="store_true")

    p_analyze = sub.add_parser("analyze", help="run the full analysis pipeline")
    p_analyze.add_argument("file")
    p_analyze.add_argument("--json", action="store_true")
    p_analyze.add_argument("--point", help="rational evaluation point, e.g. 1,1,0")

    p_deform = sub.add_parser("deform", help="apply a deformation and verify its laws")
    p_deform.add_argument("file")
    p_deform.add_argument("--json", action="store_true")
    p_deform.add_argument("--gamma", help="positive rational")
    p_deform.add_argument("--beta", help="scalar expression with d(beta) ^ eta = 0")
    p_deform.add_argument("--conformal-u", dest="u", help="scalar u with du = alpha*eta")

    p_cat = sub.add_parser("catalog", help="list or emit built-in charts")
    group = p_cat.add_mutually_exclusive_group()
    group.add_argument("--list", action="store_true")
    group.add_argument("--emit", metavar="NAME")

    args = parser.parse_args(argv)
    try:
        return _dispatch(args)
    except (ParseError, DefinitionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (DeformationParameterError, EngineError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_STRUCTURAL


def _dispatch(args) -> int:
    if args.command == "catalog":
        return _catalog(args)

    # the other commands read a definition: only they load the engine
    from .parser import _parse_rational, load_definition, parse_scalar
    from .report import run_analyze, run_deform, run_verify

    defn = load_definition(_read(args.file))
    if args.command == "verify":
        return _emit(run_verify(defn), args.json)

    if args.command == "analyze":
        point = _parse_point(args.point, defn.context()) if args.point else None
        return _emit(run_analyze(defn, point), args.json)

    if args.command == "deform":
        ctx = defn.context()
        if args.u is not None:
            if args.gamma or args.beta:
                raise DefinitionError("--conformal-u excludes --gamma/--beta")
            u = parse_scalar(args.u, ctx)
            return _emit(run_deform(defn, u=u), args.json)
        if not args.gamma or not args.beta:
            raise DefinitionError("deform needs --gamma and --beta, or --conformal-u")
        gamma = _parse_rational(args.gamma)
        beta = parse_scalar(args.beta, ctx)
        return _emit(run_deform(defn, gamma=gamma, beta=beta), args.json)

    raise DefinitionError(f"unknown command {args.command!r}")


def _catalog(args) -> int:
    from .catalog import catalog, catalog_entry

    if args.emit:
        try:
            entry = catalog_entry(args.emit)
        except KeyError as exc:
            print(f"error: {exc.args[0]}", file=sys.stderr)
            return EXIT_PARSE
        sys.stdout.write(entry.definition_text.lstrip("\n"))
        return 0
    for entry in catalog():
        marker = " (negative control)" if entry.negative_control else ""
        print(f"{entry.name}{marker}: {entry.notes}")
    return 0


def run(argv: Optional[List[str]] = None) -> NoReturn:
    """Run `main` as the whole process and end it at the last byte written.

    The engine builds acyclic values and the heap lives until exit, so
    neither the cyclic collector nor the interpreter's teardown has work
    worth doing.  An exception from `main` or from a flush propagates, and
    the interpreter then exits as usual."""
    gc.disable()
    code = main(argv)
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    run()
