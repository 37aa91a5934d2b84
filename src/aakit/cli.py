"""Command-line front end.

Every subcommand is a thin shell over one or two library calls: read
triple files (or a CSV table for ingest), run the operation, write the
result as canonical triple bytes to -o or standard output.  Exit status
0 on success, 1 on any input or computation error (one-line diagnostic
on stderr), 2 for unknown subcommands or bad usage.
"""

from __future__ import annotations

import argparse
import functools
import sys

from . import algebra, analysis, graph, patterns
from . import io as aio
from .core import (
    ALL,
    AssociativeArray,
    Axis,
    KeyPrefix,
    KeyRange,
    KeySet,
    KeySpec,
    get_semiring,
)
from .store import TableStore


def parse_keyspec(text: str) -> KeySpec:
    """Parse all | set:K1,K2 | range:LO..HI | prefix:P."""
    if text == "all":
        return ALL
    kind, sep, rest = text.partition(":")
    if not sep:
        raise ValueError(
            f"bad key spec {text!r} (expected all, set:..., range:LO..HI or prefix:...)"
        )
    if kind == "set":
        return KeySet(rest.split(","))
    if kind == "range":
        lo, sep2, hi = rest.partition("..")
        if not sep2:
            raise ValueError(f"bad range spec {rest!r} (expected LO..HI)")
        return KeyRange(lo, hi)
    if kind == "prefix":
        return KeyPrefix(rest)
    raise ValueError(f"unknown key spec kind {kind!r}")


# ``read`` and ``render`` default to the triple reader and writer, looked up
# per call so that wrappers set on aio apply.
def _load(path: str, read=None) -> AssociativeArray:
    with open(path, "rb") as f:
        try:
            return (read or aio.read_triples)(f)
        except aio.FormatError as exc:
            raise aio.FormatError(f"{path}: {exc}") from None


def _emit(arr: AssociativeArray, out: str | None, render=None) -> None:
    render = render or aio.write_triples
    if out is None:
        render(arr, sys.stdout.buffer)
        sys.stdout.buffer.flush()
    else:
        with open(out, "wb") as f:
            render(arr, f)


AXES = {"row": Axis.ROW, "col": Axis.COLUMN}


# -- handlers ---------------------------------------------------------------


def _cmd_ingest(args) -> int:
    arr = _load(args.input, aio.read_table if args.format == "table" else None)
    _emit(arr, args.output)
    return 0


def _cmd_op(args) -> int:
    a = _load(args.a)
    b = _load(args.b)
    if args.kind in ("add", "mult", "prod"):
        sr = get_semiring(args.semiring)
        fn = {"add": algebra.eladd, "mult": algebra.elmult, "prod": algebra.arrayprod}
        result = fn[args.kind](a, b, sr)
    elif args.kind == "mask":
        result = algebra.mask_select(a, b)
    else:
        result = algebra.delete_entries(a, b)
    _emit(result, args.output)
    return 0


def _cmd_select(args) -> int:
    arr = _load(args.input)
    _emit(arr.subarray(parse_keyspec(args.rows), parse_keyspec(args.cols)), args.output)
    return 0


def _cmd_pattern(args) -> int:
    arr = _load(args.input)
    check = patterns.is_permutation if args.kind == "perm" else patterns.is_clique
    print("true" if check(arr) else "false")
    return 0


def _cmd_degree(args) -> int:
    _emit(graph.degree(_load(args.input), AXES[args.axis]), args.output)
    return 0


def _cmd_correlate(args) -> int:
    arr = _load(args.input)
    if args.logical:
        arr = arr.logical()
    _emit(graph.correlate(arr), args.output)
    return 0


def _cmd_bfs(args) -> int:
    arr = _load(args.input)
    sources = args.sources.split(",") if args.sources else []
    _emit(graph.bfs(arr, sources, args.steps), args.output)
    return 0


def _cmd_nullspace(args) -> int:
    _emit(analysis.null_space(_load(args.input), args.tol), args.output)
    return 0


def _cmd_rank(args) -> int:
    print(analysis.rank(_load(args.input), args.tol))
    return 0


def _cmd_eigen(args) -> int:
    result = analysis.dominant_eigenpair(_load(args.input), args.tol, args.maxiter)
    print(f"lambda {result.eigenvalue:.12g}")
    print(f"iterations {result.iterations}")
    print(f"residual {result.residual:.12g}")
    if args.output is not None:
        _emit(result.eigenvector, args.output)
    return 0


def _cmd_export_dot(args) -> int:
    _emit(_load(args.input), args.output, aio.export_dot)
    return 0


def _cmd_store(args) -> int:
    if args.kind == "select":
        with TableStore.open(args.dir, read_only=True) as t:
            result = t.select(parse_keyspec(args.rows), parse_keyspec(args.cols))
        _emit(result, args.output)
        return 0
    # The batch or mask is read first, so a bad file neither creates nor locks the table.
    arr = _load(args.file) if args.kind in ("insert", "delete") else None
    with TableStore.open(args.dir) as t:  # init only opens and closes the table
        if args.kind == "insert":
            print(f"records {t.insert(arr)}")
        elif args.kind == "delete":
            print(f"tombstones {t.delete(arr)}")
        elif args.kind == "compact":
            before, after = t.compact()
            print(f"segments {before} -> {after}")
    return 0


# -- parser -----------------------------------------------------------------


def _add_output(p: argparse.ArgumentParser) -> None:
    p.add_argument("-o", "--output", metavar="FILE", default=None,
                   help="write result here instead of standard output")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on first use and shared by every later ``run``."""
    parser = argparse.ArgumentParser(
        prog="aakit",
        description="Associative array algebra over triple files.",
    )
    sub = parser.add_subparsers(dest="command", metavar="COMMAND", required=True)

    p = sub.add_parser("ingest", help="convert a CSV table or triple file to triples")
    p.add_argument("input")
    p.add_argument("--format", choices=("table", "triples"), default="table")
    _add_output(p)
    p.set_defaults(handler=_cmd_ingest)

    p = sub.add_parser("op", help="binary operations on two triple files")
    kinds = p.add_subparsers(dest="kind", required=True)
    for kind in ("add", "mult", "prod", "mask", "delete"):
        k = kinds.add_parser(kind)
        k.add_argument("a")
        k.add_argument("b")
        if kind in ("add", "mult", "prod"):
            k.add_argument("--semiring", default="arith", help="semiring (default arith)")
        _add_output(k)
    p.set_defaults(handler=_cmd_op)

    p = sub.add_parser("select", help="select by row/column key specs")
    p.add_argument("input")
    p.add_argument("--rows", default="all", help="all | set:K1,K2 | range:LO..HI | prefix:P")
    p.add_argument("--cols", default="all")
    _add_output(p)
    p.set_defaults(handler=_cmd_select)

    p = sub.add_parser("pattern", help="test for permutation or clique support")
    p.add_argument("kind", choices=("perm", "clique"))
    p.add_argument("input")
    p.set_defaults(handler=_cmd_pattern)

    p = sub.add_parser("degree", help="entry counts per key on one axis")
    p.add_argument("input")
    p.add_argument("--axis", choices=("row", "col"), default="row")
    _add_output(p)
    p.set_defaults(handler=_cmd_degree)

    p = sub.add_parser("correlate", help="array times its transpose (arith)")
    p.add_argument("input")
    p.add_argument("--logical", action="store_true",
                   help="correlate the support pattern instead of raw values")
    _add_output(p)
    p.set_defaults(handler=_cmd_correlate)

    p = sub.add_parser("bfs", help="frontier reachable in exactly N steps")
    p.add_argument("input")
    p.add_argument("--sources", required=True, help="comma-separated source keys")
    p.add_argument("--steps", type=int, required=True)
    _add_output(p)
    p.set_defaults(handler=_cmd_bfs)

    p = sub.add_parser("nullspace", help="unit-norm right null space basis")
    p.add_argument("input")
    p.add_argument("--tol", type=float, default=analysis.DEFAULT_TOL)
    _add_output(p)
    p.set_defaults(handler=_cmd_nullspace)

    p = sub.add_parser("rank", help="numerical rank")
    p.add_argument("input")
    p.add_argument("--tol", type=float, default=analysis.DEFAULT_TOL)
    p.set_defaults(handler=_cmd_rank)

    p = sub.add_parser("eigen", help="dominant eigenpair by power iteration")
    p.add_argument("input")
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--maxiter", type=int, default=1000)
    _add_output(p)
    p.set_defaults(handler=_cmd_eigen)

    p = sub.add_parser("export-dot", help="render as a DOT digraph")
    p.add_argument("input")
    _add_output(p)
    p.set_defaults(handler=_cmd_export_dot)

    p = sub.add_parser("store", help="persistent table operations")
    kinds = p.add_subparsers(dest="kind", required=True)
    for kind in ("init", "insert", "select", "delete", "compact"):
        k = kinds.add_parser(kind)
        k.add_argument("dir")
        if kind in ("insert", "delete"):
            k.add_argument("file", help="triple file with the batch (insert) or mask (delete)")
        if kind == "select":
            k.add_argument("--rows", default="all")
            k.add_argument("--cols", default="all")
            _add_output(k)
    p.set_defaults(handler=_cmd_store)

    return parser


def run(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except Exception as exc:  # CLI boundary: every library error becomes exit 1
        print(f"aakit: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
