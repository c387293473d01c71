"""Command line driver: bind a DSL program to a CSV and compute or emit SQL."""

from __future__ import annotations

import argparse
import re
import sys

from . import dsl
from . import metrics as m
from .compute import EvalContext, compute_on
from .errors import MetricsError
from .sqlgen import Dialect, to_sql
from .table import read_csv, read_header


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):  # bad flags are user errors: exit 1, not 2
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


def build_arg_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="slicemetrics",
        description="Compute metrics over dimensions from CSV data, or emit the SQL that would.",
    )
    parser.add_argument("--input", help="CSV file with a header row, or '-' for stdin")
    parser.add_argument(
        "--metric", required=True,
        help="metric DSL program, or @file to read the program from a file",
    )
    parser.add_argument("--split-by", default="", help="comma-separated dimension columns")
    parser.add_argument("--mode", choices=["compute", "sql"], default="compute")
    parser.add_argument("--dialect", choices=["portable", "googlesql"], default="portable")
    parser.add_argument("--seed", type=int, default=0, help="seed for bootstrap resampling")
    parser.add_argument("--format", choices=["csv", "table"], default="csv")
    parser.add_argument("--n-rep", type=positive_int, default=None,
                        help="override the replicate count of every bootstrap node")
    return parser


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def main(argv: list[str] | None = None) -> int:
    args = build_arg_parser().parse_args(argv)
    try:
        return _run(args)
    except MetricsError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except Exception as err:  # internal failure, not a user mistake
        print(f"internal error: {type(err).__name__}: {err}", file=sys.stderr)
        return 2


def _run(args) -> int:
    source = args.metric
    if source.startswith("@"):
        with open(source[1:], encoding="utf-8") as handle:
            source = handle.read()
    program = dsl.parse(source, seed=args.seed)
    metrics = list(program.metrics)
    if args.n_rep is not None:
        metrics = [dsl.set_n_rep(metric, args.n_rep) for metric in metrics]
    split_by = tuple(part for part in args.split_by.split(",") if part)

    columns = set(split_by).union(*map(m.columns_read, metrics))
    if args.mode == "sql":  # SQL needs only the header's names
        names, table_name = _load_input(args, read_header)
    else:
        table, table_name = _load_input(args, lambda source: read_csv(source, columns))
        names = None if table is None else table.schema
    if names is not None:
        for metric in metrics:
            m.bind(metric, split_by, names)

    if args.mode == "sql":
        texts = []
        for metric in metrics:
            query = to_sql(metric, table_name, split_by, Dialect(args.dialect))
            texts.append(query.render())
        sys.stdout.write(";\n\n".join(texts) + "\n")
        return 0

    if table is None:
        print("error: --mode compute requires --input", file=sys.stderr)
        return 1
    ctx = EvalContext()
    frame = compute_on(metrics if len(metrics) > 1 else metrics[0], table, split_by, ctx)
    if args.format == "csv":
        sys.stdout.write(frame.to_csv())
    else:
        sys.stdout.write(frame.to_text())
    for warning in ctx.warnings:
        print(f"warning: {warning.kind}: {warning.message}", file=sys.stderr)
    return 0


def _load_input(args, read):
    """``read`` applied to the ``--input`` CSV, and the name SQL mode gives it.

    Compute mode reads only the program's read set with ``read_csv``, and SQL
    mode only the header with ``read_header``; both check the whole header and
    every row's width.
    """
    if args.input is None:
        return None, "data"
    if args.input == "-":
        return read(sys.stdin.buffer.read()), "data"
    with open(args.input, "rb") as handle:
        loaded = read(handle)
    stem = re.sub(r"\.[^.]*$", "", args.input.replace("\\", "/").rsplit("/", 1)[-1])
    name = re.sub(r"[^A-Za-z0-9_]", "_", stem) or "data"
    if name[0].isdigit():
        name = "_" + name
    return loaded, name


if __name__ == "__main__":
    sys.exit(main())
