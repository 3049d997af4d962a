"""Command-line front end.

Subcommands: decode, encode, stat, table, verify, selftest.  Exit codes:
0 success, 1 computation error, 2 usage error, 3 verification mismatch.
Each command imports the modules it runs when it runs, so that `decode`
and `encode` load no statistics and `stat` loads no trees; `selftest`
loads its modules before it builds the parser.  `entry`, the process entry
of `matula` and `python -m matula`, freezes the heap (`gc.freeze`) once
`main` is done, so that the collections the interpreter makes as it exits
do not sweep it; `main` itself, which tests and tracers call in-process,
leaves the collector alone.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys

from .errors import MatulaError, ParseError

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_USAGE = 2
EXIT_MISMATCH = 3

# `table` hands stdout one string per batch of lines, so the number of
# writes does not depend on whether stdout is buffered (`python -u`,
# PYTHONUNBUFFERED makes each write a system call).  A batch ends at
# whichever bound it reaches first.
_BATCH_LINES = 512
_BATCH_CHARS = 1 << 16


def parse_bfile(text: str) -> list[tuple[int, int]]:
    """Parse "index value" lines into ascending (index, value) pairs.

    '#' comments and blank lines are skipped.
    """
    entries: list[tuple[int, int]] = []
    offset = 0
    last_index: int | None = None
    for line in text.splitlines(keepends=True):
        stripped = line.strip()
        if stripped and not stripped.startswith("#"):
            parts = stripped.split()
            if len(parts) != 2:
                raise ParseError(
                    f"expected 'index value', got {stripped!r}", offset
                )
            try:
                index, value = int(parts[0]), int(parts[1])
            except ValueError:
                raise ParseError(
                    f"non-integer token in line {stripped!r}", offset
                ) from None
            if last_index is not None and index <= last_index:
                raise ParseError(
                    f"indices must be strictly increasing ({index} after {last_index})",
                    offset,
                )
            last_index = index
            entries.append((index, value))
        offset += len(line.encode("utf-8"))
    return entries


def _stat_name(raw: str):
    from .stats import StatName

    try:
        return StatName.from_string(raw)
    except MatulaError:
        raise argparse.ArgumentTypeError(f"unknown statistic name {raw!r}") from None


def _alpha(raw: str):
    from fractions import Fraction

    try:
        return Fraction(raw)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"cannot parse alpha {raw!r}") from None


def _int_arg(raw: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {raw!r}") from None


def _int_at_least(minimum: int):
    """An argparse type for integers >= minimum."""

    def parse(raw: str) -> int:
        value = _int_arg(raw)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"expected an integer >= {minimum}, got {raw!r}")
        return value

    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="matula",
        description="Matula numbers: decode/encode rooted trees and compute tree statistics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decode", help="print the rooted tree for a Matula number")
    p.add_argument("n", type=_int_arg)
    p.add_argument("--format", choices=("paren", "json", "dot"), default="paren")

    p = sub.add_parser("encode", help="print the Matula number of a parenthesized tree")
    p.add_argument("tree", help='canonical form, e.g. "(()())"')

    p = sub.add_parser("stat", help="print one statistic of one Matula number")
    p.add_argument("name", type=_stat_name)
    p.add_argument("n", type=_int_arg)
    p.add_argument("--alpha", type=_alpha, default=None)
    p.add_argument("--k", type=_int_at_least(0), default=None)

    p = sub.add_parser("table", help="print 'n value' lines for a range of n")
    p.add_argument("name", type=_stat_name)
    p.add_argument("lo", type=_int_at_least(1))
    p.add_argument("hi", type=_int_at_least(1))
    p.add_argument("--bfile", action="store_true", help="integer-only b-file output")
    p.add_argument("--alpha", type=_alpha, default=None)
    p.add_argument("--k", type=_int_at_least(0), default=None)

    p = sub.add_parser("verify", help="check computed values against an OEIS b-file")
    p.add_argument("name", type=_stat_name)
    p.add_argument("bfile_path")
    p.add_argument(
        "--limit", type=_int_at_least(0), default=None, help="check at most K entries"
    )

    p = sub.add_parser("selftest", help="recursion-vs-oracle and split-invariance checks")
    p.add_argument("--max-n", type=_int_at_least(1), default=300)
    p.add_argument("--seed", type=int, default=0)

    return parser


def _cmd_decode(args) -> int:
    from . import tree

    t = tree.decode(args.n)
    if args.format == "paren":
        print(tree.to_canonical_string(t))
    elif args.format == "json":
        print(tree.to_json(t, indent=2))
    else:
        print(tree.to_dot(t))
    return EXIT_OK


def _cmd_encode(args) -> int:
    from . import tree

    t = tree.parse_canonical_string(args.tree.strip())
    print(tree.encode(t))
    return EXIT_OK


def _cmd_stat(args) -> int:
    from . import stats

    engine = stats.default_engine()
    value = engine.compute(args.name, args.n, alpha=args.alpha, k=args.k)
    print(value)
    return EXIT_OK


def _cmd_table(args) -> int:
    from . import stats

    engine = stats.default_engine()
    # A call that its first line would refuse is refused before the range pass.
    stats._params(stats.STATISTICS[args.name], args.alpha, args.k, args.lo)
    engine.fill(args.name, args.lo, args.hi, alpha=args.alpha)
    write = sys.stdout.write
    batch: list[str] = []
    size = 0
    try:
        for n in range(args.lo, args.hi + 1):
            value = engine.compute(args.name, n, alpha=args.alpha, k=args.k)
            if args.bfile and not isinstance(value, int):
                raise MatulaError(
                    f"--bfile needs an integer-valued statistic, {args.name.value} gave {value!r}"
                )
            line = f"{n} {value}\n"
            batch.append(line)
            size += len(line)
            if len(batch) == _BATCH_LINES or size >= _BATCH_CHARS:
                text, batch, size = "".join(batch), [], 0
                write(text)
    finally:  # the lines before an error are printed, as they were one by one
        if batch:
            write("".join(batch))
    return EXIT_OK


def _cmd_verify(args) -> int:
    from . import stats

    with open(args.bfile_path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError("b-file is not UTF-8", exc.start) from None
    entries = parse_bfile(text)
    if args.limit is not None:
        entries = entries[: args.limit]
    engine = stats.default_engine()
    for index, expected in entries:
        got = engine.compute(args.name, index)
        if got != expected:
            print(
                f"mismatch at index {index}: computed {got}, "
                f"b-file has {expected}"
            )
            return EXIT_MISMATCH
    print(f"verified {len(entries)} terms of {args.name.value}: 0 mismatches")
    return EXIT_OK


def _cmd_selftest(args) -> int:
    from . import oracle, primes, stats

    engine = stats.StatsEngine()
    failures: list[str] = []
    for n in range(1, args.max_n + 1):
        failures.extend(oracle.compare_all(n, engine))
    print(f"recursion vs oracle: n = 1..{args.max_n}, {len(failures)} mismatches")

    split_failures = 0
    composites = 0
    for n in range(4, args.max_n + 1):
        if primes.factorize(n).omega >= 2:
            composites += 1
            if not oracle.random_split_check(n, args.seed + n, engine):
                split_failures += 1
                failures.append(f"n={n}: random split disagreed")
    print(f"random split checks: {composites} composites, {split_failures} failures")

    if failures:
        for line in failures[:20]:
            print(f"FAIL {line}")
        return EXIT_ERROR
    print("selftest OK")
    return EXIT_OK


def _discard_stdout() -> None:
    """Drop stdout's pending output: point fd 1 at devnull, so that flushing
    stdout at shutdown cannot fail again."""
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, sys.stdout.fileno())
    os.close(devnull)


_COMMANDS = {
    "decode": _cmd_decode,
    "encode": _cmd_encode,
    "stat": _cmd_stat,
    "table": _cmd_table,
    "verify": _cmd_verify,
    "selftest": _cmd_selftest,
}


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["selftest"]:
        # Compiled before the parser exists, the engine and then the oracle
        # leave a lower peak RSS: 16.7 MB for `selftest --max-n 150`, against
        # 17.0 MB when they load after the parser is built.
        from . import stats, oracle  # noqa: F401
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "table" and args.lo > args.hi:
        parser.error(f"table needs lo <= hi, got lo={args.lo} hi={args.hi}")
    # Parsed input kept Python's digit limit (0 = none, or a Python without
    # one); an exact answer prints in full.
    digit_limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if digit_limit:
        sys.set_int_max_str_digits(0)
    try:
        code = _COMMANDS[args.command](args)
        sys.stdout.flush()  # a closed pipe shows here, not at shutdown
        return code
    except BrokenPipeError:  # the reader of stdout has gone: stop without a message
        _discard_stdout()
        return EXIT_ERROR
    except (MatulaError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        try:
            sys.stdout.flush()
        except OSError:  # stdout itself failed (a full disk, say): say so once
            _discard_stdout()
        return EXIT_ERROR
    finally:
        if digit_limit:
            sys.set_int_max_str_digits(digit_limit)


def entry() -> None:
    """The process entry of `matula` and `python -m matula`: run main and exit
    with its code.  Once main has returned or raised, gc.freeze moves every
    object it left to the permanent generation, which the collections the
    interpreter makes as it exits never sweep; main itself leaves the collector
    alone, since in-process callers keep running."""
    try:
        code = main()
    finally:
        gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    entry()
