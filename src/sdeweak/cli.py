"""Command-line surface: verification commands and the pricing benchmark.

Machine-first output: CSV goes to stdout (or --out), a short human summary to
stderr.  Exit codes: 0 success, 1 verification failure, 2 usage error (a
malformed argument or config, or a run too large to allocate), 3 numerical
failure (a non-finite Runge-Kutta state; the message names the stage, the
step, the first failing path and the cell).  Exits 2 and 3 print one
``sdeweak <command>: ...`` line on stderr.  With identical arguments and
seed every subcommand's primary output is byte-identical; wall-clock timings
are therefore excluded from the CSV unless --timings is passed.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import sys
import warnings
from dataclasses import fields
from fractions import Fraction
from pathlib import Path

from .freealg import words_per_degree
from .heston_bench import (
    BenchConfig,
    Cell,
    HestonParams,
    MAX_SAMPLES,
    MAX_WORKERS,
    check_cell,
    convergence_study,
    count,
    price_cell,
    result_rows,
)
from .moment_match import UPPER, LOWER, residual_table, solution_params
from .refusal import SHOWN, shown
from .rk_trees import ButcherTableau, check_order
from .rk_integrator import IntegrationFailure, builtin_tableau
from .sampling import MC, QMC
from .schemes import KINDS

FLOAT_TOL = 1e-12


def _rational(value, what: str) -> Fraction:
    """A rational number from typed text or a JSON number: ``--u``, a config's
    ``u`` and a ``--perturb`` shift; check_family checks a u.

    A refusal names a long value by its first characters and its length, so a
    text past Python's 4300-digit integer limit is refused in one short line.
    """
    try:
        if isinstance(value, bool) or not isinstance(value, (str, int, float)):
            raise ValueError
        return Fraction(str(value))
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(
            f"{what} must be a rational number, got {shown(value)}") from None


def _u_fraction(value) -> Fraction:
    return _rational(value, "u")


def _count_text(text: str) -> int | float:
    """A count as typed: an integer, or a number a float holds exactly, such as 2e5.

    :func:`heston_bench.count` checks it where it is used, as it checks a
    config's counts (so ``2.5`` and ``0`` get the config's messages);
    ``1e300`` is refused here, because no float holds 10^300.
    """
    try:
        return int(text)
    except ValueError:
        pass
    try:
        value = float(text)
        if math.isfinite(value) and Fraction(text) == value:
            return value
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(
        f"expected an integer or a number a float holds exactly, got {shown(text)}")


def _perturbation(text: str) -> tuple[str, Fraction]:
    if "=" not in text:
        raise argparse.ArgumentTypeError("perturbation must look like R12=+0.1")
    key, _, val = text.partition("=")
    return key.strip().lower(), _rational(val.strip(), "perturbation")


def _error_text(exc: Exception, room: int = 100) -> str:
    """``str(exc)``, but an OSError's file name whose repr is wider than ``room``
    bytes is named by its head and length, so that its refusal stays one line
    under 200 bytes; a name that fits is shown in full, as real paths are often long."""
    if not isinstance(exc, OSError) or len(repr(exc.filename).encode()) <= room:
        return str(exc)
    return f"[Errno {exc.errno}] {exc.strerror}: {shown(exc.filename)}"


class _LongInteger:
    """A JSON integer past Python's 4300-digit parse limit.  No input takes one,
    so the check of the key that holds it refuses it, naming it by its length."""

    def __init__(self, text: str):
        self.digits = len(text.lstrip("-"))

    def __repr__(self):
        return f"{self.digits} digits, more than Python reads"


def _load_json(path: str):
    """A config's or a tableau file's value; an integer past the limit is a _LongInteger."""
    def parse_int(text):
        try:
            return int(text)
        except ValueError:
            return _LongInteger(text)

    with open(path, encoding="utf-8") as fh:
        return json.load(fh, parse_int=parse_int)


def _check_keys(data: dict, allowed: tuple[str, ...], label: str) -> None:
    """Refuse keys outside ``allowed``, naming the first three, or as many of
    them as fit in 2 * SHOWN bytes, and counting the rest."""
    unknown = sorted(set(data) - set(allowed))
    if unknown:
        named = [shown(key) for key in unknown[:3]]
        while len(named) > 1 and len(", ".join(named).encode()) > 2 * SHOWN:
            named.pop()
        more = len(unknown) - len(named)
        raise ValueError(f"unknown {label} {', '.join(named)}"
                         + (f" and {more} more" if more else ""))


def _emit(lines, path: str | None) -> None:
    out = open(path, "w", encoding="utf-8") if path else sys.stdout
    try:
        for line in lines:
            print(line, file=out)
    finally:
        if out is not sys.stdout:
            out.close()


# ---------------------------------------------------------------------------
# verify-moments
# ---------------------------------------------------------------------------


#: verify-moments builds and holds every word up to --m (--m 7 --d 6 is 392,464)
_MAX_WORDS = 1 << 20


def _check_word_count(m: int, d: int) -> None:
    """Refuse an --m/--d pair with too many words, before any word is built."""
    total = 0
    for count in itertools.islice(words_per_degree(d), m + 1):
        total += count
        if total > _MAX_WORDS:
            raise ValueError(f"--m {m} --d {d} has more than {_MAX_WORDS} words "
                             f"(2^20), the most verify-moments builds")


def cmd_verify_moments(args) -> int:
    m, d = count(args.m, "--m"), count(args.d, "--d")
    _check_word_count(m, d)
    params = solution_params(args.u, args.branch)
    for key, delta in args.perturb:
        params = params.perturbed(**{key: delta})
    rows = residual_table(params, m, d)
    tol = 0 if params.is_exact else FLOAT_TOL
    worst = max(abs(float(residual)) for *_, residual in rows)
    _emit(itertools.chain(["word,coefficient,target,residual"],
                          (f"{word},{coeff},{target},{residual}"
                           for word, coeff, target, residual in rows)), args.out)
    status = "PASS" if worst <= tol else "FAIL"
    u = str(args.u)
    print(f"verify-moments: u={u if len(u) <= SHOWN else shown(u)} branch={args.branch} "
          f"m={m} d={d} "
          f"mode={'exact' if params.is_exact else 'float'} words={len(rows)} "
          f"max|residual|={worst:.3e} {status}",
          file=sys.stderr)
    return 0 if worst <= tol else 1


# ---------------------------------------------------------------------------
# verify-rk-order
# ---------------------------------------------------------------------------


_TABLEAU_KEYS = ("name", "order", "a", "b")


def _load_tableau(spec: str) -> ButcherTableau:
    try:
        is_file = Path(spec).suffix == ".json" or Path(spec).exists()
    except OSError:  # a name too long for the file system names no file
        is_file = False
    if is_file:
        try:
            data = _load_json(spec)
            if isinstance(data, dict):
                _check_keys(data, _TABLEAU_KEYS, "tableau key(s)")
            return ButcherTableau.from_mapping(data)
        except (OSError, ValueError, TypeError, ZeroDivisionError) as exc:
            # the spec is on the command line; an OSError's text names it too,
            # after 46 bytes more of refusal than main's file names
            raise argparse.ArgumentTypeError(
                f"cannot load tableau file: {_error_text(exc, 50)}") from exc
    try:
        return builtin_tableau(spec)
    except KeyError as exc:  # str() of a KeyError is the repr of its message
        raise argparse.ArgumentTypeError(exc.args[0]) from exc


#: rooted trees take about 6x longer to enumerate per order: up to order 12
#: 0.6 s, 13 3.8 s and 14 22 s, so order 20 would run for days
_MAX_ORDER = 14


def cmd_verify_rk(args) -> int:
    tableau, order = args.tableau, count(args.order, "--order", most=_MAX_ORDER)
    report = check_order(tableau, order)
    lines = ["tree,vertices,lhs,rhs,pass"]
    for cond in report:
        lines.append(f"{cond.tree},{cond.tree.order},{cond.lhs},{cond.rhs},"
                     f"{int(cond.passed)}")
    _emit(lines, args.out)
    failures = sum(1 for c in report if not c.passed)
    status = "PASS" if failures == 0 else "FAIL"
    name = shown(tableau.name) if tableau.name else "custom"
    print(f"verify-rk-order: tableau={name} order={order} "
          f"conditions={len(report)} failures={failures} {status}", file=sys.stderr)
    return 0 if failures == 0 else 1


# ---------------------------------------------------------------------------
# price / converge
# ---------------------------------------------------------------------------


_HESTON_KEYS = tuple(f.name for f in fields(HestonParams))


def _heston_from_mapping(data: dict) -> HestonParams:
    if not isinstance(data, dict):
        raise ValueError("heston must be a JSON object")
    _check_keys(data, _HESTON_KEYS, "heston key(s)")
    return HestonParams(**data)


def _axis(value, what: str) -> list:
    """One value or a non-empty list of values (a cell's grid axis); Cell checks each."""
    if value == []:
        raise ValueError(f"{what} must not be an empty list")
    return value if isinstance(value, list) else [value]


def _load_config(path: str | None) -> dict:
    if not path:
        return {}
    raw = _load_json(path)
    if not isinstance(raw, dict):
        raise ValueError("config must be a JSON object")
    return raw


_CONFIG_KEYS = tuple(f.name for f in fields(BenchConfig)) + ("cells",)
#: read as they are; BenchConfig checks them
_PLAIN_KEYS = tuple(key for key in _CONFIG_KEYS if key not in ("heston", "u", "cells"))
_FLAG_KEYS = ("u", "branch", "seed", "sobol_skip", "workers")


def _config_from_mapping(raw: dict, args) -> BenchConfig:
    _check_keys(raw, _CONFIG_KEYS, "config key(s)")
    for key, value in raw.items():  # a JSON null is refused, not read as the default
        if value is None:
            raise ValueError(f"{key} must not be null")
    values = {key: raw[key] for key in _PLAIN_KEYS if key in raw}
    values["heston"] = _heston_from_mapping(raw.get("heston", {}))
    if "u" in raw:
        values["u"] = _u_fraction(raw["u"])
    # explicit flags override the file
    values.update({key: getattr(args, key) for key in _FLAG_KEYS
                   if getattr(args, key) is not None})
    return BenchConfig(**values)


def _reference_text(reference: float | None) -> str:
    return "none" if reference is None else str(reference)


def cmd_price(args) -> int:
    config = _config_from_mapping(_load_config(args.config), args)
    cell = Cell(args.scheme, count(args.n, "--n"),
                count(args.samples, "--samples", most=MAX_SAMPLES), args.mode,
                use_romberg=args.romberg)
    c = price_cell(config, cell)
    _emit(result_rows((c,), timings=args.timings), args.out)
    err = "n/a" if c.error is None else f"{c.error:.3e}"
    print(f"price: {cell.kind} n={cell.partitions} M={cell.samples} {cell.mode}"
          f"{' +romberg' if cell.use_romberg else ''} estimate={c.estimate:.10f} "
          f"error={err} reference={_reference_text(config.reference_price)} [{c.seconds:.1f}s]",
          file=sys.stderr)
    return 0


_CELL_KEYS = ("scheme", "n", "samples", "mode", "romberg")


def _cell_grid(item) -> list[Cell]:
    """The cells of one config entry: every n crossed with every sample count."""
    if not isinstance(item, dict):
        raise ValueError(f"a cell must be a JSON object, got {shown(item)}")
    _check_keys(item, _CELL_KEYS, "key(s)")
    missing = [key for key in ("scheme", "n", "samples") if key not in item]
    if missing:
        raise ValueError(f"missing key(s) {', '.join(missing)}")
    return [Cell(item["scheme"], n, m, item.get("mode", QMC),
                 use_romberg=item.get("romberg", False))
            for n in _axis(item["n"], "n")
            for m in _axis(item["samples"], "samples")]


def _cells_from_mapping(raw: dict, config: BenchConfig) -> list[Cell]:
    items = raw.get("cells", [])
    if not isinstance(items, list):
        raise ValueError("cells must be a list of objects")
    cells = []
    for i, item in enumerate(items):
        try:
            grid = _cell_grid(item)
            for cell in grid:
                check_cell(config, cell)
            cells.extend(grid)
        except ValueError as exc:
            raise ValueError(f"cells[{i}]: {exc}") from None
    if not cells:
        raise ValueError("config contains no cells")
    return cells


def cmd_converge(args) -> int:
    raw = _load_config(args.config)
    config = _config_from_mapping(raw, args)
    cells = _cells_from_mapping(raw, config)
    results = convergence_study(config, cells)
    _emit(result_rows(results, timings=args.timings), args.out)
    total = sum(c.seconds for c in results)
    print(f"converge: {len(results)} cells, "
          f"reference={_reference_text(config.reference_price)} [{total:.1f}s]", file=sys.stderr)
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """A parser, and through ``add_subparsers`` its subparsers, whose every
    error is one ``<prog>: error: ...`` line and exit 2, without the usage block."""

    def error(self, message):
        self.exit(2, f"{self.prog}: error: {message}\n")

    def _check_value(self, action, value):
        # argparse's own check, with a long refused value named by its head
        if action.choices is not None and value not in action.choices:
            choices = ", ".join(map(repr, action.choices))
            raise argparse.ArgumentError(
                action, f"invalid choice: {shown(value)} (choose from {choices})")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="sdeweak",
        description="Moment-matched splitting scheme for weak SDE approximation: "
                    "symbolic verification, certified Runge-Kutta order checks, and "
                    "the Heston Asian-option benchmark.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    vm = sub.add_parser("verify-moments",
                        help="check E[exp(Z1)exp(Z2)] against exp(v0 + (1/2) sum v_i^2)")
    vm.add_argument("--u", type=_u_fraction, default=Fraction(3, 4),
                    help="family parameter, a rational >= 1/2 (default 3/4)")
    vm.add_argument("--branch", choices=(UPPER, LOWER), default=LOWER)
    vm.add_argument("--m", type=_count_text, default=5, help="truncation degree (default 5)")
    vm.add_argument("--d", type=_count_text, default=2, help="Brownian dimension (default 2)")
    vm.add_argument("--perturb", type=_perturbation, action="append", default=[],
                    metavar="KEY=DELTA", help="shift an R entry, e.g. R12=+0.1")
    vm.add_argument("--out", help="write CSV here instead of stdout")
    vm.set_defaults(func=cmd_verify_moments)

    vr = sub.add_parser("verify-rk-order", help="certify a Butcher tableau by rooted trees")
    vr.add_argument("--tableau", required=True, type=_load_tableau,
                    help="builtin name (rk5-butcher, rk7-butcher) or a JSON file")
    vr.add_argument("--order", type=_count_text, required=True,
                    help=f"the order to certify, at most {_MAX_ORDER}")
    vr.add_argument("--out", help="write CSV here instead of stdout")
    vr.set_defaults(func=cmd_verify_rk)

    def add_run_flags(p):
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--u", type=_u_fraction, default=None)
        p.add_argument("--branch", choices=(UPPER, LOWER), default=None)
        p.add_argument("--seed", type=_count_text, default=None)
        p.add_argument("--sobol-skip", dest="sobol_skip", type=_count_text, default=None)
        p.add_argument("--workers", type=_count_text, default=None,
                       help=f"worker threads, at most {MAX_WORKERS} "
                            "(default: all cores; results identical)")
        p.add_argument("--timings", action="store_true",
                       help="append a volatile seconds column to the CSV")
        p.add_argument("--out", help="write CSV here instead of stdout")

    pr = sub.add_parser("price", help="price the Asian option with one scheme setting")
    pr.add_argument("--scheme", choices=KINDS, required=True)
    pr.add_argument("--n", type=_count_text, required=True,
                    help="partitions (fine level for Romberg)")
    pr.add_argument("--romberg", action="store_true",
                    help="combine runs at n and n/2 at the scheme's weak order")
    pr.add_argument("--mode", choices=(QMC, MC), default=QMC)
    pr.add_argument("--samples", type=_count_text, required=True)
    add_run_flags(pr)
    pr.set_defaults(func=cmd_price)

    cv = sub.add_parser("converge", help="run the benchmark cells listed in a config file")
    add_run_flags(cv)
    cv.set_defaults(func=cmd_converge)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args, extra = parser.parse_known_args(argv)
    # the top-level parser reports unknown arguments without the command's name
    prog = f"{parser.prog} {args.command}"
    if extra:
        parser.exit(2, f"{prog}: error: unrecognized arguments: {' '.join(extra)}\n")
    if args.command == "converge" and not args.config:
        parser.exit(2, f"{prog}: error: --config is required\n")
    try:
        if args.out:  # refused before any work; appending keeps an existing file's bytes
            new = not os.path.lexists(args.out)
            open(args.out, "a", encoding="utf-8").close()
            if new:
                os.remove(args.out)
        with warnings.catch_warnings():
            # numpy's overflow / invalid-value warnings would precede the
            # one-line report of the failure they lead to
            warnings.filterwarnings("ignore", message=".* encountered in ",
                                    category=RuntimeWarning)
            return args.func(args)
    # a config's u is parsed as a flag's is, so it can raise ArgumentTypeError here
    except (ValueError, KeyError, OSError, argparse.ArgumentTypeError) as exc:
        print(f"{prog}: error: {_error_text(exc)}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        # a request no machine can hold, such as a Monte Carlo cell with 1e15 steps
        detail = f": {exc}" if str(exc) else ""
        print(f"{prog}: error: out of memory{detail}", file=sys.stderr)
        return 2
    except IntegrationFailure as exc:
        print(f"{prog}: numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
