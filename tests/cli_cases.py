"""The command-line contract of ``sdeweak``, one case per row, and its one check.

README's contract: every command line ends in exit 0 (success), 1 (a failed
verification), 2 (refused input, or a run too large to allocate) or 3 (a
numerical failure), never in a traceback.  Exits 2 and 3 print nothing on
stdout and one stderr line under 200 bytes, ``sdeweak <command>: ...``.

A case is an argv, the files it reads, its exit code and, for exits 2 and 3,
its line.  ``tests/test_cli.py`` checks every case in-process through
``cli.main``.  Run as a script, this file checks every case against the
``sdeweak`` command on PATH and names each case that fails::

    python tests/cli_cases.py
"""

from __future__ import annotations

import errno
import json
import os
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

#: in an argv or a line, the case's own directory, where its files are written
TMP = "TMP"


@dataclass(frozen=True)
class Case:
    """One command line and how the contract says it ends."""

    id: str
    argv: tuple[str, ...]
    code: int
    #: stderr's one line after ``sdeweak <command>: ``, for exits 2 and 3
    line: str | None = None
    #: a file name in TMP -> its content, a mapping written as JSON or the text itself
    files: dict = field(default_factory=dict)
    #: False where ``line`` holds OS text: it is then a fragment of stderr's line
    exact: bool = True
    #: an exit 2 that may do work first (running out of memory); every other
    #: exit 2 is a refusal that must not
    works: bool = False

    @property
    def may_work(self) -> bool:
        return self.code != 2 or self.works

    def prepare(self, tmp) -> list[str]:
        """Write the case's files into ``tmp``; its argv with TMP read as ``tmp``."""
        for name, content in self.files.items():
            text = content if isinstance(content, str) else json.dumps(content)
            Path(tmp, name).write_text(text, encoding="utf-8")
        return [arg.replace(TMP, str(tmp)) for arg in self.argv]


def check(case: Case, code, out: str, err: str, tmp) -> None:
    """The contract for one run of ``case`` in ``tmp``: AssertionError names the broken rule."""
    assert code == case.code, f"exit {code}, expected {case.code}: {err[-300:]!r}"
    assert "Traceback" not in err, f"a traceback: {err[-300:]!r}"
    if code not in (2, 3):
        return
    assert out == "", f"stdout is not empty: {out[:100]!r}"
    lines = err.splitlines()
    assert len(lines) == 1, f"stderr is {len(lines)} lines: {err[:300]!r}"
    assert len(err.encode()) < 200, f"stderr is {len(err.encode())} bytes: {err[:300]!r}"
    prefix = f"sdeweak {case.argv[0]}: "
    want = case.line.replace(TMP, str(tmp))
    assert lines[0].startswith(prefix), f"{lines[0]!r} does not start {prefix!r}"
    assert (lines[0] == prefix + want if case.exact else want in lines[0]), \
        f"{lines[0]!r} is not {prefix + want!r}"


def run_process(case: Case, command: list[str], tmp, env=None) -> tuple[int, str, str]:
    """``case`` run by ``command`` (the installed ``sdeweak``, or a Python that
    runs ``sdeweak.cli``) in a process of its own: its exit code, stdout and stderr."""
    argv = case.prepare(tmp)
    proc = subprocess.run([*command, *argv], capture_output=True, text=True, timeout=60,
                          env=env)
    return proc.returncode, proc.stdout, proc.stderr


# ---------------------------------------------------------------------------
# values the cases share
# ---------------------------------------------------------------------------

#: 2(2u - 1) = 2^120: c1 = 2^59 and c2 = 1 - 2^59 are exact, but float c1 + c2 = 0
CANCELLING_U = "664613997892457936451903530140172289/2"
#: a rational just above 1 whose digits pass Python's 4300-digit integer limit
LONG_RATIONAL = "1." + "0" * 5000 + "1"
#: a value past SHOWN characters, and how a refusal names it
LONG_VALUE = "x" * 5001
LONG_VALUE_SHOWN = f"'{'x' * 40}'... (5001 characters)"
#: a count past Python's 4300-digit integer limit, typed, and how a refusal names it
LONG_COUNT = "9" * 5001
LONG_COUNT_SHOWN = f"'{'9' * 40}'... (5001 characters)"
#: an integer below that limit, and how a refusal names it
BIG = 10**4000
BIG_SHOWN = f"1{'0' * 39}... (4001 characters)"
BUILTINS = "builtins: ['rk5-butcher', 'rk7-butcher']"
#: a directory no case creates
MISSING_DIR = "/nonexistent_dir/"
PHILOX_KEY = 2**128


def _os_text(code: int) -> str:
    return f"[Errno {code}] {os.strerror(code)}"


CELL = {"scheme": "nn", "n": 2, "samples": 1000}
HESTON = {"mu": 0.05, "alpha": 2.0, "beta": 0.1, "theta": 0.09, "rho": 0.0,
          "x1": 1.0, "x2": 0.09, "T": 1.0, "K": 1.05}
#: a config whose three cells run; each of its edits below is refused
BASE_CELLS = [{"scheme": "nn", "n": [1, 2], "samples": 10000, "mode": "qmc"},
              {"scheme": "em", "n": 4, "samples": [10000], "mode": "qmc"}]
BASE = {"heston": HESTON, "u": "3/4", "branch": "lower", "seed": 0, "sobol_skip": 1,
        "cells": BASE_CELLS}
MIDPOINT = {"name": "midpoint", "order": 2, "a": [["0", "0"], ["1/2", "0"]], "b": ["0", "1"]}


def _edit(**keys) -> dict:
    return {**BASE, **keys}


def _heston(**keys) -> dict:
    return _edit(heston={**HESTON, **keys})


def _first_cell(**keys) -> dict:
    return _edit(cells=[{**BASE_CELLS[0], **keys}, BASE_CELLS[1]])


def _converge(id, config, code, line=None, *flags, **kwargs) -> Case:
    """converge on ``config``, a mapping or JSON text."""
    return Case(id, ("converge", "--config", "TMP/config.json", *flags), code, line,
                files={"config.json": config}, **kwargs)


def _tableau(id, content, line, order="1") -> Case:
    """verify-rk-order on a tableau file holding ``content``, refused with ``line``."""
    return Case(id, ("verify-rk-order", "--tableau", "TMP/t.json", "--order", order), 2,
                f"error: argument --tableau: cannot load tableau file: {line}",
                files={"t.json": content})


_PRICE = ("price", "--scheme", "nn", "--n", "2", "--samples", "1000")


def _count_flag(id, argv, flag) -> Case:
    return Case(id, (*argv, flag, LONG_COUNT), 2,
                f"error: argument {flag}: expected an integer or a number a float "
                f"holds exactly, got {LONG_COUNT_SHOWN}")


# ---------------------------------------------------------------------------
# the table: tests/test_cli.py reports each group as one test, and each case
# of "refusals" as a test of its own
# ---------------------------------------------------------------------------

GROUPS: dict[str, list[Case]] = {
    # refusals of one value each; tests/test_cli.py names each by its id
    "refusals": [
        Case("low-u", ("verify-moments", "--u", "0.4"), 2, "error: u must be >= 1/2, got 2/5"),
        Case("unknown-perturbation", ("verify-moments", "--perturb", "c1=0.1"), 2,
             "error: only r11, r12, r22 can be perturbed, got 'c1'"),
        # a float family takes the shift as a float; this one is infinite
        Case("infinite-perturbation", ("verify-moments", "--u", "1", "--perturb", "r12=1e400"),
             2, "error: r12 must be finite, got inf"),
        Case("unknown-builtin", ("verify-rk-order", "--tableau", "rk9-mystery", "--order", "9"),
             2, f"error: argument --tableau: unknown tableau 'rk9-mystery'; {BUILTINS}"),
        Case("odd-romberg-partitions", ("price", "--scheme", "nn", "--n", "3", "--romberg",
                                        "--mode", "qmc", "--samples", "1000"), 2,
             "error: Romberg needs an even fine partition count (runs n and n/2)"),
        Case("zero-samples", ("price", "--scheme", "em", "--n", "2", "--mode", "qmc",
                              "--samples", "0"), 2,
             "error: --samples must be an integer >= 1, got 0"),
        Case("unparsable-workers", ("price", "--scheme", "nn", "--n", "2", "--samples", "10",
                                    "--workers", "1e300"), 2,
             "error: argument --workers: expected an integer or a number a float holds "
             "exactly, got '1e300'"),
        _converge("malformed-config", "{not json", 2,
                  "error: Expecting property name enclosed in double quotes: line 1 column 2 "
                  "(char 1)"),
        _converge("non-object-config", "[1, 2]", 2, "error: config must be a JSON object"),
        # the first cell fits; the second would pass 2^32, so neither may run
        _converge("converge-sobol-index-space",
                  _edit(sobol_skip=2**32 - 10000,
                        cells=[BASE_CELLS[0], {**BASE_CELLS[1], "samples": [10000, 10001]}]),
                  2, "error: cells[1]: sobol_skip + samples must be <= 2^32 (the Sobol index "
                     "space), got sobol_skip 4294957296 and samples 10001", "--workers", "1"),
        # the first cell fits the direction table; nn n=300 needs 1200 coordinates
        _converge("converge-sobol-width", {"cells": [{**CELL, "mode": "qmc"},
                                                     {**CELL, "n": 300, "mode": "qmc"}]},
                  2, "error: cells[1]: requested 1200 Sobol dimensions; direction table "
                     "supports 1025"),
        # an em cell first, which does not read u
        _converge("converge-cancelling-u", _edit(u=CANCELLING_U, cells=BASE_CELLS[::-1]), 2,
                  "error: cells[1]: u is too large for the closed form in floats, got "
                  f"{CANCELLING_U}", "--workers", "1"),
    ],
    # str refuses an int past 4300 digits; the rule's line never converts one
    "huge-u": [
        Case("price-past-str-limit",
             ("price", "--scheme", "em", "--n", "2", "--samples", "10", "--u", "1e5000"), 2,
             "error: u is too large for a float, got about 1e5000"),
        Case("negative-past-str-limit", ("verify-moments", "--u=-1e5000"), 2,
             "error: u must be >= 1/2, got about -1e5000"),
        Case("huge", ("verify-moments", "--u", "1e400"), 2,
             "error: u is too large for a float, got about 1e400"),
    ],
    "moments-counts": [
        Case(id, ("verify-moments", flag, value), 2,
             f"error: {flag} must be an integer >= 1, got {value}")
        for id, flag, value in (("negative-m", "--m", "-1"), ("negative-d", "--d", "-1"),
                                ("zero-m", "--m", "0"), ("zero-d", "--d", "0"))],
    "bad-tableau-files": [
        _tableau("zero-denominator", {"order": 1, "a": [["1/0"]], "b": ["1"]},
                 "Fraction(1, 0)"),
        _tableau("non-list-a", {"order": 1, "a": 5, "b": ["1"]},
                 "'int' object is not iterable"),
        _tableau("top-level-list", [1, 2], "a tableau must be a JSON object, got list"),
        _tableau("missing-keys", {"a": [["0"]]}, "missing key(s) b, order"),
    ],
    # a tableau file's contents and a builtin's name are named by refusal.shown
    "tableau-contents": [
        _tableau("long-entry", {**MIDPOINT, "b": ["0", LONG_VALUE]},
                 f"a tableau entry must be a rational number, got {LONG_VALUE_SHOWN}"),
        _tableau("entry-past-parse-limit",
                 f'{{"order": 1, "a": [["0"]], "b": [{LONG_COUNT}]}}',
                 "a tableau entry must be a rational number, got 5001 digits, more than "
                 "Python reads"),
        _tableau("long-order", {**MIDPOINT, "order": LONG_VALUE},
                 f"order must be an integer, got {LONG_VALUE_SHOWN}"),
        _tableau("long-key", {**MIDPOINT, LONG_VALUE: 1},
                 f"unknown tableau key(s) {LONG_VALUE_SHOWN}"),
        _tableau("misspelt-name", {**MIDPOINT, "nmae": "midpoint"},
                 "unknown tableau key(s) 'nmae'"),
        Case("builtin-name-with-newline",
             ("verify-rk-order", "--tableau", "rk5-butcher\nx", "--order", "5"), 2,
             f"error: argument --tableau: unknown tableau 'rk5-butcher\\nx'; {BUILTINS}"),
    ],
    "price-arguments": [
        Case(id, ("price", "--scheme", "nn", *argv), 2, f"error: {message}")
        for id, argv, message in (
            ("zero-n", ("--n", "0", "--samples", "10"), "--n must be an integer >= 1, got 0"),
            ("huge-samples", ("--n", "2", "--samples", str(2**32 + 1)),
             "--samples must be <= 4294967296, got 4294967297"),
            ("huge-u-closed-form", ("--n", "2", "--samples", "10", "--u", "1e40"),
             "u is too large for the closed form in floats, got 1e+40"),
            ("huge-radicand-u", ("--n", "2", "--samples", "10", "--u", "1e308"),
             "u is too large for the closed form in floats, got 1e+308"),
            ("huge-workers", ("--n", "2", "--samples", "10", "--workers", "100000"),
             "workers must be <= 256, got 100000"))],
    "price-sobol-index-space": [
        Case(id, ("price", "--scheme", "nn", "--n", "2", "--mode", "qmc", "--workers", "1",
                  *argv), 2,
             "error: sobol_skip + samples must be <= 2^32 (the Sobol index space), got "
             f"sobol_skip {skip} and samples {samples}")
        for id, argv, skip, samples in (
            ("skip-near-the-end", ("--samples", "40000", "--sobol-skip", "4294937296"),
             4294937296, 40000),
            ("full-index-space", ("--samples", "4294967296"), 1, 4294967296))],
    # the direction table holds 1025 coordinates; n steps of width 2d, 1 + d or
    # d (d = 2), at the fine level n of a Romberg cell
    "price-sobol-width": [
        Case(id, ("price", *argv, "--samples", "100", "--workers", "1"), 2,
             f"error: requested {dim} Sobol dimensions; direction table supports 1025")
        for id, argv, dim in (
            ("nn", ("--scheme", "nn", "--n", "257"), 1028),
            ("nv", ("--scheme", "nv", "--n", "342"), 1026),
            ("em-romberg-fine-level", ("--scheme", "em", "--n", "514", "--romberg"), 1028))],
    "price-mc-cells": [
        Case(id, ("price", "--scheme", "nn", "--n", "2", "--mode", "mc", *argv), 2,
             f"error: {message}")
        for id, argv, message in (
            ("indivisible-samples", ("--samples", "2005"),
             "MC sample count must be divisible by 10"),
            ("seed-past-philox-key", ("--samples", "2000", "--seed", str(PHILOX_KEY)),
             f"seed must be < 2^128 for an MC cell (the Philox key), got {PHILOX_KEY}"))],
    "price-cancelling-u": [
        Case(branch, ("price", "--scheme", "nn", "--n", "2", "--samples", "10", "--workers",
                      "1", "--branch", branch, "--u", CANCELLING_U), 2,
             f"error: u is too large for the closed form in floats, got {CANCELLING_U}")
        for branch in ("lower", "upper")],
    "one-line": [
        Case("fractional-m", ("verify-moments", "--m", "2.5"), 2,
             "error: --m must be an integer >= 1, got 2.5"),
        Case("zero-order", ("verify-rk-order", "--tableau", "rk5-butcher", "--order", "0"), 2,
             "error: --order must be an integer >= 1, got 0"),
        Case("unknown-flag", ("price", "--scheme", "nn", "--n", "2", "--samples", "10",
                              "--frobnicate"), 2,
             "error: unrecognized arguments: --frobnicate"),
        Case("word-n", ("price", "--scheme", "nn", "--n", "two", "--samples", "10"), 2,
             "error: argument --n: expected an integer or a number a float holds exactly, "
             "got 'two'"),
        Case("no-config", ("converge",), 2, "error: --config is required"),
    ],
    "config-values": [
        _converge(id, config, 2, f"error: {message}") for id, config, message in (
            ("unknown-heston-key", _heston(kappa=1.0), "unknown heston key(s) 'kappa'"),
            ("zero-samples", _first_cell(samples=0),
             "cells[0]: samples must be an integer >= 1, got 0"),
            ("non-integer-workers", _edit(workers="two"),
             "workers must be an integer >= 1, got 'two'"),
            ("huge-workers", _edit(workers=1e300), "workers must be <= 256, got 1e+300"),
            ("many-workers", _edit(workers=100000), "workers must be <= 256, got 100000"),
            ("no-cells", _edit(cells=[]), "config contains no cells"),
            ("cell-not-object", _edit(cells=[1]),
             "cells[0]: a cell must be a JSON object, got 1"),
            ("cells-not-list", _edit(cells=BASE_CELLS[0]), "cells must be a list of objects"),
            ("cell-without-n", _edit(cells=[BASE_CELLS[0],
                                            {"scheme": "em", "samples": [10000], "mode": "qmc"}]),
             "cells[1]: missing key(s) n"),
            ("fractional-n", _first_cell(n=2.5), "cells[0]: n must be an integer >= 1, got 2.5"),
            ("boolean-n", _first_cell(n=True), "cells[0]: n must be an integer >= 1, got True"),
            ("string-romberg", _first_cell(romberg="no"),
             "cells[0]: romberg must be true or false, got 'no'"),
            ("unknown-scheme-romberg", _first_cell(scheme="xx", romberg=True),
             "cells[0]: scheme must be one of nn, em, nv, got 'xx'"),
            ("unknown-cell-key", _first_cell(partitions=4),
             "cells[0]: unknown key(s) 'partitions'"),
            ("fractional-seed", _edit(seed=1.7), "seed must be an integer >= 0, got 1.7"),
            ("zero-sobol-skip", _edit(sobol_skip=0), "sobol_skip must be an integer >= 1, got 0"),
            ("unknown-top-level-key", _edit(sobol_skp=5), "unknown config key(s) 'sobol_skp'"),
            ("zero-denominator-u", _edit(u="1/0"), "u must be a rational number, got '1/0'"),
            ("low-u", _edit(u=0.25), "u must be >= 1/2, got 1/4"),
            ("huge-u", _edit(u="1e400"), "u is too large for a float, got about 1e400"),
            ("huge-u-closed-form", _edit(u="1e300"),
             "cells[0]: u is too large for the closed form in floats, got 1e+300"),
            ("unknown-branch", _edit(branch="middle"),
             "branch must be upper or lower, got 'middle'"),
            ("unknown-tableau", _edit(nn_tableau="rk9"),
             f"nn_tableau: unknown tableau 'rk9'; {BUILTINS}"),
            ("non-string-tableau", _edit(nv_tableau=[5]),
             "nv_tableau must be a tableau name, got [5]"),
            ("huge-qmc-n", _edit(cells=[{"scheme": "em", "n": 1e15, "samples": 10,
                                         "mode": "qmc"}]),
             "cells[0]: requested 2000000000000000 Sobol dimensions; direction table "
             "supports 1025"),
            ("huge-samples", _first_cell(samples=1e300),
             "cells[0]: samples must be <= 4294967296, got 1e+300"),
            ("nan-strike", _heston(K=float("nan")), "K must be finite, got nan"),
            ("nan-mu", _heston(mu=float("nan")), "mu must be finite, got nan"),
            ("huge-int-price", _heston(x1=10**400),
             f"x1 must be finite, got 1{'0' * 39}... (401 characters)"),
            ("nan-reference", _edit(reference=float("nan")),
             "reference must be a finite number, got nan"),
            ("huge-int-reference", _edit(reference=-10**400),
             f"reference must be a finite number, got -{'1' + '0' * 38}... (402 characters)"),
        )
    ] + [
        # no machine holds a Monte Carlo cell of 1e15 steps; the allocation is tried
        _converge("huge-mc-n", _edit(cells=[{"scheme": "em", "n": 1e15, "samples": 10,
                                             "mode": "mc"}]),
                  2, "error: out of memory: ", exact=False, works=True),
    ],
    # a JSON null is refused, not read as the default ("workers": null is not every core)
    "null-values": [
        _converge(key, _edit(**{key: None}), 2, f"error: {key} must not be null")
        for key in ("heston", "u", "branch", "nn_tableau", "nv_tableau", "seed",
                    "sobol_skip", "reference", "workers", "cells")],
    # the base cells would run; the appended one is refused, so none may
    "refused-cells": [
        _converge(id, _edit(**extra, cells=[*BASE_CELLS, cell]), 2, f"error: cells[2]: {message}",
                  "--workers", "1")
        for id, extra, cell, message in (
            ("indivisible-mc-samples", {}, {"scheme": "nn", "n": 2, "samples": 2005, "mode": "mc"},
             "MC sample count must be divisible by 10"),
            ("seed-past-philox-key", {"seed": PHILOX_KEY},
             {"scheme": "em", "n": 2, "samples": 1000, "mode": "mc"},
             f"seed must be < 2^128 for an MC cell (the Philox key), got {PHILOX_KEY}"),
            ("empty-n", {}, {"scheme": "nn", "n": [], "samples": 1000},
             "n must not be an empty list"),
            ("empty-samples", {}, {"scheme": "em", "n": 2, "samples": []},
             "samples must not be an empty list"))],
    # also run as a process of their own: no numpy warning precedes the line
    "process": [
        _converge("unknown-top-level-key", {"sobol_skp": 5, "cells": [CELL]}, 2,
                  "error: unknown config key(s) 'sobol_skp'"),
        _converge("zero-denominator-u", {"u": "1/0", "cells": [CELL]}, 2,
                  "error: u must be a rational number, got '1/0'"),
        _converge("null-workers", {"workers": None, "cells": [CELL]}, 2,
                  "error: workers must not be null"),
        # the kernel's folded drift constants keep path 0's stage 5 finite
        _converge("stiff-parameters", {"heston": {"alpha": 1e80}, "cells": [CELL]}, 3,
                  "numerical failure: non-finite state in Runge-Kutta stage 5, step 0, path 1; "
                  "cell nn n=2 qmc"),
    ],
    # a refusal names a long text by its head and its length, not in full
    "long-rational-text": [
        Case("flag", ("verify-moments", "--u", LONG_RATIONAL), 2,
             "error: argument --u: u must be a rational number, "
             f"got '1.{'0' * 38}'... (5003 characters)"),
        Case("perturb", ("verify-moments", "--perturb", "R12=" + LONG_RATIONAL), 2,
             "error: argument --perturb: perturbation must be a rational number, "
             f"got '1.{'0' * 38}'... (5003 characters)"),
        _converge("config", {"u": LONG_RATIONAL, "cells": [CELL]}, 2,
                  f"error: u must be a rational number, got '1.{'0' * 38}'... (5003 characters)"),
    ],
    # a long value is named by its head and its length; a short one in full
    "long-values": [
        Case("perturb-key", ("verify-moments", "--perturb", LONG_VALUE + "=0.1"), 2,
             f"error: only r11, r12, r22 can be perturbed, got {LONG_VALUE_SHOWN}"),
        Case("branch-flag", ("verify-moments", "--branch", LONG_VALUE), 2,
             f"error: argument --branch: invalid choice: {LONG_VALUE_SHOWN} "
             "(choose from 'upper', 'lower')"),
        Case("price-branch-flag", (*_PRICE, "--branch", LONG_VALUE), 2,
             f"error: argument --branch: invalid choice: {LONG_VALUE_SHOWN} "
             "(choose from 'upper', 'lower')"),
        _converge("config-branch", {"branch": LONG_VALUE, "cells": [CELL]}, 2,
                  f"error: branch must be upper or lower, got {LONG_VALUE_SHOWN}"),
        _converge("config-nn-tableau", {"nn_tableau": LONG_VALUE, "cells": [CELL]}, 2,
                  f"error: nn_tableau: unknown tableau {LONG_VALUE_SHOWN}; {BUILTINS}"),
        _converge("config-nv-tableau", {"nv_tableau": LONG_VALUE, "cells": [CELL]}, 2,
                  f"error: nv_tableau: unknown tableau {LONG_VALUE_SHOWN}; {BUILTINS}"),
        # a name past the file system's limit is no file
        Case("tableau-past-file-name-limit",
             ("verify-rk-order", "--tableau", "r" + "0" * 300, "--order", "5"), 2,
             f"error: argument --tableau: unknown tableau 'r{'0' * 39}'... (301 characters); "
             f"{BUILTINS}"),
        Case("short-branch-flag", ("verify-moments", "--branch", "middle"), 2,
             "error: argument --branch: invalid choice: 'middle' (choose from 'upper', 'lower')"),
        _count_flag("m-flag", ("verify-moments",), "--m"),
        _count_flag("d-flag", ("verify-moments",), "--d"),
        _count_flag("order-flag", ("verify-rk-order", "--tableau", "rk5-butcher"), "--order"),
        Case("n-flag", ("price", "--scheme", "nn", "--n", LONG_COUNT, "--samples", "10"), 2,
             "error: argument --n: expected an integer or a number a float holds exactly, "
             f"got {LONG_COUNT_SHOWN}"),
        *(_count_flag(f"{flag[2:]}-flag", _PRICE, flag)
          for flag in ("--samples", "--seed", "--sobol-skip", "--workers")),
        Case("out-past-file-name-limit",
             ("price", "--scheme", "nn", "--n", "2", "--samples", "10", "--out", "o" * 5000), 2,
             f"error: {_os_text(errno.ENAMETOOLONG)}: '{'o' * 40}'... (5000 characters)"),
        Case("json-tableau-past-file-name-limit",
             ("verify-rk-order", "--tableau", "x" * 5000 + ".json", "--order", "5"), 2,
             f"error: argument --tableau: cannot load tableau file: "
             f"{_os_text(errno.ENAMETOOLONG)}: '{'x' * 40}'... (5005 characters)"),
        # a path the file system takes is named in full while its repr fits 100
        # bytes (a tableau file's 50), and past that by its head and length
        Case("config-long-path", ("converge", "--config", MISSING_DIR + "a" * 200), 2,
             f"error: {_os_text(errno.ENOENT)}: '{MISSING_DIR}{'a' * 23}'... (217 characters)"),
        Case("out-long-path", (*_PRICE, "--out", MISSING_DIR + "b" * 200 + ".csv"), 2,
             f"error: {_os_text(errno.ENOENT)}: '{MISSING_DIR}{'b' * 23}'... (221 characters)"),
        Case("config-control-characters", ("converge", "--config", "\x01" * 41), 2,
             f"error: {_os_text(errno.ENOENT)}: '" + r"\x01" * 10 + "'... (41 characters)"),
        Case("json-tableau-long-path",
             ("verify-rk-order", "--tableau", MISSING_DIR + "t" * 70 + ".json", "--order", "5"), 2,
             f"error: argument --tableau: cannot load tableau file: {_os_text(errno.ENOENT)}: "
             f"'{MISSING_DIR}{'t' * 23}'... (92 characters)"),
        _converge("config-integer-past-parse-limit",
                  f'{{"seed": {LONG_COUNT}, "cells": [{json.dumps(CELL)}]}}', 2,
                  "error: seed must be an integer >= 0, got 5001 digits, more than Python reads"),
        _converge("config-workers", {"workers": BIG, "cells": [CELL]}, 2,
                  f"error: workers must be <= 256, got {BIG_SHOWN}"),
        _converge("config-mc-seed", {"seed": BIG, "cells": [{**CELL, "mode": "mc"}]}, 2,
                  "error: cells[0]: seed must be < 2^128 for an MC cell (the Philox key), "
                  f"got {BIG_SHOWN}"),
        _converge("config-sobol-skip", {"sobol_skip": BIG, "cells": [CELL]}, 2,
                  "error: cells[0]: sobol_skip + samples must be <= 2^32 (the Sobol index "
                  f"space), got sobol_skip {BIG_SHOWN} and samples 1000"),
    ],
    # an unknown key is named by refusal.shown; past the first few, by a count
    "unknown-keys": [
        _converge("long-top-level-key", {LONG_VALUE: 1, "cells": [CELL]}, 2,
                  f"error: unknown config key(s) {LONG_VALUE_SHOWN}"),
        _converge("long-heston-key", {"heston": {LONG_VALUE: 1}, "cells": [CELL]}, 2,
                  f"error: unknown heston key(s) {LONG_VALUE_SHOWN}"),
        _converge("long-cell-key", {"cells": [{**CELL, LONG_VALUE: 1}]}, 2,
                  f"error: cells[0]: unknown key(s) {LONG_VALUE_SHOWN}"),
        _converge("two-long-keys", {"cells": [{**CELL, LONG_VALUE: 1, "y" * 5001: 1}]}, 2,
                  f"error: cells[0]: unknown key(s) {LONG_VALUE_SHOWN} and 1 more"),
        _converge("many-cell-keys",
                  {"cells": [{**CELL, **{f"k{i}": 1 for i in range(2000)}}]}, 2,
                  "error: cells[0]: unknown key(s) 'k0', 'k1', 'k10' and 1997 more"),
        _converge("newline-key", {"a\nb": 1, "cells": [CELL]}, 2,
                  "error: unknown config key(s) 'a\\nb'"),
        _converge("control-character-key", {"\x01" * 40: 1, "cells": [CELL]}, 2,
                  "error: unknown config key(s) '" + r"\x01" * 10 + "'... (40 characters)"),
    ],
    # each exit code, and the refusals CI's installed command was checked on
    "exit-codes": [
        Case("exact-family", ("verify-moments", "--u", "3/4"), 0),
        Case("float-family", ("verify-moments", "--u", "1"), 0),
        Case("rk5-order-5", ("verify-rk-order", "--tableau", "rk5-butcher", "--order", "5"), 0),
        Case("rk5-order-6", ("verify-rk-order", "--tableau", "rk5-butcher", "--order", "6"), 1),
        Case("perturbed-family", ("verify-moments", "--u", "0.75", "--perturb", "R12=+0.1"), 1),
        Case("float-counts", ("price", "--scheme", "nn", "--n", "2.0", "--samples", "1e3"), 0),
        Case("order-past-14", ("verify-rk-order", "--tableau", "rk5-butcher", "--order", "40"),
             2, "error: --order must be <= 14, got 40"),
        _converge("mc-batches", {"cells": [{**CELL, "mode": "qmc"},
                                           {**CELL, "samples": 2005, "mode": "mc"}]},
                  2, "error: cells[1]: MC sample count must be divisible by 10"),
        _converge("mc-seed", {"seed": PHILOX_KEY, "cells": [{**CELL, "mode": "mc"}]}, 2,
                  "error: cells[0]: seed must be < 2^128 for an MC cell (the Philox key), "
                  f"got {PHILOX_KEY}"),
        _converge("empty-n", {"cells": [{**CELL, "n": []}, CELL]}, 2,
                  "error: cells[0]: n must not be an empty list"),
        _converge("branch", {"branch": "middle", "cells": [CELL]}, 2,
                  "error: branch must be upper or lower, got 'middle'"),
        _converge("heston-mu", {"heston": {"mu": "x"}, "cells": [CELL]}, 2,
                  "error: heston mu must be a number, got 'x'"),
        _converge("reference-null", {"reference": None, "cells": [CELL]}, 2,
                  "error: reference must not be null"),
    ],
}

UNWRITABLE_OUT = {
    "verify-moments": ("verify-moments",),
    "verify-rk-order": ("verify-rk-order", "--tableau", "rk5-butcher", "--order", "5"),
    "price": ("price", "--scheme", "nn", "--n", "10", "--samples", "200000"),
    "converge": ("converge", "--config", "TMP/config.json"),
}
# refused before any work; appending keeps an existing file's bytes
GROUPS["unwritable-out"] = [
    Case(f"{command}-{id}", (*argv, "--out", target), 2, f"error: {_os_text(code)}: '{target}'",
         files={"config.json": {"cells": [CELL]}} if command == "converge" else {})
    for command, argv in UNWRITABLE_OUT.items()
    for id, target, code in (("missing-directory", "TMP/missing/x.csv", errno.ENOENT),
                             ("directory", "TMP", errno.EISDIR))]


def main() -> int:
    """Run every case through the ``sdeweak`` on PATH; exit 1 naming each that fails."""
    failed = []
    cases = [(group, case) for group, group_cases in GROUPS.items() for case in group_cases]
    for group, case in cases:
        with tempfile.TemporaryDirectory() as tmp:
            try:
                check(case, *run_process(case, ["sdeweak"], tmp), tmp)
            except (AssertionError, subprocess.TimeoutExpired) as exc:
                failed.append(f"{group}[{case.id}]: {exc}")
    for line in failed:
        print(f"FAILED {line}", file=sys.stderr)
    print(f"sdeweak: {len(cases) - len(failed)} of {len(cases)} command-line cases pass")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
