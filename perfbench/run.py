"""The sdeweak benchmark: three workloads, end-to-end metrics and a layer trace.

Run from the root of a checkout:

    python3 perfbench/run.py --workload splitting --seed 0 --seconds 25 --trace 0

Workloads (see README.md in this directory for the layer map):

* ``splitting``: the paper's scheme and its competitor, through
  ``sdeweak converge``: nn n=10 QMC, nn n=2 Romberg (2+1) QMC, nv n=16 QMC,
  nn n=10 MC (Philox).  Time goes to the vector fields and the RK stages.
* ``euler``: Euler-Maruyama n=200 QMC (400 Sobol dimensions).  Time goes to
  sampling; no RK at all.
* ``certify``: the exact checks (``verify-moments`` at d=6, ``verify-rk-order``
  for rk7 at orders 7 and 8, the symbolic oracle against the closed form) and
  the level-7 infeasibility search.  The only load on ``moment_match``,
  ``rk_trees`` and ``freealg``.

Load: a closed loop from one caller in one process; each operation starts
when the previous one ends, and pricing runs with ``workers: 1``.  Passes over
the workload's operations repeat until ``--seconds`` have gone.

``--seed`` is the Philox seed of MC cells and sets the Sobol skip of QMC cells
to ``1 + (seed * 1009) mod 2**30``; the certify workload does not use it.
Every operation's output is checked on every pass.  The last stdout line is
one JSON object: end-to-end metrics with ``--trace 0``; with ``--trace 1``,
per-layer metrics from traced passes alternated with untraced ones, whose
outputs must be bit-identical.  Exit status: 0 when every check passed, 1
when one failed, 2 when the benchmark could not run.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import setup_probe
from tracer import HARNESS, LAYERS, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
PROBE = Path(setup_probe.__file__).resolve()

REFERENCE = 6.0473534496e-2
HESTON = {"mu": 0.05, "alpha": 2.0, "theta": 0.09, "beta": 0.1, "rho": 0.0,
          "x1": 1.0, "x2": 0.09, "T": 1.0, "K": 1.05}
WORKERS = 1
SOBOL_STRIDE = 1009
SETUP_REPEATS = 5
#: uniforms per time step at d = 2, from the consumption order in sdeweak.schemes
STEP_UNIFORMS = {"nn": 4, "em": 2, "nv": 3}
SEARCH_FLOOR = 1e-3

WORKLOADS = ("splitting", "euler", "certify")

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("time_to_tol_s", "s"), ("peak_rss_mb", "MB"))

PER_LAYER = (
    ("sampling.inv_normal_s", "s"), ("sampling.inv_normal_calls", "count"),
    ("sampling.inv_normal_count", "count"), ("sampling.sobol_s", "s"),
    ("sampling.philox_s", "s"), ("sampling.uniforms_count", "count"),
    ("sampling.correlate_s", "s"), ("sampling.estimate_self_s", "s"),
    ("heston_bench.fields_s", "s"), ("heston_bench.fields_calls", "count"),
    ("heston_bench.field_rows", "count"), ("rk_integrator.integrate_self_s", "s"),
    ("rk_integrator.integrate_calls", "count"), ("rk_integrator.stage_evals", "count"),
    ("schemes.step_self_s", "s"), ("schemes.step_calls", "count"),
    ("schemes.run_paths_self_s", "s"), ("schemes.run_paths_calls", "count"),
    ("heston_bench.payoff_s", "s"), ("heston_bench.clamp_frac", "fraction"),
    ("moment_match.residual_table_s", "s"), ("moment_match.residual_words", "count"),
    ("moment_match.gaussian_moment_calls", "count"), ("moment_match.oracle_s", "s"),
    ("moment_match.search_s", "s"), ("moment_match.search_best", "norm"),
    ("rk_trees.check_order_s", "s"), ("rk_trees.conditions", "count"),
    ("freealg.words_up_to_s", "s"), ("freealg.words", "count"),
    ("cli.self_s", "s"), ("trace.overhead_s", "s"), ("trace.coverage", "fraction"),
)


@dataclass(frozen=True)
class Sizes:
    """How much work one operation does; the benchmark always runs FULL."""

    samples: int = 200_000
    search_starts: int = 2
    search_iters: int = 600
    tol_scale: float = 1.0  # multiplies every QMC tolerance


FULL = Sizes()


@dataclass(frozen=True)
class PricingCell:
    name: str
    scheme: str
    n: int
    mode: str
    tol: float | None  # QMC: bound on |estimate - reference|; MC: its own error column
    romberg: bool = False

    def sobol_dims(self) -> list[int]:
        if self.mode != "qmc":
            return []
        levels = (self.n // 2, self.n) if self.romberg else (self.n,)
        return [level * STEP_UNIFORMS[self.scheme] for level in levels]


CELLS = {
    "splitting": (PricingCell("nn10", "nn", 10, "qmc", 1e-4),
                  PricingCell("nn2-romberg", "nn", 2, "qmc", 1e-4, romberg=True),
                  PricingCell("nv16", "nv", 16, "qmc", 1e-4),
                  PricingCell("nn10-mc", "nn", 10, "mc", None)),
    "euler": (PricingCell("em200", "em", 200, "qmc", 1e-3),),
    "certify": (),
}

#: the operation whose wall time is time_to_tol_s: the accuracy cell of a pricing
#: workload; for certify, the search, whose verdict is a tolerance (best residual > 1e-3)
ACCURACY_OP = {"splitting": "nn10", "euler": "em200", "certify": "search"}


@dataclass
class Outcome:
    text: str                     # what the digest covers
    failure: str | None = None    # why the check failed
    abs_err: float | None = None  # |estimate - reference| of a QMC cell


@dataclass
class Op:
    name: str
    run: Callable[[], Outcome]
    paths: int = 0  # simulated paths, both Romberg levels counted


def call_cli(argv: list[str]) -> tuple[int, str, str]:
    """``sdeweak.cli.main`` with its stdout and stderr captured."""
    from sdeweak import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def sobol_skip(seed: int) -> int:
    return 1 + (seed * SOBOL_STRIDE) % 2**30


def pricing_op(cell: PricingCell, seed: int, sizes: Sizes, workdir: Path) -> Op:
    config = {"heston": HESTON, "u": "3/4", "branch": "lower",
              "nn_tableau": "rk5-butcher", "nv_tableau": "rk5-butcher",
              "seed": seed, "sobol_skip": sobol_skip(seed), "reference": REFERENCE,
              "workers": WORKERS,
              "cells": [{"scheme": cell.scheme, "n": cell.n, "samples": sizes.samples,
                         "mode": cell.mode, "romberg": cell.romberg}]}
    path = workdir / f"{cell.name}.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    tol = None if cell.tol is None else cell.tol * sizes.tol_scale

    def run() -> Outcome:
        code, out, err = call_cli(["converge", "--config", str(path)])
        if code != 0:
            return Outcome(out, f"converge exited {code}: {err.strip()}")
        row = out.splitlines()[1].split(",")
        estimate, error = float(row[5]), float(row[6])
        miss = abs(estimate - REFERENCE)
        failure = None
        if not math.isfinite(estimate):
            failure = f"non-finite estimate {estimate!r}"
        elif tol is not None and miss > tol:
            failure = f"|estimate - reference| = {miss:.3e} > {tol:.1e}"
        elif tol is None and miss > error:
            failure = f"|estimate - reference| = {miss:.3e} > error column {error:.3e}"
        return Outcome(out, failure, miss if cell.mode == "qmc" else None)

    return Op(cell.name, run, sizes.samples * (2 if cell.romberg else 1))


def certify_ops(sizes: Sizes) -> list[Op]:
    from sdeweak import moment_match as mm

    def verify_moments() -> Outcome:
        code, out, err = call_cli(["verify-moments", "--u", "3/4", "--branch", "lower",
                                   "--m", "5", "--d", "6"])
        words = len(out.splitlines()) - 1
        ok = code == 0 and words == 10335 and err.rstrip().endswith("PASS")
        return Outcome(f"exit {code}\n{out}",
                       None if ok else f"exit {code}, {words} words: {err.strip()}")

    def rk_order(order: int, code_expected: int, conditions: int, failures: int):
        def run() -> Outcome:
            code, out, err = call_cli(["verify-rk-order", "--tableau", "rk7-butcher",
                                       "--order", str(order)])
            passes = [line.rsplit(",", 1)[-1] for line in out.splitlines()[1:]]
            failed = passes.count("0")
            ok = (code, len(passes), failed) == (code_expected, conditions, failures)
            return Outcome(f"exit {code}\n{out}", None if ok else
                           f"exit {code}, {failed}/{len(passes)} conditions failed")
        return run

    def oracle() -> Outcome:
        params = mm.solution_params(Fraction(3, 4), mm.LOWER)
        series = mm.symbolic_expectation(params, 5, 3)
        words = mm.words_up_to(5, 3)
        rows = [(w, series.coefficient(w), mm.scheme_coefficient(params, w)) for w in words]
        wrong = [str(w) for w, got, want in rows if got != want]
        ok = len(words) == 516 and not wrong
        return Outcome("\n".join(f"{w},{got}" for w, got, _ in rows), None if ok else
                       f"{len(words)} words, oracle differs on {wrong[:5]}")

    def search() -> Outcome:
        best, _ = mm.infeasibility_search(7, 3, d=2, starts=sizes.search_starts,
                                          iters=sizes.search_iters, seed=0)
        ok = math.isfinite(best) and best > SEARCH_FLOOR
        return Outcome(repr(best), None if ok else f"best residual {best!r} <= {SEARCH_FLOOR}")

    return [Op("verify-moments", verify_moments),
            Op("rk7-order7", rk_order(7, 0, 85, 0)),
            Op("rk7-order8", rk_order(8, 1, 200, 105)),
            Op("oracle", oracle),
            Op("search", search)]


def build_ops(workload: str, seed: int, sizes: Sizes, workdir: Path) -> list[Op]:
    if workload == "certify":
        return certify_ops(sizes)
    return [pricing_op(cell, seed, sizes, workdir) for cell in CELLS[workload]]


# ---------------------------------------------------------------------------
# Passes
# ---------------------------------------------------------------------------


@dataclass
class Pass:
    traced: bool
    wall: float
    seconds: dict          # op name -> seconds
    outcomes: dict         # op name -> Outcome
    op_ids: tuple = ()     # tracer operation ids, traced passes only


def run_pass(ops: list[Op], tracer: Tracer | None, op_names: dict) -> Pass:
    seconds, outcomes, op_ids = {}, {}, []
    restore = tracer.install() if tracer else None
    start = time.perf_counter()
    try:
        for op in ops:
            fn = op.run
            if tracer:
                tracer.op_id = len(op_names)
                op_names[tracer.op_id] = op.name
                op_ids.append(tracer.op_id)
                fn = tracer.span(HARNESS, fn)
            t0 = time.perf_counter()
            try:
                outcome = fn()
            except Exception as exc:  # an operation that raises is a failed check
                outcome = Outcome("", f"raised {type(exc).__name__}: {exc}")
            seconds[op.name] = time.perf_counter() - t0
            outcomes[op.name] = outcome
    finally:
        wall = time.perf_counter() - start
        if restore:
            restore()
    return Pass(tracer is not None, wall, seconds, outcomes, tuple(op_ids))


def run_passes(ops: list[Op], seconds: float, tracer: Tracer | None) -> tuple[list[Pass], dict]:
    """Untraced passes, or untraced and traced passes in turn, until time is up."""
    passes: list[Pass] = []
    op_names: dict = {}
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        gc.collect()  # start every pass without the previous pass's garbage
        passes.append(run_pass(ops, tracer if traced else None, op_names))
        enough = tracer is None or any(p.traced for p in passes)
        if enough and time.perf_counter() - start >= seconds:
            return passes, op_names


def check_outputs(ops: list[Op], passes: list[Pass]) -> list[str]:
    """Every failed check: per-operation verdicts and bit-identical outputs across passes."""
    failures = []
    for i, p in enumerate(passes):
        for op in ops:
            outcome = p.outcomes[op.name]
            first = passes[0].outcomes[op.name]
            if outcome.failure:
                failures.append(f"pass {i} {op.name}: {outcome.failure}")
            elif outcome.text != first.text:
                kind = "traced" if p.traced else "untraced"
                failures.append(f"pass {i} ({kind}) {op.name}: output differs from pass 0")
    return failures


def digest(ops: list[Op], p: Pass) -> str:
    h = hashlib.sha256()
    for op in ops:
        h.update(f"{op.name}\n{p.outcomes[op.name].text}\n".encode())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def measure_setup(dims: list[int]) -> list[float]:
    """Set-up seconds from SETUP_REPEATS fresh interpreters, one after another."""
    values = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run([sys.executable, str(PROBE), *map(str, dims)],
                              capture_output=True, text=True, timeout=120, check=True)
        values.append(float(done.stdout.strip().splitlines()[-1]))
    return values


def layer_metrics(tracer: Tracer, p: Pass) -> dict:
    incl, own, calls = tracer.totals(p.op_ids)
    ids = p.op_ids
    cells = tracer.count(ids, "heston_bench.cells")
    layer_self = sum(v for name, v in own.items() if name.split(".")[0] in LAYERS)
    return {
        "sampling.inv_normal_s": incl["sampling.inv_normal"],
        "sampling.inv_normal_calls": calls["sampling.inv_normal"],
        "sampling.inv_normal_count": tracer.count(ids, "sampling.inv_normal_count"),
        "sampling.sobol_s": incl["sampling.sobol"],
        "sampling.philox_s": incl["sampling.philox"],
        "sampling.uniforms_count": tracer.count(ids, "sampling.uniforms_count"),
        "sampling.correlate_s": incl["sampling.correlate"],
        "sampling.estimate_self_s": own["sampling.estimate"],
        "heston_bench.fields_s": incl["heston_bench.fields"],
        "heston_bench.fields_calls": calls["heston_bench.fields"],
        "heston_bench.field_rows": tracer.count(ids, "heston_bench.field_rows"),
        "rk_integrator.integrate_self_s": own["rk_integrator.integrate"],
        "rk_integrator.integrate_calls": calls["rk_integrator.integrate"],
        "rk_integrator.stage_evals": tracer.count(ids, "rk_integrator.stage_evals"),
        "schemes.step_self_s": own["schemes.step"],
        "schemes.step_calls": calls["schemes.step"],
        "schemes.run_paths_self_s": own["schemes.run_paths"],
        "schemes.run_paths_calls": calls["schemes.run_paths"],
        "heston_bench.payoff_s": incl["heston_bench.payoff"],
        "heston_bench.clamp_frac": (tracer.count(ids, "heston_bench.clamp_sum") / cells
                                    if cells else 0.0),
        "moment_match.residual_table_s": incl["moment_match.residual_table"],
        "moment_match.residual_words": tracer.count(ids, "moment_match.residual_words"),
        "moment_match.gaussian_moment_calls":
            tracer.count(ids, "moment_match.gaussian_moment_calls"),
        "moment_match.oracle_s": incl["moment_match.oracle"],
        "moment_match.search_s": incl["moment_match.search"],
        "moment_match.search_best": tracer.value(ids, "moment_match.search_best"),
        "rk_trees.check_order_s": incl["rk_trees.check_order"],
        "rk_trees.conditions": tracer.count(ids, "rk_trees.conditions"),
        "freealg.words_up_to_s": incl["freealg.words_up_to"],
        "freealg.words": tracer.count(ids, "freealg.words"),
        "cli.self_s": own["cli.main"],
        "trace.coverage": layer_self / p.wall,
    }


def quartiles(values: list[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (f"q1 {q1:.4g}, q3 {q3:.4g}, min {min(values):.4g}, max {max(values):.4g}, "
            f"n={len(values)}")


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


# ---------------------------------------------------------------------------
# Command
# ---------------------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    return args


def import_sdeweak() -> None:
    """Import sdeweak from this checkout's src/, never from anywhere else."""
    if not (SRC / "sdeweak" / "__init__.py").is_file():
        raise RuntimeError(f"no sdeweak sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import sdeweak

    if not Path(sdeweak.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"imported sdeweak from {sdeweak.__file__}, not {SRC}")


def main(argv=None, sizes: Sizes = FULL) -> int:
    args = parse_args(argv)
    nproc = len(os.sched_getaffinity(0))
    try:
        import_sdeweak()
        if WORKERS > nproc:
            raise RuntimeError(f"workers={WORKERS} exceeds the {nproc} usable cores")
        dims = [d for cell in CELLS[args.workload] for d in cell.sobol_dims()]
        setup = measure_setup(dims)
    except (RuntimeError, OSError, ValueError, subprocess.SubprocessError) as exc:
        print(f"perfbench: cannot run: {exc}", file=sys.stderr)
        return 2
    setup_probe.set_up(dims)

    import numpy

    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="configs-", dir=WORK))
    tracer = Tracer() if args.trace else None
    try:
        ops = build_ops(args.workload, args.seed, sizes, workdir)
        passes, op_names = run_passes(ops, args.seconds, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    failures = check_outputs(ops, passes)
    attempted = len(ops) * len(passes)
    failed = len(failures)

    plain = [p for p in passes if not p.traced]
    walls = [p.wall for p in plain]
    accuracy = [p.seconds[ACCURACY_OP[args.workload]] for p in plain]
    errors = [o.abs_err for o in passes[0].outcomes.values() if o.abs_err is not None]
    paths = sum(op.paths for op in ops)

    print(f"workload {args.workload}  seed {args.seed}  sobol_skip {sobol_skip(args.seed)}  "
          f"philox_seed {args.seed}  samples {sizes.samples}  search_starts "
          f"{sizes.search_starts}  passes {len(passes)} ({sum(p.traced for p in passes)} traced)"
          f"  ops/pass {len(ops)}")
    print(f"env  nproc {nproc}  cpu {cpu_model()!r}  python {platform.python_version()}  "
          f"numpy {numpy.__version__}  workers {WORKERS}")
    for op in ops:
        times = [p.seconds[op.name] for p in plain]
        err = passes[0].outcomes[op.name].abs_err
        print(f"op   {op.name:<15} {statistics.median(times):9.4f} s median ({quartiles(times)})"
              + ("" if err is None else f"  |err| {err:.3e}"))
    print(f"setup_s        {statistics.median(setup):.4f} s  median of {len(setup)} fresh "
          f"interpreters ({quartiles(setup)})")
    print(f"wall_s         {statistics.median(walls):.4f} s  median of untraced passes "
          f"({quartiles(walls)})")
    if paths:
        print(f"paths_per_s    {paths / statistics.median(walls):.1f} paths/s  ({paths} paths "
              f"per pass, both Romberg levels counted)")
    print(f"time_to_tol_s  {statistics.median(accuracy):.4f} s  "
          f"({ACCURACY_OP[args.workload]}, {quartiles(accuracy)})")
    if errors:
        print(f"max_abs_error  {max(errors):.6e} price units  (largest |estimate - reference| "
              f"over QMC cells)")
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(f"peak_rss_mb    {peak_mb:.1f} MB")
    print(f"fail_rate      {failed}/{attempted} failed/attempted ops")
    print(f"digest         sha256:{digest(ops, passes[0])}")
    for line in failures:
        print(f"FAILED {line}", file=sys.stderr)

    if tracer:
        traced = [p for p in passes if p.traced]
        rows = [layer_metrics(tracer, p) for p in traced]
        values = {name: statistics.median(r[name] for r in rows) for name in rows[0]}
        values["trace.overhead_s"] = (statistics.median(p.wall for p in traced)
                                      - statistics.median(walls))
        spans_path = WORK / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(spans_path, op_names)
        print(f"trace          {len(tracer.spans)} spans written to "
              f"{spans_path.relative_to(ROOT)}; layer self time covers "
              f"{values['trace.coverage']:.1%} of traced wall")
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}
    else:
        values = {"setup_s": statistics.median(setup), "wall_s": statistics.median(walls),
                  "time_to_tol_s": statistics.median(accuracy), "peak_rss_mb": peak_mb}
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
