#!/usr/bin/env python3
"""Benchmark of the blockcraft CLI: sweep wall time, set-up time and peak memory.

Run from the root of a checkout:

    python3 bench/run.py --workload sym_census --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all          # every workload in turn

The workloads' cells and reference digests are in ``bench/workloads.json``;
``BENCHMARK.json`` at the root says why each workload exists and names the
metrics.  A run

1. checks that the checkout holds the program and the desk golden files, and
   that a fresh interpreter imports ``blockcraft`` from this checkout's
   ``src`` (otherwise it exits 1 without a result);
2. times fresh interpreters that import ``blockcraft.cli`` (``setup_s``);
3. checks that the desk sweep reproduces ``tests/golden/v1/sweep_desk.csv``;
4. expands the workload into explicit cells, shuffles them with ``--seed``
   and writes them as a sweep config under ``.bench_build/``;
5. with ``--trace 0``, runs ``python -m blockcraft.cli sweep --config <it>
   --stable --format csv`` as one child at a time, at the CLI's defaults,
   each followed by a ``bench/calibrate.py`` child, until ``--seconds`` have
   passed, and reports medians over the sweeps;
   with ``--trace 1``, runs ``bench/trace_child.py`` once to count calls,
   then untraced and sampled sweeps in turn until ``--seconds`` have passed,
   and reports the per-layer metrics.

Every child starts with cold memo tables, which is what a CLI user pays.  A
sweep passes when it exits 0, reports no ``passed=false`` row, and its
stdout has the workload's reference sha256; reports are sorted, so the digest
does not depend on the seed.  A sweep that does not pass counts all of its
cells as failed, and its timing is not used.  The last line of stdout is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import itertools
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
BUILD = ROOT / ".bench_build"
DESK_CONFIG = ROOT / "tests" / "golden" / "v1" / "sweep_desk_config.json"
DESK_GOLDEN = ROOT / "tests" / "golden" / "v1" / "sweep_desk.csv"
SETUP_REPEATS = 15
CHILD_TIMEOUT_S = 60  # a sweep takes seconds; a hung child must not stall the run


class BenchError(Exception):
    """The checkout cannot be benchmarked; no result is printed."""


def load_workloads() -> dict:
    with open(BENCH / "workloads.json", encoding="utf-8") as fh:
        return json.load(fh)


def load_metric_specs() -> dict:
    """Metric name -> unit, for the end-to-end (trace 0) and per-layer (trace 1) lists."""
    path = ROOT / "BENCHMARK.json"
    try:
        with open(path, encoding="utf-8") as fh:
            spec = json.load(fh)
    except OSError as exc:
        raise BenchError(f"cannot read {path}: {exc}") from exc
    return {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


# --------------------------------------------------------------------------
# Inputs
# --------------------------------------------------------------------------

def _grid(value) -> list[int]:
    if isinstance(value, int):
        return [value]
    if isinstance(value, list):
        return list(value)
    lo, hi = value.split("..")
    return list(range(int(lo), int(hi) + 1))


def generate_cells(workload: dict, seed: int) -> list[dict]:
    """The workload's cells, one parameter value each, in an order set by seed.

    The order decides which memo entries are already warm when each cell
    runs; the set of cells, and so the sorted report, stays the same.
    """
    cells = []
    for entry in workload["cells"]:
        names = [name for name in entry if name != "check"]
        for values in itertools.product(*(_grid(entry[name]) for name in names)):
            cells.append({"check": entry["check"], **dict(zip(names, values))})
    random.Random(seed).shuffle(cells)
    return cells


def write_config(name: str, seed: int, cells: list[dict]) -> Path:
    BUILD.mkdir(exist_ok=True)
    path = BUILD / f"{name}-seed{seed}.json"
    path.write_text(json.dumps({"cells": cells}, indent=1) + "\n", encoding="utf-8")
    return path


def child_env(extra: dict) -> dict:
    """This interpreter's environment, with src/ as the only PYTHONPATH entry."""
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "BLOCKCRAFT_MAX_N")}
    env["PYTHONPATH"] = str(ROOT / "src")
    env.update(extra)
    return env


# --------------------------------------------------------------------------
# Children
# --------------------------------------------------------------------------

@dataclass
class Child:
    status: int  # exit code; negative for a signal
    wall_s: float
    peak_rss_mb: float
    stdout: bytes
    stderr: str


def run_child(argv: list[str], env: dict) -> Child:
    """Run one child to completion; its peak RSS comes from its own rusage.

    os.wait4 reports the rusage of that child alone.  RUSAGE_CHILDREN would
    keep a running maximum over every child so far and hide a later, smaller
    one.
    """
    BUILD.mkdir(exist_ok=True)
    with open(BUILD / "child.stderr", "w+b") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=err)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            out = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
            proc.stdout.close()
        wall_s = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        stderr = err.read().decode(errors="replace")
    return Child(proc.returncode, wall_s, usage.ru_maxrss / 1024, out, stderr)


def sweep_command(config: Path) -> list[str]:
    return [sys.executable, "-m", "blockcraft.cli", "sweep", "--config", str(config),
            "--stable", "--format", "csv"]


def sweep_passes(child: Child, reference: dict) -> bool:
    """Exit 0, no passed=false row, and the reference stdout digest."""
    if child.status != 0:
        return False
    rows = list(csv.reader(io.StringIO(child.stdout.decode(errors="replace"))))[1:]
    if any(len(row) < 5 or row[4] != "true" for row in rows):
        return False
    return hashlib.sha256(child.stdout).hexdigest() == reference["sha256"]


def trace_passes(child: Child, reference: dict) -> dict | None:
    """The trace child's report if its sweep passed, else None."""
    if child.status != 0:
        return None
    try:
        report = json.loads(child.stdout.decode().strip().splitlines()[-1])
    except (ValueError, IndexError):
        return None
    if report["status"] != 0 or report["failed_rows"] or report["sha256"] != reference["sha256"]:
        return None
    return report


def _note_failure(what: str, child: Child) -> None:
    tail = child.stderr.strip().splitlines()[-3:]
    print(f"bench: {what} failed (exit {child.status}): {' | '.join(tail)}", file=sys.stderr)


# --------------------------------------------------------------------------
# Checks and set-up
# --------------------------------------------------------------------------

def check_checkout(env: dict) -> None:
    for path in (ROOT / "src" / "blockcraft" / "cli.py", DESK_CONFIG, DESK_GOLDEN):
        if not path.is_file():
            raise BenchError(f"{path.relative_to(ROOT)} is missing: run from a blockcraft checkout")
    probe = run_child([sys.executable, "-c", "import blockcraft; print(blockcraft.__file__)"], env)
    where = Path(probe.stdout.decode(errors="replace").strip() or ".").resolve()
    if probe.status != 0 or (ROOT / "src") not in where.parents:
        raise BenchError(f"blockcraft does not import from {ROOT / 'src'}: {probe.stderr.strip()}")


def measure_setup(env: dict) -> list[float]:
    """Wall times of fresh interpreters that import blockcraft.cli."""
    times = []
    for _ in range(SETUP_REPEATS):
        child = run_child([sys.executable, "-c", "import blockcraft.cli"], env)
        if child.status != 0:
            raise BenchError(f"import blockcraft.cli failed: {child.stderr.strip()}")
        times.append(child.wall_s)
    return times


def desk_reproduces(env: dict) -> bool:
    child = run_child(sweep_command(DESK_CONFIG), env)
    return child.status == 0 and child.stdout == DESK_GOLDEN.read_bytes()


# --------------------------------------------------------------------------
# Measurement
# --------------------------------------------------------------------------

@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0

    def add(self, cells: int, passed: bool) -> None:
        self.attempted += cells
        self.failed += 0 if passed else cells


def measure_sweeps(config: Path, env: dict, reference: dict, cells: int, seconds: float,
                   tally: Tally) -> tuple[list[Child], list[float]]:
    """Untraced sweeps, each followed by a calibration child, until `seconds` have passed.

    Returns the sweeps that passed and, for each, the calibration wall time
    measured right after it.
    """
    passed, calibration = [], []
    start = time.perf_counter()
    while not tally.attempted or time.perf_counter() - start < seconds:
        child = run_child(sweep_command(config), env)
        ok = sweep_passes(child, reference)
        tally.add(cells, ok)
        gauge = run_child([sys.executable, str(BENCH / "calibrate.py")], env)
        if gauge.status != 0:
            raise BenchError(f"calibration child failed: {gauge.stderr.strip()}")
        if ok:
            passed.append(child)
            calibration.append(gauge.wall_s)
        else:
            _note_failure("sweep", child)
    return passed, calibration


def measure_layers(config: Path, env: dict, reference: dict, cells: int, seconds: float,
                   tally: Tally) -> dict | None:
    """Per-layer metrics: one counting pass, then untraced and sampled sweeps in turn."""
    tracer = [sys.executable, str(BENCH / "trace_child.py")]
    start = time.perf_counter()
    child = run_child(tracer + ["count", str(config)], env)
    counted = trace_passes(child, reference)
    tally.add(cells, counted is not None)
    if counted is None:
        _note_failure("counting trace", child)
    untraced, sampled = [], []
    rounds = 0
    while not rounds or time.perf_counter() - start < seconds:
        rounds += 1
        plain = run_child(sweep_command(config), env)
        ok = sweep_passes(plain, reference)
        tally.add(cells, ok)
        if ok:
            untraced.append(plain.wall_s)
        else:
            _note_failure("sweep", plain)
        traced = run_child(tracer + ["sample", str(config)], env)
        report = trace_passes(traced, reference)
        tally.add(cells, report is not None)
        if report is not None:
            sampled.append((traced.wall_s, report["metrics"]))
        else:
            _note_failure("sampled trace", traced)
    if counted is None or not sampled or not untraced:
        return None
    metrics = dict(counted["metrics"])
    for name in sampled[0][1]:
        metrics[name] = statistics.median(m[name] for _, m in sampled)
    traced_wall = statistics.median(wall for wall, _ in sampled)
    metrics["trace.overhead_ratio"] = traced_wall / statistics.median(untraced) - 1
    return metrics


def _show(values) -> str:
    return ", ".join(f"{v:.4f}" for v in values)


def run_workload(name: str, workload: dict, seed: int, seconds: float, trace: bool,
                 units: dict) -> dict:
    env = child_env(workload["env"])
    check_checkout(env)
    setup = [] if trace else measure_setup(env)
    desk_ok = desk_reproduces(env)
    cells = generate_cells(workload, seed)
    config = write_config(name, seed, cells)
    reference = workload["reference"]
    tally = Tally()
    print(f"{name}: seed {seed}, {len(cells)} cells per sweep, nproc {os.cpu_count()}, "
          f"python {platform.python_version()}, BLOCKCRAFT_MAX_N "
          f"{workload['env'].get('BLOCKCRAFT_MAX_N', 'unset')}")
    if trace:
        values = measure_layers(config, env, reference, len(cells), seconds, tally) or {}
    else:
        passed, calibration = measure_sweeps(config, env, reference, len(cells), seconds, tally)
        values = {}
        if passed:
            wall_s = statistics.median(c.wall_s for c in passed)
            values = {
                "wall_rel": statistics.median(c.wall_s / g for c, g in zip(passed, calibration)),
                "setup_s": statistics.median(setup),
                "peak_rss_mb": statistics.median(c.peak_rss_mb for c in passed),
            }
            print(f"  {'wall_s':44} {wall_s:.6g} s")
        print(f"  sweep wall times, s ({len(passed)} passed): {_show(c.wall_s for c in passed)}")
        print(f"  calibration wall times, s ({len(calibration)}): {_show(calibration)}")
        print(f"  import times, s ({len(setup)}): {_show(setup)}")
    if values and set(values) != set(units):
        raise BenchError(f"metrics produced {sorted(values)} differ from those listed {sorted(units)}")
    for metric, unit in units.items():
        if metric in values:
            value = values[metric]
            shown = f"{value:.6g}" if isinstance(value, float) else str(value)
            print(f"  {metric:44} {shown} {unit}")
    print(f"  {'failed_frac':44} {tally.failed / tally.attempted:.6g} "
          f"({tally.failed} of {tally.attempted} cells)")
    if not desk_ok:
        print("  desk sweep does NOT reproduce tests/golden/v1/sweep_desk.csv")
    return {
        "correct": desk_ok and tally.failed == 0 and bool(values),
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m: {"value": values[m], "unit": u} for m, u in units.items() if m in values},
    }


def main(argv=None) -> int:
    workloads = load_workloads()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*workloads, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        units = load_metric_specs()[args.trace]
        names = list(workloads) if args.workload == "all" else [args.workload]
        results = {
            name: run_workload(name, workloads[name], args.seed, args.seconds, bool(args.trace), units)
            for name in names
        }
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        (result,) = results.values()
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{name}.{metric}": value
                for name, r in results.items() for metric, value in r["metrics"].items()
            },
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
