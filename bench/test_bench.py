"""Tests of the benchmark itself: inputs, correctness gate and traced counts.

Run from the root of a checkout:

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import dataclasses
import json
import sys

import pytest

import run as bench

WORKLOADS = bench.load_workloads()
# The cheapest workload; the properties tested hold for every workload.
CHEAP = "char_tables"


def _canonical(cells):
    return sorted(json.dumps(cell, sort_keys=True) for cell in cells)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_seed_permutes_the_cells_and_keeps_their_multiset(name):
    first = bench.generate_cells(WORKLOADS[name], 1)
    second = bench.generate_cells(WORKLOADS[name], 2)
    assert first != second
    assert _canonical(first) == _canonical(second)
    assert bench.generate_cells(WORKLOADS[name], 1) == first


def _sweep(name, seed):
    workload = WORKLOADS[name]
    config = bench.write_config(name, seed, bench.generate_cells(workload, seed))
    return bench.run_child(bench.sweep_command(config), bench.child_env(workload["env"]))


def test_digest_does_not_depend_on_the_seed():
    reference = WORKLOADS[CHEAP]["reference"]
    first, second = _sweep(CHEAP, 1), _sweep(CHEAP, 2)
    assert first.stdout == second.stdout
    assert bench.sweep_passes(first, reference)
    assert bench.sweep_passes(second, reference)


def test_corrupted_reference_counts_every_cell_as_failed():
    workload = WORKLOADS[CHEAP]
    good = workload["reference"]["sha256"]
    corrupted = {**workload["reference"], "sha256": good[:-1] + ("0" if good[-1] != "0" else "1")}
    cells = bench.generate_cells(workload, 1)
    config = bench.write_config(CHEAP, 1, cells)
    tally = bench.Tally()
    passed, calibration = bench.measure_sweeps(
        config, bench.child_env(workload["env"]), corrupted, len(cells), 0, tally
    )
    assert passed == calibration == []
    assert tally.attempted == tally.failed == len(cells)


def test_failed_row_or_exit_fails_the_sweep():
    workload = WORKLOADS[CHEAP]
    child = _sweep(CHEAP, 1)
    assert bench.sweep_passes(child, workload["reference"])
    failing_row = child.stdout.replace(b",true,", b",false,", 1)
    assert not bench.sweep_passes(dataclasses.replace(child, stdout=failing_row), workload["reference"])
    assert not bench.sweep_passes(dataclasses.replace(child, status=2), workload["reference"])


def test_desk_sweep_reproduces_the_golden_file():
    assert bench.desk_reproduces(bench.child_env({}))


def _trace(mode, name=CHEAP):
    workload = WORKLOADS[name]
    config = bench.write_config(name, 1, bench.generate_cells(workload, 1))
    child = bench.run_child(
        [sys.executable, str(bench.BENCH / "trace_child.py"), mode, str(config)],
        bench.child_env(workload["env"]),
    )
    report = bench.trace_passes(child, workload["reference"])
    assert report is not None, child.stderr
    return report["metrics"]


def test_traced_counts_repeat_exactly():
    first, second = _trace("count"), _trace("count")
    assert first == second
    assert first["cli.cells"] == len(bench.generate_cells(WORKLOADS[CHEAP], 1))


def test_sampled_self_times_add_up_to_the_traced_wall_time():
    metrics = _trace("sample")
    layers = [name for name in metrics if name.count(".") == 1 and name.endswith(".self_s")]
    assert len(layers) == 9
    total = sum(metrics[name] for name in layers) + metrics["trace.unattributed_s"]
    assert total == pytest.approx(metrics["trace.wall_s"])
    assert max(layers, key=metrics.get) == "partitions.self_s"


def test_every_listed_metric_is_produced():
    units = bench.load_metric_specs()
    produced = set(_trace("count")) | set(_trace("sample")) | {"trace.overhead_ratio"}
    assert set(units[1]) == produced
    assert set(units[0]) == {"wall_rel", "setup_s", "peak_rss_mb"}
