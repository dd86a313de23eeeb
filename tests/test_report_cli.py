import gc
import io
import itertools
import json
import math
import os
import random
import re
import resource
import subprocess
import sys
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from datetime import timedelta
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import blockcraft.cli as cli
from blockcraft import glq_blocks, glq_chars, partitions, report, sym_blocks, sym_chars, wreath_local
from blockcraft.cli import CHECKS, expand_sweep_config, main, run_gl_blocks, run_sym_am
from blockcraft.errors import CrossCheckError, UsageError
from blockcraft.glq_blocks import EllContext, verify_gl_mckay
from blockcraft.report import VerificationReport, emit_reports, sort_reports
from blockcraft.budget import BUDGETS
from blockcraft.sym_blocks import bhz_verify, block_labels

GOLDEN = Path(__file__).parent / "golden" / "v1"


def _sample_reports():
    return [
        VerificationReport(
            conjecture="alperin_mckay",
            parameters={"n": 10, "p": 5, "core": (), "weight": 2},
            global_count=20,
            local_count=20,
            passed=True,
            elapsed_ms=3,
        ),
        VerificationReport(
            conjecture="mckay",
            parameters={"n": 6, "p": 2},
            global_count=8,
            local_count=8,
            passed=True,
            elapsed_ms=1,
            notes=("binary-expansion count 8",),
        ),
    ]


def test_json_schema_and_decimal_strings():
    payload = emit_reports(_sample_reports(), "json")
    data = json.loads(payload)
    assert [r["conjecture"] for r in data] == ["alperin_mckay", "mckay"]
    first = data[0]
    assert list(first) == [
        "conjecture", "parameters", "global_count", "local_count",
        "passed", "elapsed_ms", "notes",
    ]
    assert first["global_count"] == "20"
    assert first["local_count"] == "20"
    assert first["parameters"]["core"] == "()"


def test_csv_header_and_rows():
    payload = emit_reports(_sample_reports(), "csv")
    lines = payload.strip().split("\n")
    assert lines[0] == "conjecture,params,global,local,passed,elapsed_ms"
    assert len(lines) == 3
    assert lines[2] == "mckay,n=6;p=2,8,8,true,1"


def test_text_format():
    payload = emit_reports(_sample_reports(), "text")
    assert "[PASS] mckay n=6 p=2: global=8 local=8 (1 ms)" in payload
    assert "    - binary-expansion count 8" in payload


def test_unknown_format_rejected():
    with pytest.raises(UsageError):
        emit_reports(_sample_reports(), "yaml")


def test_reports_sorted_by_conjecture_then_params():
    reports = list(reversed(_sample_reports()))
    ordered = sort_reports(reports)
    assert [r.conjecture for _, r in ordered] == ["alperin_mckay", "mckay"]


@pytest.mark.parametrize("fmt", ["json", "csv", "text"])
def test_emit_reports_renders_each_reports_params_once(fmt, monkeypatch):
    with open(GOLDEN / "sweep_desk_config.json", encoding="utf-8") as fh:
        reports, _ = cli.run_sweep(json.load(fh))
    ordered = [r for _, r in sort_reports(reports)]
    shuffled = list(reports)
    random.Random(1).shuffle(shuffled)
    renders = []

    def counted(value):
        renders.append(value)
        return param_repr(value)

    param_repr = report._param_repr
    monkeypatch.setattr(report, "_param_repr", counted)
    payload = emit_reports(shuffled, fmt)
    assert len(renders) == sum(len(r.parameters) for r in reports)
    assert payload == emit_reports(ordered, fmt)


def test_unknown_conjecture_tag_rejected():
    with pytest.raises(ValueError):
        VerificationReport(
            conjecture="riemann",
            parameters={},
            global_count=0,
            local_count=0,
            passed=True,
        )


# ---------------------------------------------------------------------------
# CLI end to end
# ---------------------------------------------------------------------------

def test_cli_sym_mckay_pass(capsys):
    assert main(["sym", "mckay", "--n", "6", "--p", "2"]) == 0
    out = capsys.readouterr().out
    assert "global=8 local=8" in out


def test_cli_sym_mckay_odd_p_is_usage_error(capsys):
    assert main(["sym", "mckay", "--n", "6", "--p", "3"]) == 1
    assert "p=2" in capsys.readouterr().err


def test_cli_sym_mckay_negative_n_is_one_line_usage_error(capsys):
    assert main(["sym", "mckay", "--n", "-2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: n must be nonnegative\n"


def test_sym_mckay_refuses_n_zero():
    assert CHECKS["sym_mckay"].refusal({"n": 0, "p": 2}) == "n must be positive"


def test_cli_internal_value_error_exits_2(capsys, monkeypatch):
    def planted(n, p):
        raise ValueError("planted")

    monkeypatch.setattr(sym_chars, "irr_pprime_count_sym", planted)
    assert main(["sym", "mckay", "--n", "6"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "internal error: planted\n"


CENSUS_CHECKS = ("sym_mckay", "sym_bhz", "sym_blocks", "sym_am", "gl_blocks")


def _no_core_counts(n, d):
    raise AssertionError("a cell past the census budget's first terms counted its cores")


@pytest.mark.parametrize("name", CENSUS_CHECKS)
def test_census_checks_refuse_n_above_the_census_bound(name, monkeypatch):
    # The census budget: at n = 10^6 the n^2 steps alone exceed it, so no core is counted.
    check = CHECKS[name]
    values = {param: {"p": 2, "q": 2, "ell": 7}.get(param) for param in check.params}
    assert check.refusal({**values, "n": 60}) is None
    monkeypatch.setattr(partitions, "_core_counts", _no_core_counts)
    reason = check.refusal({**values, "n": 10**6})
    assert reason.startswith("predicted work of at least ")
    assert reason.endswith(f" census steps exceeds the budget of {BUDGETS['census step']}")


def test_cli_no_command_is_usage_error(capsys):
    assert main([]) == 1
    assert main(["sym"]) == 1


def test_cli_table_bound_is_resource_error(capsys):
    assert main(["sym", "table", "--n", "40"]) == 1
    assert "table products exceeds the budget" in capsys.readouterr().err


def test_cli_failed_verification_exits_2(capsys, monkeypatch):
    monkeypatch.setattr(sym_chars, "irr_pprime_count_sym", lambda n, p: 999)
    assert main(["sym", "mckay", "--n", "6", "--p", "2", "--format", "json"]) == 2
    data = json.loads(capsys.readouterr().out)
    assert data[0]["passed"] is False
    assert data[0]["global_count"] == "999"


def test_cli_am_spot_value_json(capsys):
    assert main(["sym", "am", "--n", "10", "--p", "5", "--format", "json", "--stable"]) == 0
    data = json.loads(capsys.readouterr().out)
    principal = [r for r in data if r["parameters"]["core"] == "()"]
    assert principal[0]["global_count"] == "20"
    assert principal[0]["local_count"] == "20"


def test_cli_gl_blocks_small_ell_is_not_flagged(capsys):
    # d-cores label the unipotent blocks at every ell not dividing q, ell = 2 included.
    for q, ell in ((3, 2), (2, 3), (2, 5)):
        argv = ["gl", "blocks", "--n", "4", "--q", str(q), "--ell", str(ell), "--format", "json"]
        assert main(argv) == 0
        *blocks, total = json.loads(capsys.readouterr().out)
        for row in blocks:
            assert row["notes"] == [f"relative Weyl group count {row['local_count']}"]
        assert total["notes"] == [f"blocks {len(blocks)}"]


def test_cli_gl_mckay_large_cyclic_base(capsys):
    # w=1 over C_1023: the local multiset has 1023 base characters, which
    # must not translate into 1023 levels of recursion.
    assert main(["gl", "mckay", "--n", "1", "--q", "1024", "--ell", "3"]) == 0
    assert "global=1023 local=1023" in capsys.readouterr().out


def test_cli_output_file(tmp_path, capsys):
    target = tmp_path / "out.json"
    assert main(["gl", "mckay", "--n", "2", "--q", "2", "--ell", "3",
                 "--format", "json", "--output", str(target)]) == 0
    assert capsys.readouterr().out == ""
    data = json.loads(target.read_text())
    assert data[0]["passed"] is True


def test_cli_output_to_missing_directory_is_usage_error(tmp_path, capsys):
    target = tmp_path / "missing" / "out.json"
    assert main(["gl", "mckay", "--n", "2", "--q", "2", "--ell", "3",
                 "--output", str(target)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: cannot write output: ")
    assert captured.err.count("\n") == 1
    assert not target.parent.exists()


def test_cli_stable_zeroes_timing(capsys):
    assert main(["sym", "bhz", "--n", "8", "--p", "2", "--format", "json", "--stable"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert all(r["elapsed_ms"] == 0 for r in data)


def _clock_that_moves_once(seconds):
    """A perf_counter that reads 0 once, then `seconds` ever after."""
    return itertools.chain([0.0], itertools.repeat(seconds)).__next__


@pytest.mark.parametrize(
    "runner, args", [(cli.run_sym_bhz, (12, 2)), (cli.run_gl_blocks, (6, 2, 7))]
)
def test_every_report_of_a_cell_carries_the_cell_time(runner, args, monkeypatch):
    monkeypatch.setattr(cli.time, "perf_counter", _clock_that_moves_once(1.5))
    reports = runner(*args)
    assert len(reports) > 1
    assert [r.elapsed_ms for r in reports] == [1500] * len(reports)


def test_library_verifiers_leave_timing_to_the_registry(monkeypatch):
    monkeypatch.setattr(cli.time, "perf_counter", _clock_that_moves_once(1.5))
    assert verify_gl_mckay(3, 2, 7).elapsed_ms == 0
    assert all(bhz_verify(label).elapsed_ms == 0 for label in block_labels(8, 2))


def test_run_sym_am_skips_nonabelian_blocks():
    reports = run_sym_am(9, 3)  # principal block has weight 3 >= p
    assert all(int(r.parameters["weight"]) < 3 for r in reports)


def test_run_gl_blocks_rejects_defining_prime():
    with pytest.raises(UsageError):
        run_gl_blocks(2, 4, 2)


def test_cli_gl_degrees_rejects_q_not_a_prime_power(capsys):
    assert main(["gl", "degrees", "--n", "2", "--q", "6"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: q=6 is not a prime power\n"


def _count_calls(monkeypatch, *names):
    """Wrap each named function in every blockcraft module that holds it; name -> calls."""
    calls = {name: [] for name in names}
    for module in list(sys.modules.values()):
        if not getattr(module, "__name__", "").startswith("blockcraft."):
            continue
        for name in names:
            original = getattr(module, name, None)
            if original is None:
                continue

            def counted(*args, _original=original, _calls=calls[name]):
                _calls.append(args)
                return _original(*args)

            monkeypatch.setattr(module, name, counted)
    return calls


def test_nakayama_cell_computes_no_hook_lengths(monkeypatch):
    calls = _count_calls(monkeypatch, "hook_lengths", "hook_valuation")
    assert main(["oracle", "nakayama", "--n", "7", "--p", "2"]) == 0
    assert calls == {"hook_lengths": [], "hook_valuation": []}


def test_sym_blocks_cell_computes_no_hooks_or_heights(monkeypatch):
    calls = _count_calls(
        monkeypatch, "hook_lengths", "hook_valuation", "block_members_and_heights"
    )
    assert main(["sym", "blocks", "--n", "12", "--p", "3"]) == 0
    assert all(not made for made in calls.values()), {k: len(v) for k, v in calls.items()}


def test_sym_bhz_cell_checks_no_census_core(monkeypatch):
    # The census keys are p-cores by construction: no block label reruns is_core.
    calls = _count_calls(monkeypatch, "is_core")
    assert main(["sym", "bhz", "--n", "20", "--p", "3"]) == 0
    assert calls == {"is_core": []}


def test_gl_blocks_cell_computes_no_d_core(monkeypatch):
    # Each block is labelled by its key in the d-core census; no core is recomputed.
    calls = _count_calls(monkeypatch, "d_core")
    assert main(["gl", "blocks", "--n", "12", "--q", "2", "--ell", "7"]) == 0
    assert calls == {"d_core": []}


def test_ell_context_works_out_d_once(monkeypatch):
    calls = _count_calls(monkeypatch, "d_ell")
    assert EllContext.of(2, 7).d == 3
    assert calls == {"d_ell": [(2, 7)]}


def test_gl_mckay_cell_finds_the_order_of_q_once(monkeypatch):
    # The cost and EllContext.of both ask for d; the memo answers the second.
    glq_blocks.d_ell.cache_clear()
    calls = _count_calls(monkeypatch, "multiplicative_order")
    assert main(["gl", "mckay", "--n", "4", "--q", "7", "--ell", "5"]) == 0
    assert calls == {"multiplicative_order": [(2, 5)]}


@pytest.mark.parametrize("command", [["sym", "bhz"], ["sym", "am"], ["sym", "blocks"]])
def test_census_cells_list_no_partitions(command, monkeypatch):
    # Heights and member counts come from the streaming census.  Only the
    # Alperin-McKay local side lists partitions: those of t <= w < p, for S_w.
    partitions.valuation_census.cache_clear()
    sym_blocks._am_local_group.cache_clear()
    calls = _count_calls(
        monkeypatch, "enumerate_partitions", "hook_valuation", "block_members_and_heights"
    )
    assert main([*command, "--n", "16", "--p", "5"]) == 0
    listed = calls.pop("enumerate_partitions")
    assert all(t < 5 for (t,) in listed) and (command[1] == "am" or not listed)
    assert all(not made for made in calls.values()), {k: len(v) for k, v in calls.items()}


def test_gl_blocks_cell_lists_no_partition_of_n(monkeypatch):
    # Labels and census counts come from the counting census, and the relative
    # Weyl group count from the divisor-sum recurrence: no partition is listed.
    partitions.partitions_by_core.cache_clear()
    calls = _count_calls(monkeypatch, "enumerate_partitions")
    assert main(["gl", "blocks", "--n", "16", "--q", "2", "--ell", "7"]) == 0
    assert not calls["enumerate_partitions"], calls


@pytest.mark.parametrize(
    "module, route",
    [(wreath_local, "cyclic_wreath_character_counts"), (partitions, "partition_tuple_counts")],
    ids=["weyl", "tuples"],
)
def test_gl_blocks_rows_fail_when_a_route_disagrees(module, route, capsys, monkeypatch):
    # GL_5(13) at ell = 7 (d = 2) has the blocks (1), weight 2, and (2, 1), weight 1.
    # Each route builds its series once, to the largest weight: one more at every weight.
    real = getattr(module, route)
    # core_census takes the d-tuple counts once per (n, d): a cached census would hide the patch.
    partitions.core_census.cache_clear()
    monkeypatch.setattr(module, route, lambda d, top: [count + 1 for count in real(d, top)])
    try:
        assert main(["gl", "blocks", "--n", "5", "--q", "13", "--ell", "7", "--format", "json"]) == 2
    finally:
        partitions.core_census.cache_clear()
    captured = capsys.readouterr()
    assert captured.err == ""
    *blocks, total = json.loads(captured.out)
    assert len(blocks) == 2
    assert not any(row["passed"] for row in blocks)
    # The census total is compared with p(n), which the Weyl group count does not enter.
    assert total["passed"] is (route == "cyclic_wreath_character_counts")


def test_sym_am_builds_each_local_group_once(monkeypatch):
    sym_blocks._am_local_group.cache_clear()
    calls = _count_calls(monkeypatch, "wreath_degrees")
    assert main(["sym", "am", "--n", "18", "--p", "5"]) == 0
    assert main(["sym", "am", "--n", "13", "--p", "5"]) == 0
    # Weights 1, 2 and 3 occur; weight 0 is the trivial group, built from no base.
    assert sorted(w for _, w in calls["wreath_degrees"]) == [1, 2, 3]


@pytest.mark.parametrize(
    "command", [["sym", "mckay"], ["sym", "bhz"], ["sym", "am"], ["sym", "blocks"]]
)
def test_planted_over_valuation_is_a_cross_check_failure(command, capsys, monkeypatch):
    # One more factor p in every quotient term: each block's top passes nu_p((pw)!).
    real_series = partitions._block_series

    def inflated(top, p):
        return [(least + 1, high + 1, at_top, total) for least, high, at_top, total in real_series(top, p)]

    partitions.valuation_census.cache_clear()
    monkeypatch.setattr(partitions, "_block_series", inflated)
    try:
        assert main([*command, "--n", "6", "--p", "2"]) == 2
    finally:
        partitions.valuation_census.cache_clear()
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("cross-check failure: hook valuation ")


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


@pytest.mark.parametrize(
    "command", [["sym", "blocks"], ["sym", "bhz"], ["sym", "am"], ["oracle", "nakayama"]]
)
def test_cli_sym_checks_at_a_huge_prime_run_small_and_quick(command):
    # For p > n every partition is its own p-core: nothing may be sized by p.
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    done = subprocess.run(
        [sys.executable, "-m", "blockcraft.cli", *command, "--n", "5", "--p", "1000000007"],
        env=env,
        capture_output=True,
        text=True,
        timeout=5,
        preexec_fn=_limit_address_space,
    )
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""


# ---------------------------------------------------------------------------
# The check registry: one entry drives the CLI command and the sweep cell
# ---------------------------------------------------------------------------

# A value for every parameter that every check admits.
PASSING = {"n": 5, "p": 2, "q": 3, "ell": 2}
# Per check, parameter values that it refuses, and the reason.
FAILING = {
    "sym_mckay": ({"p": 3}, "sym mckay local side is only available at p=2"),
    "sym_blocks": ({"p": 4}, "p=4 is not prime"),
    "sym_table": (
        {"n": 18},
        "predicted work of at least 57066625 table products exceeds the budget of 28000000",
    ),
    "sym_bhz": ({"p": 1}, "p=1 is not prime"),
    "sym_am": ({"p": 9}, "p=9 is not prime"),
    "nakayama": (
        {"n": 18},
        "predicted work of at least 57066625 table products exceeds the budget of 28000000",
    ),
    "gl_degrees": ({"q": 6}, "q=6 is not a prime power"),
    "gl_mckay": ({"ell": 4}, "ell=4 is not prime"),
    "gl_blocks": ({"q": 9, "ell": 3}, "ell=3 divides q=9"),
}


def _cli_argv(name, values):
    check = CHECKS[name]
    argv = [check.group, check.command]
    for param in check.params:
        argv += [f"--{param}", str(values[param])]
    return argv


def _sweep_argv(tmp_path, name, values):
    cell = {"check": name, **{param: values[param] for param in CHECKS[name].params}}
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps({"cells": [cell]}))
    return ["sweep", "--config", str(path)]


@pytest.mark.parametrize("name", sorted(CHECKS))
def test_cli_command_and_one_cell_sweep_agree(name, tmp_path, capsys):
    flags = ["--stable", "--format", "json"]
    assert main(_cli_argv(name, PASSING) + flags) == 0
    single = capsys.readouterr()
    assert main(_sweep_argv(tmp_path, name, PASSING) + flags) == 0
    swept = capsys.readouterr()
    assert json.loads(single.out)
    assert single.out == swept.out
    assert single.err == swept.err == ""


@pytest.mark.parametrize("name", sorted(CHECKS))
def test_every_check_refuses_negative_n(name):
    assert CHECKS[name].refusal({**PASSING, "n": -1}) == "n must be nonnegative"


def test_gl_mckay_admits_a_local_base_of_any_size(capsys):
    # d = 2: the base C_{q^2 - 1} x| C_2 has 2^44 - 1 elements; its orbits are counted, not walked.
    values = {"n": 2, "q": 4194304, "ell": 5}
    assert CHECKS["gl_mckay"].refusal(values) is None
    assert main(_cli_argv("gl_mckay", values) + ["--stable", "--format", "csv"]) == 0
    assert capsys.readouterr().out.splitlines()[1:] == [
        "gl_mckay,ell=5;n=2;q=4194304,8796099313662,8796099313662,true,0"
    ]
    # A base of (2^61 - 1)^4 - 1 elements, under a 1 GiB address space: no list of Z_m fits.
    code = (
        "from blockcraft.wreath_local import MetacyclicSpec, metacyclic_degrees\n"
        "q = 2**61 - 1\n"
        "base = metacyclic_degrees(MetacyclicSpec(m=q**4 - 1, d=4, u=q))\n"
        "assert sum(m * d * d for d, m in base.entries) == (q**4 - 1) * 4\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    done = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        capture_output=True,
        text=True,
        timeout=10,
        preexec_fn=_limit_address_space,
    )
    assert done.returncode == 0, done.stderr


def test_gl_blocks_above_the_census_bound_is_cli_error_and_sweep_skip(tmp_path, capsys):
    # The defining prime is refused first, whatever n is.
    assert CHECKS["gl_blocks"].refusal({"n": 10**6, "q": 9, "ell": 3}) == "ell=3 divides q=9"
    # d = 3: n^2 + 30 (n/3)^2 census steps, more than the census budget.
    values = {"n": 10**6, "q": 2, "ell": 7}
    reason = (
        "predicted work of at least 4333326666670 census steps exceeds the budget of 50000000"
    )
    assert main(_cli_argv("gl_blocks", values)) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {reason}\n"
    assert main(_sweep_argv(tmp_path, "gl_blocks", values)) == 0
    assert capsys.readouterr().err == f"skip gl_blocks ell=7 n=1000000 q=2: {reason}\n"


def _no_walk(n, d):
    raise AssertionError("a refused cell walked its cores")


@pytest.mark.parametrize("command", [["sym", "bhz"], ["sym", "am"], ["sym", "blocks"]])
def test_census_cells_above_the_block_bound_walk_no_core(command, capsys, monkeypatch):
    # The 35 726 285 13-cores of the sizes 200 - 13w are counted before any walk, and
    # 1000 census steps each are too many.
    monkeypatch.setattr(partitions, "_core_walk", _no_walk)
    assert main([*command, "--n", "200", "--p", "13"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: predicted work of at least 114133437150 census steps exceeds the budget of 50000000\n"
    )


def test_gl_blocks_above_the_block_bound_is_cli_error_and_sweep_skip(
    tmp_path, capsys, monkeypatch
):
    # d = 1 000 002 > n: every partition of 50 is its own d-core, one block each, and
    # the walk enters every partition of each size up to 50.
    monkeypatch.setattr(partitions, "_core_walk", _no_walk)
    values = {"n": 50, "q": 2, "ell": 1000003}
    reason = (
        "predicted work of at least 269027050 census steps exceeds the budget of 50000000"
    )
    assert main(_cli_argv("gl_blocks", values)) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {reason}\n"
    assert main(_sweep_argv(tmp_path, "gl_blocks", values)) == 0
    assert capsys.readouterr().err == f"skip gl_blocks ell=1000003 n=50 q=2: {reason}\n"


def test_gl_blocks_of_weight_60_runs_and_every_row_passes(capsys):
    # d_3(4) = 1: GL_60(4) has one unipotent 3-block, of weight 60, whose Weyl
    # group count |Irr(S_60)| = p(60) comes from the divisor-sum recurrence.
    assert main(["gl", "blocks", "--n", "60", "--q", "4", "--ell", "3", "--format", "json"]) == 0
    block, total = json.loads(capsys.readouterr().out)
    assert block["local_count"] == total["global_count"] == "966467"
    assert block["passed"] and total["passed"]
    # No weight bound remains: weight 500 at d = 2 is within the census budget.
    assert CHECKS["gl_blocks"].refusal({"n": 1000, "q": 2, "ell": 3}) is None


def test_sym_mckay_admits_every_n_below_2048():
    # The Sylow 2-subgroup costs 6^b / 32 census steps, b = n.bit_length(): 47 086 495 steps
    # in all at n = 2047, which took 1.2 s; n = 2048 adds a twelfth layer to P.
    assert CHECKS["sym_mckay"].cost(n=2047, p=2) == {"census step": 47_086_495}
    assert CHECKS["sym_mckay"].refusal({"n": 2047, "p": 2}) is None
    assert "exceeds the budget" in CHECKS["sym_mckay"].refusal({"n": 2048, "p": 2})


@pytest.mark.parametrize("name", ["sym_bhz", "sym_am", "sym_blocks"])
def test_block_bound_refuses_only_above_it(name, monkeypatch):
    # S_22 has 137 7-blocks, 137 000 of the cell's census steps: a budget of exactly its
    # predicted work admits the cell, and one step less refuses it.
    work = CHECKS[name].cost(n=22, p=7)["census step"]
    assert work == 22 * 22 + 30 * 3**2 + 22 * sum(partitions._core_counts(22, 7)) + 137_000
    monkeypatch.setitem(BUDGETS, "census step", work)
    assert CHECKS[name].refusal({"n": 22, "p": 7}) is None
    monkeypatch.setitem(BUDGETS, "census step", work - 1)
    reason = f"predicted work of at least {work} census steps exceeds the budget of {work - 1}"
    assert CHECKS[name].refusal({"n": 22, "p": 7}) == reason


@pytest.mark.parametrize("name", sorted(CHECKS))
def test_precondition_is_cli_error_and_sweep_skip(name, tmp_path, capsys):
    override, reason = FAILING[name]
    values = {**PASSING, **override}
    assert main(_cli_argv(name, values)) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {reason}\n"
    assert main(_sweep_argv(tmp_path, name, values)) == 0
    captured = capsys.readouterr()
    rendered = " ".join(f"{k}={values[k]}" for k in sorted(CHECKS[name].params))
    assert captured.err == f"skip {name} {rendered}: {reason}\n"


def test_sweep_runners_are_the_public_runners_of_the_cli():
    # bench/trace_child.py counts sweep cells by wrapping these values.
    assert set(cli._SWEEP_RUNNERS) == set(CHECKS)
    for runner in cli._SWEEP_RUNNERS.values():
        assert not runner.__name__.startswith("_")
        assert runner.__module__ == "blockcraft.cli"
        assert getattr(cli, runner.__name__) is runner


def test_sweep_works_out_each_cell_refusal_once(tmp_path, capsys, monkeypatch):
    # The registry's wrapper is the one place a cell is admitted: a sweep
    # cell makes one refusal call, and gl mckay asks for d once, in
    # EllContext.of, since its cost counts labels only.
    refusals = []
    original = cli.Check.refusal

    def counted(check, params):
        refusals.append(check.name)
        return original(check, params)

    monkeypatch.setattr(cli.Check, "refusal", counted)
    calls = _count_calls(monkeypatch, "d_ell")
    path = tmp_path / "sweep.json"
    cells = [
        {"check": "gl_mckay", "n": 4, "q": 7, "ell": 5},
        {"check": "gl_mckay", "n": 40, "q": 2, "ell": 3},  # refused: past the label budget
        {"check": "sym_mckay", "n": [0, 3]},  # n = 0 refused
    ]
    path.write_text(json.dumps({"cells": cells}))
    assert main(["sweep", "--config", str(path), "--format", "csv"]) == 0
    assert refusals == ["gl_mckay", "gl_mckay", "sym_mckay", "sym_mckay"]
    assert calls == {"d_ell": [(7, 5)]}
    assert capsys.readouterr().err.count("skip ") == 2


def test_sweep_calls_the_runner_in_the_registry(tmp_path, capsys, monkeypatch):
    calls = []

    def fake(**params):
        calls.append(params)
        return []

    monkeypatch.setitem(cli._SWEEP_RUNNERS, "sym_mckay", fake)
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps({"cells": [{"check": "sym_mckay", "n": [3, 5]}]}))
    assert main(["sweep", "--config", str(path), "--format", "csv"]) == 0
    assert calls == [{"n": 3, "p": 2}, {"n": 5, "p": 2}]


def test_runner_takes_its_arguments_as_a_call_would():
    # Positional and keyword calls, with the default p = 2, give the same report.
    reports = [cli.run_sym_mckay(6), cli.run_sym_mckay(6, 2), cli.run_sym_mckay(p=2, n=6)]
    assert len({(r.global_count, r.passed) for [r] in reports}) == 1
    for args, kwargs in [((), {}), ((), {"p": 2}), ((6,), {"n": 6}), ((6, 2, 3), {}),
                         ((6,), {"q": 2})]:
        with pytest.raises(TypeError):
            cli.run_sym_mckay(*args, **kwargs)


# Primes far beyond n: 10^9 + 7 and 2^61 - 1.
HUGE_PRIMES = [1000000007, 2305843009213693951]
SYM_AND_ORACLE = sorted(name for name, check in CHECKS.items() if check.group in ("sym", "oracle"))


@settings(max_examples=200, deadline=timedelta(seconds=5))
@given(
    name=st.sampled_from(SYM_AND_ORACLE),
    n=st.one_of(st.integers(-3, 24), st.sampled_from([61, 70, 500])),
    p=st.one_of(st.integers(-3, 12), st.sampled_from(HUGE_PRIMES)),
)
def test_cli_fuzz_small_sym_and_oracle_vectors(name, n, p):
    check = CHECKS[name]
    argv = [check.group, check.command, "--n", str(n)]
    if "p" in check.params:
        argv += ["--p", str(p)]
    _assert_one_clean_exit(argv)


def _assert_one_clean_exit(argv):
    """Run the CLI on argv: exit 0, 1 or 2, no traceback, at most one stderr line."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    assert len(err.getvalue().splitlines()) <= 1


GL = sorted(name for name, check in CHECKS.items() if check.group == "gl")
GL_VECTORS = {
    "n": st.integers(-3, 8),
    "q": st.sampled_from([-1, 0, 1, 2, 3, 4, 6, 9, 1024]),
    # small primes, non-primes, and a prime far beyond any table
    "ell": st.sampled_from([2, 3, 5, 7, 11, -3, 0, 1, 4, 9, 1000000007]),
}


@settings(max_examples=200, deadline=timedelta(seconds=5))
@given(name=st.sampled_from(GL), **GL_VECTORS)
def test_cli_fuzz_small_gl_vectors(name, n, q, ell):
    check = CHECKS[name]
    values = {"n": n, "q": q, "ell": ell}
    argv = [check.group, check.command]
    for param in check.params:
        argv += [f"--{param}", str(values[param])]
    _assert_one_clean_exit(argv)


@settings(max_examples=200, deadline=timedelta(seconds=5))
@given(
    name=st.sampled_from(sorted(CHECKS)),
    p=st.one_of(st.integers(-3, 12), st.sampled_from(HUGE_PRIMES)),
    **GL_VECTORS,
)
def test_cli_fuzz_one_cell_sweeps(name, n, p, q, ell):
    values = {"n": n, "p": p, "q": q, "ell": ell}
    cell = {"check": name, **{param: values[param] for param in CHECKS[name].params}}
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "sweep.json"
        config.write_text(json.dumps({"cells": [cell]}))
        _assert_one_clean_exit(["sweep", "--config", str(config), "--format", "csv"])


# ---------------------------------------------------------------------------
# Process entry: run() freezes the start-up heap; main() and the import do not
# ---------------------------------------------------------------------------

SRC = Path(cli.__file__).resolve().parents[1]


def _entry_env(*front):
    return {**os.environ, "PYTHONPATH": os.pathsep.join([*map(str, front), str(SRC)])}


def test_process_entry_freezes_the_startup_heap(tmp_path):
    # sitecustomize registers its handler before anything else, so it runs last at exit.
    (tmp_path / "sitecustomize.py").write_text(
        "import atexit, gc, sys\n"
        "atexit.register(lambda: print('freeze count', gc.get_freeze_count(), file=sys.stderr))\n"
    )
    done = subprocess.run(
        [sys.executable, "-m", "blockcraft.cli", "sym", "mckay", "--n", "5"],
        env=_entry_env(tmp_path), capture_output=True, text=True, timeout=10,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("[PASS] mckay n=5 p=2")
    assert re.fullmatch(r"freeze count (\d+)\n", done.stderr), done.stderr
    assert int(done.stderr.split()[-1]) > 0


def test_main_and_the_import_freeze_nothing(capsys):
    before = gc.get_freeze_count()
    for _ in range(2):
        assert main(["sym", "mckay", "--n", "5"]) == 0
    assert gc.get_freeze_count() == before
    code = (
        "import atexit, gc\n"
        "before = atexit._ncallbacks()\n"
        "import blockcraft.cli\n"
        "print(gc.get_freeze_count(), atexit._ncallbacks() - before)\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], env=_entry_env(), capture_output=True, text=True, timeout=10
    )
    assert (done.returncode, done.stdout, done.stderr) == (0, "0 0\n", "")


def _console_script() -> list[str]:
    """Interpreter arguments that call the [project.scripts] target as pip's `blockcraft` wrapper does."""
    pyproject = (SRC.parent / "pyproject.toml").read_text(encoding="utf-8")
    module, attr = re.search(r'^blockcraft = "([\w.]+):(\w+)"$', pyproject, re.M).groups()
    return ["-c", f"import sys\nfrom {module} import {attr}\nsys.argv[0] = 'blockcraft'\nsys.exit({attr}())"]


@pytest.mark.parametrize(
    "argv, status",
    [
        # --stable: the first cell's elapsed_ms includes loading its layers, which varies.
        pytest.param(["sym", "mckay", "--n", "5", "--stable"], 0, id="pass"),
        pytest.param(["sym", "table", "--n", "18"], 1, id="refused"),
        pytest.param(["sym", "mckay", "--n", "x"], 1, id="usage"),
        pytest.param(["sym", "mckay", "--n", "6", "--format", "json", "--stable", "--output"], 0,
                     id="output"),
    ],
)
def test_console_script_and_python_m_give_the_same_process(argv, status, tmp_path):
    results = {}
    for entry, head in (("script", _console_script()), ("module", ["-m", "blockcraft.cli"])):
        out = [str(tmp_path / f"{entry}.json")] if argv[-1] == "--output" else []
        done = subprocess.run(
            [sys.executable, *head, *argv, *out], env=_entry_env(), capture_output=True, timeout=10
        )
        results[entry] = (done.returncode, done.stdout, done.stderr)
    assert results["script"] == results["module"]
    code, stdout, stderr = results["module"]
    assert code == status, stderr
    if argv[-1] == "--output":
        assert (stdout, stderr) == (b"", b"")
        for entry in results:
            assert (tmp_path / f"{entry}.json").read_text() == (GOLDEN / "sym_mckay_n6_p2.json").read_text()
    else:
        assert (stdout == b"") == (status == 1) and stderr.startswith(b"error: ") == (status == 1)


def test_planted_wrong_gl_degree_is_a_cross_check_failure(capsys, monkeypatch):
    real = glq_chars._unipotent_counts

    def planted(m, q):  # the first unipotent degree of each GL_3(q^d) one too large
        counts = real(m, q)
        return ((counts[0][0] + 1, counts[0][1]), *counts[1:]) if m == 3 else counts

    glq_chars.all_degrees.cache_clear()
    monkeypatch.setattr(glq_chars, "_unipotent_counts", planted)
    try:
        assert main(["gl", "degrees", "--n", "3", "--q", "2"]) == 2
    finally:
        glq_chars.all_degrees.cache_clear()
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("cross-check failure: sum of squared degrees ")


GL_DEGREES_CELLS = [{"check": "gl_degrees", "n": "2..5", "q": [2, 3]}]


@pytest.mark.parametrize("fmt", ["csv", "text", "json"])
def test_gl_degrees_builds_the_degree_list_only_for_a_format_that_prints_it(
    fmt, capsys, monkeypatch, tmp_path
):
    config = tmp_path / "sweep.json"
    config.write_text(json.dumps({"cells": GL_DEGREES_CELLS}), encoding="utf-8")
    calls = _count_calls(monkeypatch, "all_degrees")
    assert main(["sweep", "--config", str(config), "--format", fmt]) == 0
    capsys.readouterr()
    cells = [(params["n"], params["q"]) for _, params in expand_sweep_config({"cells": GL_DEGREES_CELLS})]
    assert sorted(calls["all_degrees"]) == ([] if fmt == "csv" else sorted(cells))


def _eager_gl_degrees(n, q):
    ms = glq_chars.all_degrees(n, q)
    return VerificationReport(
        conjecture="sum_squares",
        parameters={"group": f"gl{n}", "n": n, "q": q},
        global_count=ms.group_order,
        local_count=glq_chars.gl_order(n, q),
        passed=True,
        notes=(
            f"characters {ms.character_count}",
            "degrees " + " ".join(f"{d}^{m}" for d, m in ms.entries),
        ),
    )


def _eager_sym_table(n):
    table = sym_chars.build_table(n)
    rows_ok = sym_chars.row_orthogonality_holds(table)
    cols_ok = sym_chars.column_orthogonality_holds(table)
    rows = zip(*table.columns.values())
    return VerificationReport(
        conjecture="sum_squares",
        parameters={"group": f"sym{n}", "n": n},
        global_count=sum(d * d for d in table.columns[(1,) * n]),
        local_count=math.factorial(n),
        passed=rows_ok and cols_ok,
        notes=(
            f"row orthogonality exact: {rows_ok}",
            f"column orthogonality exact: {cols_ok}",
            "classes: " + " ".join(report.format_partition(r) for r in table.classes),
            *(
                f"chi{report.format_partition(lam)}: {' '.join(map(str, row))}"
                for lam, row in zip(table.classes, rows)
            ),
        ),
    )


@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
def test_deferred_notes_render_the_bytes_of_eager_ones(fmt, capsys):
    cells = [
        (["gl", "degrees", "--n", str(n), "--q", str(q)], _eager_gl_degrees(n, q))
        for n in range(9)
        for q in (2, 3, 4)
    ]
    cells += [(["sym", "table", "--n", str(n)], _eager_sym_table(n)) for n in range(9)]
    for argv, expected in cells:
        assert main([*argv, "--stable", "--format", fmt]) == 0
        assert capsys.readouterr().out == emit_reports([expected], fmt), argv


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_a_deferred_note_that_fails_is_a_cross_check_failure(fmt, capsys, monkeypatch):
    def planted(n, q):
        raise CrossCheckError("planted")

    monkeypatch.setattr(glq_chars, "all_degrees", planted)
    assert main(["gl", "degrees", "--n", "3", "--q", "2", "--format", fmt]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "cross-check failure: planted\n"


# ---------------------------------------------------------------------------
# Admission: each cell's predicted work must fit its unit's budget
# ---------------------------------------------------------------------------

def _run_cli(argv):
    """The CLI in a child under a 1 GiB address space, killed after 10 s."""
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    return subprocess.run(
        [sys.executable, "-m", "blockcraft.cli", *argv],
        env=env,
        capture_output=True,
        text=True,
        timeout=10,
        preexec_fn=_limit_address_space,
    )


# Each ran for more than 20 s, growing, before GL cells were bounded.
UNBOUNDED_GL_CELLS = [
    pytest.param(["gl", "degrees", "--n", "40", "--q", "2"], id="degrees-40-2"),
    pytest.param(["gl", "mckay", "--n", "40", "--q", "2", "--ell", "3"], id="mckay-40-2-3"),
    pytest.param(["gl", "mckay", "--n", "30", "--q", "1000003", "--ell", "3"], id="mckay-30-1000003-3"),
    pytest.param(["gl", "mckay", "--n", "1000000", "--q", "2", "--ell", "1000003"], id="mckay-10^6-2-1000003"),
]


@pytest.mark.parametrize("argv", UNBOUNDED_GL_CELLS)
def test_gl_cells_past_the_label_budget_exit_1_at_once(argv, monkeypatch):
    done = _run_cli(argv)
    assert done.returncode == 1
    assert done.stdout == ""
    assert done.stderr.startswith("error: predicted work of at least ")
    assert done.stderr.endswith(f" labels exceeds the budget of {BUDGETS['label']}\n")
    assert done.stderr.count("\n") == 1
    # In process: well under a second, and no class type is listed, no degree built.
    calls = _count_calls(monkeypatch, "enumerate_class_types", "all_degrees", "_local_degrees")
    check = next(c for c in CHECKS.values() if [c.group, c.command] == argv[:2])
    params = {argv[i][2:]: int(argv[i + 1]) for i in range(2, len(argv), 2)}
    start = time.perf_counter()
    assert check.refusal(params) == done.stderr[len("error: ") : -1]
    assert time.perf_counter() - start < 1
    assert not any(calls.values())


@pytest.mark.parametrize(
    "argv",
    [
        ["gl", "mckay", "--n", "20100", "--q", "2", "--ell", "20029"],  # q^20028 - 1: 6 030 digits
        ["gl", "degrees", "--n", "14", "--q", "100000000000000000000117"],  # |GL_14(q)|: 4 508
    ],
)
def test_huge_integers_give_reports_or_one_error_line(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    assert "internal error" not in captured.err
    if code == 0:
        assert captured.err == ""
    else:
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_census_cell_counts_its_cores_once():
    # Admission and core_census both read the core counts of (30, 3): one computation.
    for memo in (partitions._core_counts, partitions.core_census, partitions.valuation_census):
        memo.cache_clear()
    assert main(["sym", "bhz", "--n", "30", "--p", "3", "--format", "csv"]) == 0
    # (30, 3) computed once and read once more; (10, 3) for the block series.
    info = partitions._core_counts.cache_info()
    assert (info.misses, info.hits) == (2, 1)


# The grid of the sym_census benchmark workload.
SYM_CENSUS_GRID = [
    {"check": "sym_mckay", "n": "24..29"},
    {"check": "sym_bhz", "n": "18..22", "p": [2, 3, 5, 7]},
    {"check": "sym_blocks", "n": "18..22", "p": [3, 5]},
    {"check": "sym_am", "n": "14..18", "p": [5, 7]},
]


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_core_counts_memo_holds_a_census_sweeps_keys(seed, monkeypatch):
    # Cells shuffled as the benchmark shuffles them: each (n, d) is counted once however often asked.
    cells = expand_sweep_config({"cells": SYM_CENSUS_GRID})
    random.Random(seed).shuffle(cells)
    for memo in (partitions._core_counts, partitions.core_census, partitions.valuation_census):
        memo.cache_clear()
    memo, asked = partitions._core_counts, []

    def spy(n, d):
        asked.append((n, d))
        return memo(n, d)

    monkeypatch.setattr(partitions, "_core_counts", spy)
    reports, skips = cli.run_sweep({"cells": [{"check": name, **params} for name, params in cells]})
    assert reports and not skips
    assert memo.cache_info().misses == len(set(asked)) < len(asked)


# Prime powers for p, q and ell: small, at the frontier, and up to the primality limit.
PRIME_POWERS = [
    2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 25, 27, 61, 1024, 1000003, 1000000007, 4194304,
    2305843009213693951, 3**40, 100000000000000000000117,
]
ANY_PRIME = st.one_of(st.integers(-3, 40), st.sampled_from(PRIME_POWERS), st.integers(0, 10**30))


@settings(max_examples=300, deadline=timedelta(milliseconds=500))
@given(
    name=st.sampled_from(sorted(CHECKS)),
    n=st.one_of(st.integers(-3, 80), st.integers(0, 10**6)),
    p=ANY_PRIME,
    q=ANY_PRIME,
    ell=ANY_PRIME,
)
def test_every_admitted_cell_is_predicted_within_its_budgets(name, n, p, q, ell):
    # Refusal is in process and quick for any size; a refused cell gets one short line.
    check = CHECKS[name]
    params = {k: v for k, v in {"n": n, "p": p, "q": q, "ell": ell}.items() if k in check.params}
    reason = check.refusal(params)
    if reason is None:
        for unit, work in check.cost(**params).items():
            assert work <= BUDGETS[unit], (unit, work)
    else:
        assert "\n" not in reason and len(reason) < 200


# ---------------------------------------------------------------------------
# Sweep config expansion
# ---------------------------------------------------------------------------

def test_expand_sweep_config_grid_forms():
    cells = expand_sweep_config(
        {"cells": [{"check": "gl_mckay", "n": "2..3", "q": 2, "ell": [3, 7]}]}
    )
    assert ("gl_mckay", {"n": 2, "q": 2, "ell": 3}) in cells
    assert ("gl_mckay", {"n": 3, "q": 2, "ell": 7}) in cells
    assert len(cells) == 4


def test_expand_sweep_config_default_p_for_sym_mckay():
    cells = expand_sweep_config({"cells": [{"check": "sym_mckay", "n": 3}]})
    assert cells == [("sym_mckay", {"n": 3, "p": 2})]


def test_expand_sweep_config_rejects_unknown_check():
    with pytest.raises(UsageError):
        expand_sweep_config({"cells": [{"check": "collatz", "n": 1}]})
    with pytest.raises(UsageError):
        expand_sweep_config({"cells": [{"check": "gl_mckay", "n": 2}]})


@pytest.mark.parametrize(
    "cell, key",
    [
        ({"check": "sym_mckay", "n": 6, "pp": 3}, "'pp'"),
        ({"check": "sym_bhz", "n": 5, "p": 3, "ell": 7}, "'ell'"),
    ],
)
def test_sweep_cell_with_an_unknown_key_is_usage_error(cell, key, tmp_path, capsys):
    with pytest.raises(UsageError, match=f"sweep check '{cell['check']}' has no parameter {key}"):
        expand_sweep_config({"cells": [cell]})
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps({"cells": [cell]}))
    assert main(["sweep", "--config", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: sweep check '{cell['check']}' has no parameter {key}\n"


@pytest.mark.parametrize("cells", [[3], 3, "gl_mckay", [["gl_mckay"]], []])
def test_expand_sweep_config_rejects_malformed_cells(cells):
    with pytest.raises(UsageError):
        expand_sweep_config({"cells": cells})


@pytest.mark.parametrize("grid", ["a..b", "1..x", "..3"])
def test_expand_sweep_config_rejects_non_integer_range(grid):
    with pytest.raises(UsageError, match="bad grid value"):
        expand_sweep_config({"cells": [{"check": "sym_mckay", "n": grid}]})


@pytest.mark.parametrize("grid", [True, False, [1, True], [False]])
def test_expand_sweep_config_rejects_booleans(grid):
    with pytest.raises(UsageError, match="bad grid value"):
        expand_sweep_config({"cells": [{"check": "sym_mckay", "n": grid}]})


def test_cli_sweep_boolean_grid_is_usage_error(tmp_path, capsys):
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps({"cells": [{"check": "sym_mckay", "n": True}]}))
    assert main(["sweep", "--config", str(path), "--format", "csv"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: bad grid value True")
    assert captured.err.count("\n") == 1


def test_sweep_config_cells_are_counted_before_any_is_listed(tmp_path):
    # As a list, 10^11 cells would need far more than the child's 1 GiB.
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps({"cells": [{"check": "sym_mckay", "n": "1..100000000000"}]}))
    done = _run_cli(["sweep", "--config", str(path)])
    assert done.returncode == 1
    assert done.stdout == ""
    assert done.stderr == (
        f"error: sweep config has 100000000000 cells, more than {cli.MAX_SWEEP_CELLS}\n"
    )


def test_sweep_range_past_sys_maxsize_is_counted():
    # len() of such a range raises OverflowError, so the count takes stop - start.
    config = {"cells": [{"check": "sym_mckay", "n": f"1..{10**20}"}]}
    with pytest.raises(UsageError, match=f"sweep config has {10**20} cells, more than"):
        expand_sweep_config(config)


def test_sweep_cell_count_multiplies_grids_and_adds_entries():
    grid = {"check": "gl_mckay", "n": "1..50", "q": list(range(2, 52)), "ell": 3}
    assert len(expand_sweep_config({"cells": [grid] * 4})) == 4 * 50 * 50 == cli.MAX_SWEEP_CELLS
    with pytest.raises(UsageError, match="sweep config has 10001 cells, more than 10000"):
        expand_sweep_config({"cells": [grid] * 4 + [{"check": "sym_mckay", "n": 3}]})


@pytest.mark.parametrize("grid", ["5..3", []])
def test_expand_sweep_config_rejects_empty_grid(grid):
    with pytest.raises(UsageError, match="no values"):
        expand_sweep_config({"cells": [{"check": "sym_mckay", "n": grid}]})


@pytest.mark.parametrize("config", [{"cells": [3]}, {"cells": 3},
                                    {"cells": [{"check": "sym_mckay", "n": "5..3"}]},
                                    {"cells": []}])
def test_cli_sweep_malformed_config_is_usage_error(tmp_path, capsys, config):
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(config))
    assert main(["sweep", "--config", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.strip()
    assert err.startswith("error: ") and "\n" not in err


def test_cli_sweep_config_not_utf8_is_usage_error(tmp_path, capsys):
    path = tmp_path / "sweep.json"
    path.write_bytes(b"\xff\xfe{")
    assert main(["sweep", "--config", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: cannot read sweep config: ")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("workers", ["0", "-1"])
def test_cli_sweep_rejects_workers_below_one(tmp_path, capsys, workers):
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps({"cells": [{"check": "sym_mckay", "n": 3}]}))
    assert main(["sweep", "--config", str(path), "--workers", workers]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.strip()
    assert err.startswith("error: ") and "workers" in err and "\n" not in err


def test_cli_sweep_end_to_end(tmp_path, capsys):
    config = tmp_path / "sweep.json"
    config.write_text(json.dumps({"cells": [
        {"check": "sym_mckay", "n": "1..4"},
        {"check": "gl_blocks", "n": 3, "q": 2, "ell": [2, 7]},
    ]}))
    assert main(["sweep", "--config", str(config), "--format", "csv", "--stable"]) == 0
    captured = capsys.readouterr()
    assert "skip gl_blocks ell=2 n=3 q=2: ell=2 divides q=2" in captured.err
    lines = captured.out.strip().split("\n")
    assert lines[0] == "conjecture,params,global,local,passed,elapsed_ms"
    assert all(",true," in line for line in lines[1:])


# ---------------------------------------------------------------------------
# Golden regression corpus
# ---------------------------------------------------------------------------

GOLDEN_COMMANDS = {
    "sym_mckay_n6_p2.json": ["sym", "mckay", "--n", "6", "--p", "2",
                             "--format", "json", "--stable"],
    "sym_table_n3.txt": ["sym", "table", "--n", "3", "--format", "text", "--stable"],
    "gl_mckay_n2_q3_ell2.csv": ["gl", "mckay", "--n", "2", "--q", "3", "--ell", "2",
                                "--format", "csv", "--stable"],
    "gl_blocks_n4_q2_ell7.json": ["gl", "blocks", "--n", "4", "--q", "2", "--ell", "7",
                                  "--format", "json", "--stable"],
    "sweep_desk.csv": ["sweep", "--config", str(GOLDEN / "sweep_desk_config.json"),
                       "--format", "csv", "--stable"],
}


@pytest.mark.parametrize("name", sorted(GOLDEN_COMMANDS))
def test_golden_outputs(name, capsys):
    code = main(GOLDEN_COMMANDS[name])
    captured = capsys.readouterr()
    assert code == 0
    expected = (GOLDEN / name).read_text()
    assert captured.out == expected
