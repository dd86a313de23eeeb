"""Command-line front end: single verifications, sweeps, and report emission.

Exit codes: 0 when every emitted report passed, 2 when at least one
verification failed (or an internal cross-check caught a disagreement),
1 for usage or resource errors.

Sweeps read a JSON config of the form

    {"cells": [{"check": "gl_mckay", "n": "2..4", "q": [2, 3], "ell": [2, 3, 5]}]}

where each parameter is an int, a list of ints, or an inclusive "a..b"
range string.  Cells violating preconditions (ell dividing q, composite p,
bounds) are skipped with a note on stderr, never errors.  Reports are
sorted before emission, so stdout is byte-identical across runs and worker
counts; pass --stable to also zero the elapsed-time fields (golden files).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from itertools import product
from math import factorial

from .arith import is_prime, prime_power_radical
from .errors import (
    CrossCheckError,
    ResourceLimitError,
    UnsupportedRegimeError,
    UsageError,
)
from .glq_blocks import (
    EllContext,
    unipotent_blocks,
    verify_gl_mckay,
    verify_gl_mckay_defining,
)
from .glq_chars import all_degrees, gl_order
from .partitions import (
    count_partitions_with_core,
    partition_count,
    partition_tuple_count,
)
from .report import VerificationReport, emit_reports, format_partition, strip_timings
from .sym_blocks import (
    am_verify_abelian,
    bhz_verify,
    block_labels,
    block_members_and_heights,
)
from .sym_chars import (
    build_table,
    central_character_blocks,
    column_orthogonality_holds,
    irr_pprime_count_sym,
    macdonald_count,
    row_orthogonality_holds,
    sylow2_local_count,
    table_bound,
)
from .wreath_local import cyclic_wreath_character_count


def run_sym_mckay(n: int, p: int = 2) -> list[VerificationReport]:
    if p != 2:
        raise UsageError(
            "sym mckay is implemented at p=2 only (self-normalizing Sylow 2-subgroups)"
        )
    start = time.perf_counter()
    global_count = irr_pprime_count_sym(n, 2)
    local_count = sylow2_local_count(n)
    macdonald = macdonald_count(n)
    elapsed = int((time.perf_counter() - start) * 1000)
    return [
        VerificationReport(
            conjecture="mckay",
            parameters={"n": n, "p": 2},
            global_count=global_count,
            local_count=local_count,
            passed=global_count == local_count == macdonald,
            elapsed_ms=elapsed,
            notes=(f"binary-expansion count {macdonald}",),
        )
    ]


def run_sym_blocks(n: int, p: int) -> list[VerificationReport]:
    start = time.perf_counter()
    labels = block_labels(n, p)
    notes = []
    total = 0
    for label in labels:
        data = block_members_and_heights(label)
        total += len(data.members)
        notes.append(
            f"core={format_partition(label.core)} weight={label.weight} "
            f"members={len(data.members)} defect_order={data.defect_group_order}"
        )
    elapsed = int((time.perf_counter() - start) * 1000)
    return [
        VerificationReport(
            conjecture="block_census",
            parameters={"n": n, "p": p},
            global_count=partition_count(n),
            local_count=total,
            passed=partition_count(n) == total,
            elapsed_ms=elapsed,
            notes=tuple(notes),
        )
    ]


def run_sym_table(n: int) -> list[VerificationReport]:
    start = time.perf_counter()
    table = build_table(n)
    rows_ok = row_orthogonality_holds(table)
    cols_ok = column_orthogonality_holds(table)
    square_sum = sum(
        table.degree(lam) ** 2 for lam in table.classes
    )
    order = factorial(n)
    elapsed = int((time.perf_counter() - start) * 1000)
    notes = [f"row orthogonality exact: {rows_ok}", f"column orthogonality exact: {cols_ok}"]
    notes.append("classes: " + " ".join(format_partition(r) for r in table.classes))
    for lam in table.classes:
        values = " ".join(str(table.rows[lam][rho]) for rho in table.classes)
        notes.append(f"chi{format_partition(lam)}: {values}")
    return [
        VerificationReport(
            conjecture="sum_squares",
            parameters={"group": f"sym{n}", "n": n},
            global_count=square_sum,
            local_count=order,
            passed=square_sum == order and rows_ok and cols_ok,
            elapsed_ms=elapsed,
            notes=tuple(notes),
        )
    ]


def run_oracle_nakayama(n: int, p: int) -> list[VerificationReport]:
    start = time.perf_counter()
    oracle = central_character_blocks(n, p)
    nakayama = {
        frozenset(block_members_and_heights(label).members)
        for label in block_labels(n, p)
    }
    agree = set(oracle.blocks) == nakayama
    elapsed = int((time.perf_counter() - start) * 1000)
    return [
        VerificationReport(
            conjecture="nakayama_oracle",
            parameters={"n": n, "p": p},
            global_count=len(oracle.blocks),
            local_count=len(nakayama),
            passed=agree,
            elapsed_ms=elapsed,
            notes=(f"central-character partition matches p-core partition: {agree}",),
        )
    ]


def run_sym_bhz(n: int, p: int) -> list[VerificationReport]:
    return [bhz_verify(label) for label in block_labels(n, p)]


def run_sym_am(n: int, p: int) -> list[VerificationReport]:
    return [
        am_verify_abelian(label)
        for label in block_labels(n, p)
        if label.weight < label.p
    ]


def run_gl_degrees(n: int, q: int) -> list[VerificationReport]:
    start = time.perf_counter()
    ms = all_degrees(n, q)
    square_sum = sum(m * d * d for d, m in ms.entries)
    order = gl_order(n, q)
    elapsed = int((time.perf_counter() - start) * 1000)
    rendered = " ".join(f"{d}^{m}" for d, m in ms.entries)
    return [
        VerificationReport(
            conjecture="sum_squares",
            parameters={"group": f"gl{n}", "n": n, "q": q},
            global_count=square_sum,
            local_count=order,
            passed=square_sum == order,
            elapsed_ms=elapsed,
            notes=(f"characters {ms.character_count}", f"degrees {rendered}"),
        )
    ]


def run_gl_mckay(n: int, q: int, ell: int) -> list[VerificationReport]:
    if not is_prime(ell):
        raise UsageError(f"ell={ell} is not prime")
    if q % ell == 0:
        return [verify_gl_mckay_defining(n, q)]
    return [verify_gl_mckay(n, q, ell)]


def run_gl_blocks(n: int, q: int, ell: int) -> list[VerificationReport]:
    if not is_prime(ell):
        raise UsageError(f"ell={ell} is not prime")
    if q % ell == 0:
        raise UsageError("gl blocks needs ell not dividing q (non-defining characteristic)")
    context = EllContext.of(q, ell)
    reports = []
    total = 0
    for label in unipotent_blocks(n, context):
        start = time.perf_counter()
        census = count_partitions_with_core(label.n, context.d, label.core)
        weyl = cyclic_wreath_character_count(context.d, label.weight)
        tuples = partition_tuple_count(context.d, label.weight)
        total += census
        elapsed = int((time.perf_counter() - start) * 1000)
        notes = [f"relative Weyl group count {weyl}"]
        if not label.verified:
            notes.append("ell < 7: d-core block distribution not certified in this regime")
        reports.append(
            VerificationReport(
                conjecture="block_census",
                parameters={
                    "n": n,
                    "q": q,
                    "ell": ell,
                    "d": context.d,
                    "core": label.core,
                    "weight": label.weight,
                },
                global_count=census,
                local_count=tuples,
                passed=census == tuples == weyl,
                elapsed_ms=elapsed,
                notes=tuple(notes),
            )
        )
    reports.append(
        VerificationReport(
            conjecture="block_census",
            parameters={"n": n, "q": q, "ell": ell, "d": context.d, "scope": "total"},
            global_count=partition_count(n),
            local_count=total,
            passed=partition_count(n) == total,
            elapsed_ms=0,
            notes=(f"blocks {len(unipotent_blocks(n, context))}",),
        )
    )
    return reports


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------

SWEEP_CHECKS = {
    "sym_mckay": ("n", "p"),
    "sym_blocks": ("n", "p"),
    "sym_bhz": ("n", "p"),
    "sym_am": ("n", "p"),
    "nakayama": ("n", "p"),
    "gl_degrees": ("n", "q"),
    "gl_mckay": ("n", "q", "ell"),
    "gl_blocks": ("n", "q", "ell"),
}

_SWEEP_RUNNERS = {
    "sym_mckay": run_sym_mckay,
    "sym_blocks": run_sym_blocks,
    "sym_bhz": run_sym_bhz,
    "sym_am": run_sym_am,
    "nakayama": run_oracle_nakayama,
    "gl_degrees": run_gl_degrees,
    "gl_mckay": run_gl_mckay,
    "gl_blocks": run_gl_blocks,
}


def _parse_grid(value) -> list[int]:
    if isinstance(value, int):
        grid = [value]
    elif isinstance(value, list) and all(isinstance(v, int) for v in value):
        grid = list(value)
    elif isinstance(value, str) and ".." in value:
        lo, hi = value.split("..", 1)
        grid = list(range(int(lo), int(hi) + 1))
    else:
        raise UsageError(f"bad grid value {value!r}: expected int, list of ints, or 'a..b'")
    if not grid:
        raise UsageError(f"grid value {value!r} has no values")
    return grid


def expand_sweep_config(config: dict) -> list[tuple[str, dict]]:
    """Flatten a sweep config into (check, parameter dict) cells, in order."""
    cells = []
    if not isinstance(config, dict) or not isinstance(config.get("cells"), list):
        raise UsageError("sweep config must be an object with a 'cells' list")
    for entry in config["cells"]:
        if not isinstance(entry, dict):
            raise UsageError(f"sweep cell {entry!r} is not an object")
        check = entry.get("check")
        if check not in SWEEP_CHECKS:
            raise UsageError(f"unknown sweep check {check!r}")
        names = SWEEP_CHECKS[check]
        defaults = {"p": 2} if check == "sym_mckay" else {}
        grids = []
        for name in names:
            if name in entry:
                grids.append(_parse_grid(entry[name]))
            elif name in defaults:
                grids.append([defaults[name]])
            else:
                raise UsageError(f"sweep check {check!r} needs parameter {name!r}")
        for combo in product(*grids):
            cells.append((check, dict(zip(names, combo))))
    if not cells:
        raise UsageError("sweep config has no cells")
    return cells


def _skip_reason(check: str, params: dict) -> str | None:
    p = params.get("p")
    q = params.get("q")
    ell = params.get("ell")
    if p is not None and not is_prime(p):
        return f"p={p} is not prime"
    if check == "sym_mckay" and p != 2:
        return "sym mckay local side is only available at p=2"
    if q is not None:
        try:
            prime_power_radical(q)
        except ValueError:
            return f"q={q} is not a prime power"
    if ell is not None and not is_prime(ell):
        return f"ell={ell} is not prime"
    if check == "gl_blocks" and q % ell == 0:
        return f"ell={ell} divides q={q}"
    if check == "nakayama" and params["n"] > table_bound():
        return f"n={params['n']} exceeds the table bound {table_bound()}"
    return None


def run_sweep(config: dict, workers: int = 1) -> tuple[list[VerificationReport], list[str]]:
    if workers < 1:
        raise UsageError(f"--workers must be at least 1, got {workers}")
    cells = expand_sweep_config(config)
    runnable = []
    skips = []
    for check, params in cells:
        reason = _skip_reason(check, params)
        if reason:
            rendered = " ".join(f"{k}={v}" for k, v in sorted(params.items()))
            skips.append(f"skip {check} {rendered}: {reason}")
        else:
            runnable.append((check, params))

    def run_cell(cell):
        check, params = cell
        return _SWEEP_RUNNERS[check](**params)

    reports: list[VerificationReport] = []
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            for result in pool.map(run_cell, runnable):
                reports.extend(result)
    else:
        for cell in runnable:
            reports.extend(run_cell(cell))
    return reports, sorted(skips)


# ---------------------------------------------------------------------------
# Argument parsing and dispatch
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _build_parser() -> _Parser:
    common = _Parser(add_help=False)
    common.add_argument("--format", choices=("text", "json", "csv"), default="text")
    common.add_argument("--output", default=None, help="write reports to a file instead of stdout")
    common.add_argument("--stable", action="store_true",
                        help="zero elapsed_ms fields so output is byte-reproducible")

    parser = _Parser(prog="blockcraft", description=__doc__)
    top = parser.add_subparsers(dest="group", parser_class=_Parser)

    sym = top.add_parser("sym", help="symmetric group checks")
    sym_sub = sym.add_subparsers(dest="command", parser_class=_Parser)
    for name, flags in (
        ("mckay", ("n", "p?")),
        ("blocks", ("n", "p")),
        ("table", ("n",)),
        ("bhz", ("n", "p")),
        ("am", ("n", "p")),
    ):
        sp = sym_sub.add_parser(name, parents=[common])
        sp.add_argument("--n", type=int, required=True)
        if "p" in flags:
            sp.add_argument("--p", type=int, required=True)
        elif "p?" in flags:
            sp.add_argument("--p", type=int, default=2)

    oracle = top.add_parser("oracle", help="brute-force oracles")
    oracle_sub = oracle.add_subparsers(dest="command", parser_class=_Parser)
    nak = oracle_sub.add_parser("nakayama", parents=[common])
    nak.add_argument("--n", type=int, required=True)
    nak.add_argument("--p", type=int, required=True)

    gl = top.add_parser("gl", help="general linear group checks")
    gl_sub = gl.add_subparsers(dest="command", parser_class=_Parser)
    for name, with_ell in (("degrees", False), ("mckay", True), ("blocks", True)):
        sp = gl_sub.add_parser(name, parents=[common])
        sp.add_argument("--n", type=int, required=True)
        sp.add_argument("--q", type=int, required=True)
        if with_ell:
            sp.add_argument("--ell", type=int, required=True)

    sweep = top.add_parser("sweep", parents=[common], help="run a grid of checks from a config file")
    sweep.add_argument("--config", required=True)
    sweep.add_argument("--workers", type=int, default=1)

    return parser


def _dispatch(args) -> tuple[list[VerificationReport], list[str]]:
    group = getattr(args, "group", None)
    command = getattr(args, "command", None)
    if group == "sym":
        if command == "mckay":
            return run_sym_mckay(args.n, args.p), []
        if command == "blocks":
            return run_sym_blocks(args.n, args.p), []
        if command == "table":
            return run_sym_table(args.n), []
        if command == "bhz":
            return run_sym_bhz(args.n, args.p), []
        if command == "am":
            return run_sym_am(args.n, args.p), []
    if group == "oracle" and command == "nakayama":
        return run_oracle_nakayama(args.n, args.p), []
    if group == "gl":
        if command == "degrees":
            return run_gl_degrees(args.n, args.q), []
        if command == "mckay":
            return run_gl_mckay(args.n, args.q, args.ell), []
        if command == "blocks":
            return run_gl_blocks(args.n, args.q, args.ell), []
    if group == "sweep":
        try:
            with open(args.config, encoding="utf-8") as fh:
                config = json.load(fh)
        except OSError as exc:
            raise UsageError(f"cannot read sweep config: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise UsageError(f"sweep config is not valid JSON: {exc}") from exc
        return run_sweep(config, workers=args.workers)
    raise UsageError("no subcommand given (try: sym, oracle, gl, sweep)")


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        reports, skips = _dispatch(args)
        for line in skips:
            print(line, file=sys.stderr)
        if getattr(args, "stable", False):
            reports = strip_timings(reports)
        payload = emit_reports(reports, args.format)
    except (UsageError, ResourceLimitError, UnsupportedRegimeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except CrossCheckError as exc:
        print(f"cross-check failure: {exc}", file=sys.stderr)
        return 2
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)
    return 0 if all(r.passed for r in reports) else 2


if __name__ == "__main__":
    raise SystemExit(main())
