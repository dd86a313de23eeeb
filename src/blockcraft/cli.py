"""Command-line front end: single verifications, sweeps, and report emission.

Each check is registered once, by the decorator on its runner, with its
sweep name, CLI group and command, cost and any precondition.  The runner's
parameters (all ints) and their defaults become the command's flags and the
keys of its sweep cells.  The CLI and sweeps refuse the same cells with the
same reason (n negative, p or ell not prime, q not a prime power, the
check's precondition, or predicted work past a ``budget``): an `error:`
line and exit 1 on the CLI, a skip note on stderr in a sweep.

Exit codes: 0 when every emitted report passed, 2 when at least one
verification failed (or an internal cross-check caught a disagreement, or
a ValueError escaped a runner: an `internal error:` line), 1 for usage or
resource errors.

Sweeps read a JSON config of the form

    {"cells": [{"check": "gl_mckay", "n": "2..4", "q": [2, 3], "ell": [2, 3, 5]}]}

where each parameter is an int, a list of ints, or an inclusive "a..b"
range string.  Reports are sorted before emission, so stdout is
byte-identical across runs; pass --stable to also zero the elapsed-time
fields (golden files).

`blockcraft` and `python -m blockcraft.cli` enter through run(), which freezes the
start-up heap (gc.freeze): shutdown then need not collect what exit discards anyway.
Importing this module runs no layer: each layer loads when a check first uses it,
so the first cell to use a layer pays for loading it in its elapsed_ms.  Notes are
rendered when the reports are emitted, so elapsed_ms does not include them, and csv,
which prints no notes, renders none (`gl degrees` then builds no degree list).
"""

from __future__ import annotations

import argparse
import functools
import gc
import importlib.util
import json
import sys
import time
import types
from itertools import product
from math import factorial, isqrt, prod
from typing import Callable, NamedTuple

from .budget import BUDGETS, over_budget
from .errors import (
    CrossCheckError,
    RefusalError,
    ResourceLimitError,
    UnsupportedRegimeError,
    UsageError,
)


def _lazy_layer(name: str) -> types.ModuleType:
    """blockcraft.<name>, registered to run on its first attribute access unless imported already.

    On Python 3.11, LazyLoader is not safe when threads first touch a module at
    once, so only this module, whose process is single-threaded, registers
    layers with it; the package's __getattr__ imports under the import locks.
    """
    fullname = f"{__package__}.{name}"
    module = sys.modules.get(fullname)
    if module is None:
        spec = importlib.util.find_spec(fullname)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = sys.modules[fullname] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    setattr(sys.modules[__package__], name, module)
    return module


arith = _lazy_layer("arith")
partitions = _lazy_layer("partitions")
sym_chars = _lazy_layer("sym_chars")
sym_blocks = _lazy_layer("sym_blocks")
wreath_local = _lazy_layer("wreath_local")
glq_chars = _lazy_layer("glq_chars")
glq_blocks = _lazy_layer("glq_blocks")
report = _lazy_layer("report")


class Check(NamedTuple):
    """A check as registered by _register: sweep name, CLI path, parameters, cost, precondition."""

    name: str
    group: str
    command: str
    params: tuple[str, ...]
    defaults: dict[str, int]
    cost: Callable[..., dict[str, int]]
    precondition: Callable[..., str | None] | None

    def refusal(self, params: dict) -> str | None:
        """Why the cell with these parameter values cannot run, or None if it can.

        Whichever check takes them, n must be nonnegative, p and ell prime
        and q a prime power, each below the range where primality is exact.
        """
        n, p, q, ell = params.get("n"), params.get("p"), params.get("q"), params.get("ell")
        if n is not None and n < 0:
            return "n must be nonnegative"
        limit = arith._MR_LIMIT
        for name in ("p", "q", "ell"):
            if params.get(name, 0) >= limit:
                return f"{name}={params[name]} is not below {limit}, where primality is exact"
        if p is not None and not arith.is_prime(p):
            return f"p={p} is not prime"
        if q is not None:
            try:
                arith.prime_power_radical(q)
            except ValueError:
                return f"q={q} is not a prime power"
        if ell is not None and not arith.is_prime(ell):
            return f"ell={ell} is not prime"
        if self.precondition and (reason := self.precondition(**params)):
            return reason
        reasons = (over_budget(unit, work) for unit, work in self.cost(**params).items())
        return next(filter(None, reasons), None)


CHECKS: dict[str, Check] = {}
# Check name -> runner.  The CLI and sweeps look a runner up here when they
# call it, so a runner replaced in this dict is the one that runs.
_SWEEP_RUNNERS: dict[str, Callable[..., list[report.VerificationReport]]] = {}


def _census_cost(n: int, p: int, sylow: int = 0) -> dict[str, int]:
    """Census steps on the p-cores (d-cores for gl blocks) of the sizes n - p*w.

    n^2 for the core counts, 30 per series product, n per core the walk
    enters, 1000 per block's report, and sylow.  The counts of a prefix, 1/64
    of the budget, give a lower bound first; core_census reuses (n, p)'s.
    """
    budget = BUDGETS["census step"]
    fixed = work = n * n + 30 * (n // p) ** 2 + sylow
    for m in sorted({min(n, isqrt(budget) // 8), n}):
        if work > budget:
            break
        counts = partitions._core_counts(m, p)
        work = fixed + n * sum(counts) + 1000 * sum(counts[n % p :: p])
    return {"census step": work}


def _gl_cost(n: int, q: int) -> dict[str, int]:
    """Green labels of GL_n(q); gl mckay's local side costs nothing that grows with q^d.

    A label weighs 1 + (b/2900)^2, b >= log2 |GL_n(q)| the bits its degree
    products multiply.  The unipotent labels, p(n), come first, as a lower
    bound.
    """
    weight = 1 + (n * n * q.bit_length()) ** 2 // 2900**2
    labels = partitions.partition_count_capped(n, cap := BUDGETS["label"] // weight)
    return {"label": weight * (glq_chars.label_count(n, q) if labels <= cap else labels)}


def _register(name: str, path: str, cost: Callable[..., dict[str, int]],
              precondition: Callable[..., str | None] | None = None):
    """Register the decorated runner as check `name`, run as `blockcraft <path>`.

    The runner's parameters and their defaults are the check's, and cost
    takes them too.  The runner returned raises RefusalError, before any
    work, for a cell that Check.refusal refuses, however it is called, so
    the CLI and sweeps check each cell once.  It is also the one place a
    check is timed: every report of a cell carries the cell's wall time, in
    whole milliseconds, as elapsed_ms.
    """
    group, command = path.split()

    def register(runner):
        params = runner.__code__.co_varnames[: runner.__code__.co_argcount]
        values = runner.__defaults__ or ()
        defaults = dict(zip(params[len(params) - len(values) :], values))
        check = Check(name, group, command, params, defaults, cost, precondition)

        @functools.wraps(runner)
        def guarded(*args, **kwargs):
            given = dict(zip(params, args))
            cell = {**defaults, **given, **kwargs}
            if len(args) > len(given) or given.keys() & kwargs or cell.keys() != {*params}:
                raise TypeError(f"{name} takes {', '.join(params)}, not {args} and {kwargs}")
            reason = check.refusal(cell)
            if reason:
                raise RefusalError(reason)
            start = time.perf_counter()
            reports = runner(*args, **kwargs)
            elapsed = int((time.perf_counter() - start) * 1000)
            return [r._replace(elapsed_ms=elapsed) for r in reports]

        CHECKS[name] = check
        _SWEEP_RUNNERS[name] = guarded
        return guarded

    return register


@_register(
    "sym_mckay", "sym mckay",
    # The Sylow 2-subgroup takes about 6^b / 32 steps, b = n.bit_length() (fit at b = 9..12).
    cost=lambda n, p: _census_cost(n, 2, sylow=6 ** n.bit_length() // 32),
    precondition=lambda n, p: (
        "sym mckay local side is only available at p=2" if p != 2
        else "n must be positive" if n < 1 else None
    ),
)
def run_sym_mckay(n: int, p: int = 2) -> list[report.VerificationReport]:
    global_count = sym_chars.irr_pprime_count_sym(n, 2)
    local_count = wreath_local.sylow2_local_count(n)
    macdonald = sym_chars.macdonald_count(n)
    return [
        report.VerificationReport(
            conjecture="mckay",
            parameters={"n": n, "p": 2},
            global_count=global_count,
            local_count=local_count,
            passed=global_count == local_count == macdonald,
            notes=(f"binary-expansion count {macdonald}",),
        )
    ]


@_register("sym_blocks", "sym blocks", cost=_census_cost)
def run_sym_blocks(n: int, p: int) -> list[report.VerificationReport]:
    census = partitions.valuation_census(n, p)
    notes = []
    total = 0
    for label in sym_blocks.block_labels(n, p):
        members = census[label.core][3]
        total += members
        notes.append(
            f"core={report.format_partition(label.core)} weight={label.weight} "
            f"members={members} defect_order={p ** label.defect_valuation}"
        )
    return [
        report.VerificationReport(
            conjecture="block_census",
            parameters={"n": n, "p": p},
            global_count=partitions.partition_count(n),
            local_count=total,
            passed=partitions.partition_count(n) == total,
            notes=tuple(notes),
        )
    ]


@_register("sym_table", "sym table", cost=lambda n: {"table product": sym_chars.table_products(n)})
def run_sym_table(n: int) -> list[report.VerificationReport]:
    table = sym_chars.build_table(n)
    rows_ok = sym_chars.row_orthogonality_holds(table)
    cols_ok = sym_chars.column_orthogonality_holds(table)
    square_sum = sum(degree**2 for degree in table.columns[(1,) * n])
    order = factorial(n)
    columns = table.columns.values()
    notes = (
        f"row orthogonality exact: {rows_ok}",
        f"column orthogonality exact: {cols_ok}",
        # The class list and the rows are rendered only by a format that prints notes.
        lambda: "classes: " + " ".join(map(report.format_partition, table.classes)),
        *(
            lambda i=i, lam=lam: f"chi{report.format_partition(lam)}: "
            + " ".join(str(column[i]) for column in columns)
            for i, lam in enumerate(table.classes)
        ),
    )
    return [
        report.VerificationReport(
            conjecture="sum_squares",
            parameters={"group": f"sym{n}", "n": n},
            global_count=square_sum,
            local_count=order,
            passed=square_sum == order and rows_ok and cols_ok,
            notes=notes,
        )
    ]


@_register(
    "nakayama", "oracle nakayama", cost=lambda n, p: {"table product": sym_chars.table_products(n)}
)
def run_oracle_nakayama(n: int, p: int) -> list[report.VerificationReport]:
    oracle = sym_chars.central_character_blocks(n, p)
    nakayama = {frozenset(members) for members in partitions.partitions_by_core(n, p).values()}
    agree = set(oracle.blocks) == nakayama
    return [
        report.VerificationReport(
            conjecture="nakayama_oracle",
            parameters={"n": n, "p": p},
            global_count=len(oracle.blocks),
            local_count=len(nakayama),
            passed=agree,
            notes=(f"central-character partition matches p-core partition: {agree}",),
        )
    ]


@_register("sym_bhz", "sym bhz", cost=_census_cost)
def run_sym_bhz(n: int, p: int) -> list[report.VerificationReport]:
    return [sym_blocks.bhz_verify(label) for label in sym_blocks.block_labels(n, p)]


@_register("sym_am", "sym am", cost=_census_cost)
def run_sym_am(n: int, p: int) -> list[report.VerificationReport]:
    return [
        sym_blocks.am_verify_abelian(label)
        for label in sym_blocks.block_labels(n, p)
        if label.weight < label.p
    ]


@_register("gl_degrees", "gl degrees", cost=_gl_cost)
def run_gl_degrees(n: int, q: int) -> list[report.VerificationReport]:
    square_sum, characters = glq_chars.degree_square_sum(n, q)
    order = glq_chars.gl_order(n, q)
    if square_sum != order:
        raise CrossCheckError(f"sum of squared degrees {square_sum} != group order {order}")
    return [
        report.VerificationReport(
            conjecture="sum_squares",
            parameters={"group": f"gl{n}", "n": n, "q": q},
            global_count=square_sum,
            local_count=order,
            passed=True,
            notes=(
                f"characters {characters}",
                # Listed only by a format that prints notes; all_degrees checks its sum again.
                lambda: "degrees " + " ".join(
                    f"{d}^{m}" for d, m in glq_chars.all_degrees(n, q).entries
                ),
            ),
        )
    ]


@_register("gl_mckay", "gl mckay", cost=lambda n, q, ell: _gl_cost(n, q))
def run_gl_mckay(n: int, q: int, ell: int) -> list[report.VerificationReport]:
    if q % ell == 0:
        return [glq_blocks.verify_gl_mckay_defining(n, q)]
    return [glq_blocks.verify_gl_mckay(n, q, ell)]


@_register(
    "gl_blocks", "gl blocks",
    cost=lambda n, q, ell: _census_cost(n, glq_blocks.d_ell(q, ell)),
    precondition=lambda n, q, ell: f"ell={ell} divides q={q}" if q % ell == 0 else None,
)
def run_gl_blocks(n: int, q: int, ell: int) -> list[report.VerificationReport]:
    context = glq_blocks.EllContext.of(q, ell)
    blocks = glq_blocks.unipotent_blocks(n, context)
    census = partitions.core_census(n, context.d)
    # Largest weight first, so blocks[0] has the top weight of the Weyl group counts.
    weyls = wreath_local.cyclic_wreath_character_counts(context.d, blocks[0].weight)
    reports = []
    for label in blocks:
        members = census[label.core]
        weyl = weyls[label.weight]
        reports.append(
            report.VerificationReport(
                conjecture="block_census",
                parameters={
                    "n": n,
                    "q": q,
                    "ell": ell,
                    "d": context.d,
                    "core": label.core,
                    "weight": label.weight,
                },
                global_count=members,
                local_count=weyl,
                passed=members == weyl,
                notes=(f"relative Weyl group count {weyl}",),
            )
        )
    total = sum(census.values())
    reports.append(
        report.VerificationReport(
            conjecture="block_census",
            parameters={"n": n, "q": q, "ell": ell, "d": context.d, "scope": "total"},
            global_count=partitions.partition_count(n),
            local_count=total,
            passed=partitions.partition_count(n) == total,
            notes=(f"blocks {len(blocks)}",),
        )
    )
    return reports


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------

MAX_SWEEP_CELLS = 10_000  # counted from the grids' lengths before any cell is listed


def _parse_grid(value) -> list[int] | range:
    # type(...) is int, since bool is a subclass of int and JSON true is not a grid value.
    if type(value) is int:
        grid = [value]
    elif isinstance(value, list) and all(type(v) is int for v in value):
        grid = list(value)
    elif isinstance(value, str) and ".." in value:
        lo, hi = value.split("..", 1)
        try:
            grid = range(int(lo), int(hi) + 1)
        except ValueError:
            raise UsageError(f"bad grid value {value!r}: 'a..b' needs integers a and b") from None
    else:
        raise UsageError(f"bad grid value {value!r}: expected int, list of ints, or 'a..b'")
    if not grid:
        raise UsageError(f"grid value {value!r} has no values")
    return grid


def expand_sweep_config(config: dict) -> list[tuple[str, dict]]:
    """Flatten a sweep config into (check, parameter dict) cells, in order."""
    entries = []
    if not isinstance(config, dict) or not isinstance(config.get("cells"), list):
        raise UsageError("sweep config must be an object with a 'cells' list")
    for entry in config["cells"]:
        if not isinstance(entry, dict):
            raise UsageError(f"sweep cell {entry!r} is not an object")
        name = entry.get("check")
        if name not in CHECKS:
            raise UsageError(f"unknown sweep check {name!r}")
        check = CHECKS[name]
        unknown = sorted(set(entry) - {"check", *check.params})
        if unknown:
            names = ", ".join(map(repr, unknown))
            raise UsageError(f"sweep check {name!r} has no parameter {names}")
        grids = []
        for param in check.params:
            if param in entry:
                grids.append(_parse_grid(entry[param]))
            elif param in check.defaults:
                grids.append([check.defaults[param]])
            else:
                raise UsageError(f"sweep check {name!r} needs parameter {param!r}")
        entries.append((name, check.params, grids))
    total = sum(
        prod(len(g) if isinstance(g, list) else g.stop - g.start for g in grids)
        for _, _, grids in entries
    )
    if not total:
        raise UsageError("sweep config has no cells")
    if total > MAX_SWEEP_CELLS:
        raise UsageError(f"sweep config has {total} cells, more than {MAX_SWEEP_CELLS}")
    return [
        (name, dict(zip(params, combo)))
        for name, params, grids in entries
        for combo in product(*grids)
    ]


def run_sweep(config: dict) -> tuple[list[report.VerificationReport], list[str]]:
    """Reports of the cells that pass their preconditions, and a sorted skip note per other cell."""
    reports: list[report.VerificationReport] = []
    skips = []
    for name, params in expand_sweep_config(config):
        try:
            reports.extend(_SWEEP_RUNNERS[name](**params))
        except RefusalError as refusal:
            rendered = " ".join(f"{k}={v}" for k, v in sorted(params.items()))
            skips.append(f"skip {name} {rendered}: {refusal}")
    return reports, sorted(skips)


# ---------------------------------------------------------------------------
# Argument parsing and dispatch
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


_GROUP_HELP = {
    "sym": "symmetric group checks",
    "oracle": "brute-force oracles",
    "gl": "general linear group checks",
}


def _build_parser() -> _Parser:
    common = _Parser(add_help=False)
    common.add_argument("--format", choices=("text", "json", "csv"), default="text")
    common.add_argument("--output", default=None, help="write reports to a file instead of stdout")
    common.add_argument("--stable", action="store_true",
                        help="zero elapsed_ms fields so output is byte-reproducible")

    parser = _Parser(prog="blockcraft", description=__doc__)
    top = parser.add_subparsers(dest="group", parser_class=_Parser)
    commands = {
        group: top.add_parser(group, help=text).add_subparsers(parser_class=_Parser)
        for group, text in _GROUP_HELP.items()
    }
    for check in CHECKS.values():
        sub = commands[check.group].add_parser(check.command, parents=[common])
        sub.set_defaults(check=check.name)
        for param in check.params:
            sub.add_argument(f"--{param}", type=int, required=param not in check.defaults,
                             default=check.defaults.get(param))

    sweep = top.add_parser("sweep", parents=[common], help="run a grid of checks from a config file")
    sweep.add_argument("--config", required=True)

    return parser


def _dispatch(args) -> tuple[list[report.VerificationReport], list[str]]:
    if args.group == "sweep":
        try:
            with open(args.config, encoding="utf-8") as fh:
                config = json.load(fh)
        except (OSError, UnicodeDecodeError) as exc:
            raise UsageError(f"cannot read sweep config: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise UsageError(f"sweep config is not valid JSON: {exc}") from exc
        return run_sweep(config)
    name = getattr(args, "check", None)
    if name is None:
        raise UsageError("no subcommand given (try: sym, oracle, gl, sweep)")
    params = {param: getattr(args, param) for param in CHECKS[name].params}
    return _SWEEP_RUNNERS[name](**params), []


def main(argv=None) -> int:
    if hasattr(sys, "set_int_max_str_digits"):  # the budgets bound what a report prints
        sys.set_int_max_str_digits(0)
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        reports, skips = _dispatch(args)
        for line in skips:
            print(line, file=sys.stderr)
        if getattr(args, "stable", False):
            reports = report.strip_timings(reports)
        payload = report.emit_reports(reports, args.format)
        if args.output:
            try:
                with open(args.output, "w", encoding="utf-8") as fh:
                    fh.write(payload)
            except OSError as exc:
                raise UsageError(f"cannot write output: {exc}") from exc
        else:
            sys.stdout.write(payload)
    except (UsageError, ResourceLimitError, UnsupportedRegimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except CrossCheckError as exc:
        print(f"cross-check failure: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:  # bad user input is refused before a runner starts
        print(f"internal error: {exc}", file=sys.stderr)
        return 2
    return 0 if all(r.passed for r in reports) else 2


def run() -> None:
    """Process entry: move the start-up heap to gc's permanent generation, then exit with main()."""
    gc.freeze()
    raise SystemExit(main())


if __name__ == "__main__":
    run()
