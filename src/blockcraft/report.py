"""Machine-readable verification reports and their serializers.

A VerificationReport records one conjecture instance: both independently
computed sides of the count, pass/fail, the parameters, and timing.  The
JSON schema is an array of objects with keys in this fixed order:

    conjecture, parameters, global_count, local_count, passed, elapsed_ms, notes

Counts are serialized as decimal strings (they routinely exceed 64 bits);
parameter values are strings.  CSV uses the header
``conjecture,params,global,local,passed,elapsed_ms`` with the params column
holding ``name=value`` pairs joined by ``;`` in name order.  Reports are
always emitted sorted by (conjecture, parameters) so output is byte-stable
across runs.
"""

from __future__ import annotations

import csv
import io
import json
from collections import namedtuple

from .errors import UsageError

CONJECTURES = (
    "mckay",
    "alperin_mckay",
    "bhz",
    "nakayama_oracle",
    "gl_mckay",
    "sum_squares",
    "block_census",
)


def format_partition(lam) -> str:
    return "(" + ",".join(str(p) for p in lam) + ")"


def _param_repr(value) -> str:
    if isinstance(value, tuple):
        return format_partition(value)
    return str(value)


class VerificationReport(namedtuple(
    "VerificationReport",
    "conjecture parameters global_count local_count passed elapsed_ms notes",
)):
    """One conjecture instance: both sides of the count, verdict, timing.

    For counting conjectures passed means global_count == local_count; for
    the height-zero biconditional the two counts are 0/1 truth values of the
    two sides, so the same equality convention applies.  elapsed_ms is the
    wall time of the whole cell, stamped by the CLI's check registry; a
    verifier called directly leaves it 0.
    """

    __slots__ = ()

    def __new__(cls, conjecture: str, parameters: dict, global_count: int, local_count: int,
                passed: bool, elapsed_ms: int = 0, notes: tuple = ()):
        if conjecture not in CONJECTURES:
            raise ValueError(f"unknown conjecture tag {conjecture!r}")
        return super().__new__(
            cls, conjecture, parameters, global_count, local_count, passed, elapsed_ms, notes
        )

    def param_items(self) -> list[tuple[str, str]]:
        return sorted((k, _param_repr(v)) for k, v in self.parameters.items())


def sort_reports(reports) -> list[tuple[list[tuple[str, str]], VerificationReport]]:
    """(param_items, report) pairs in emission order: by conjecture, then by param_items."""
    pairs = ((r.param_items(), r) for r in reports)
    return sorted(pairs, key=lambda pair: (pair[1].conjecture, pair[0]))


def strip_timings(reports) -> list[VerificationReport]:
    """Zero out elapsed_ms so output bytes are reproducible (golden files)."""
    return [r._replace(elapsed_ms=0) for r in reports]


def _to_json_obj(items: list[tuple[str, str]], r: VerificationReport) -> dict:
    return {
        "conjecture": r.conjecture,
        "parameters": dict(items),
        "global_count": str(r.global_count),
        "local_count": str(r.local_count),
        "passed": r.passed,
        "elapsed_ms": r.elapsed_ms,
        "notes": list(r.notes),
    }


def _emit_json(ordered) -> str:
    return json.dumps([_to_json_obj(items, r) for items, r in ordered], indent=2) + "\n"


def _emit_csv(ordered) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["conjecture", "params", "global", "local", "passed", "elapsed_ms"])
    for items, r in ordered:
        params = ";".join(f"{k}={v}" for k, v in items)
        writer.writerow(
            [r.conjecture, params, str(r.global_count), str(r.local_count),
             str(r.passed).lower(), r.elapsed_ms]
        )
    return buf.getvalue()


def _emit_text(ordered) -> str:
    lines = []
    for items, r in ordered:
        status = "PASS" if r.passed else "FAIL"
        params = " ".join(f"{k}={v}" for k, v in items)
        lines.append(
            f"[{status}] {r.conjecture} {params}: "
            f"global={r.global_count} local={r.local_count} ({r.elapsed_ms} ms)"
        )
        for note in r.notes:
            lines.append(f"    - {note}")
    return "\n".join(lines) + ("\n" if lines else "")


def emit_reports(reports, fmt: str) -> str:
    """Serialize reports (sorted) to the requested format: json, csv, or text.

    Each report's params are rendered once, by sort_reports, into the key
    that both orders the report and fills its params column or line.
    """
    emit = {"json": _emit_json, "csv": _emit_csv, "text": _emit_text}.get(fmt)
    if emit is None:
        raise UsageError(f"unknown report format {fmt!r} (expected json, csv, or text)")
    return emit(sort_reports(reports))
