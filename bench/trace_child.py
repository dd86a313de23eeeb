"""Run one blockcraft sweep in this process, traced, and print per-layer metrics.

Usage (from the root of a checkout, with ``src`` on PYTHONPATH):

    python3 bench/trace_child.py {count,sample} CONFIG

The sweep is ``blockcraft.cli.main(["sweep", "--config", CONFIG, "--stable",
"--format", "csv"])``, the same sweep the untraced benchmark runs in a child.
Its stdout is captured, and one JSON object is printed instead: the sha256
and row counts of the captured CSV, the exit code, and the metrics.  A layer
is a ``blockcraft`` module.

``count`` wraps every public function of every layer and binds the wrapper
under that name in every ``blockcraft`` module that holds it, because modules
import with ``from .x import f`` and patching only the defining module would
miss their calls.  Some functions run millions of times, so a wrapper adds
to per-caller totals instead of keeping a span per call.  This mode reports
call counts, result-size ratios and memo-table statistics.

``sample`` reports self times.  It installs no wrappers: a wrapper costs
more than a hash lookup or a hook-length list, so in the same process it
would swamp the time of whichever layer makes the most calls.  Instead a
sampler thread reads the main thread's stack every millisecond and charges
the time since its last sample to the innermost blockcraft frame: to its
layer, and to the nearest public function of that layer on the stack.
Built-in and standard-library calls count for the blockcraft code that made
them; time outside blockcraft code is ``trace.unattributed_s``.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import hashlib
import io
import json
import sys
import threading
import time
import types
from collections import defaultdict
from pathlib import Path

LAYERS = (
    "partitions",
    "arith",
    "sym_chars",
    "sym_blocks",
    "wreath_local",
    "glq_chars",
    "glq_blocks",
    "report",
    "cli",
)
SAMPLE_INTERVAL_S = 0.001
MAX_WALK = 8  # frames searched for the enclosing public function

# Result sizes summed per caller: partitions handed out by the enumeration,
# block members returned, partitions matched by the core census.
RESULT_SIZES = {
    "enumerate_partitions": len,
    "block_members_and_heights": lambda data: len(data.members),
    "count_partitions_with_core": int,
}


def load_layers() -> dict[str, types.ModuleType]:
    import blockcraft.cli  # noqa: F401  (loads every layer)

    return {layer: sys.modules[f"blockcraft.{layer}"] for layer in LAYERS}


def public_functions(module: types.ModuleType):
    """(name, function) for the public functions a module defines itself."""
    for name, obj in vars(module).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if isinstance(obj, types.FunctionType) or hasattr(obj, "cache_info"):
            yield name, obj


def _layer_of(code: types.CodeType) -> str | None:
    path = Path(code.co_filename)
    if path.parent.name == "blockcraft" and path.stem in LAYERS:
        return path.stem
    return None


class CallCounter:
    """Per-caller call counts and result sizes of every public function."""

    def __init__(self):
        self.calls = defaultdict(int)  # (callee, caller) -> calls
        self.sizes = defaultdict(int)  # (callee, caller) -> summed result sizes
        self._callers: dict[int, tuple[str, str]] = {}

    def caller(self, code: types.CodeType) -> tuple[str, str]:
        """(layer, top-level function) of a calling code object."""
        key = id(code)
        if key not in self._callers:
            qualname = getattr(code, "co_qualname", code.co_name)
            self._callers[key] = (_layer_of(code) or "trace", qualname.split(".")[0])
        return self._callers[key]

    def wrap(self, layer: str, name: str, fn):
        callee = (layer, name)
        size_of = RESULT_SIZES.get(name)
        calls, sizes, caller = self.calls, self.sizes, self.caller

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            edge = callee, caller(sys._getframe(1).f_code)
            calls[edge] += 1
            if size_of is not None:
                sizes[edge] += size_of(result)
            return result

        return counted

    def install(self, layers: dict[str, types.ModuleType]) -> None:
        wrappers = {}
        for layer, module in layers.items():
            for name, fn in public_functions(module):
                wrappers[id(fn)] = self.wrap(layer, name, fn)
        modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "blockcraft"]
        for module in modules:
            for name, obj in list(vars(module).items()):
                if id(obj) in wrappers:
                    setattr(module, name, wrappers[id(obj)])
        runners = layers["cli"]._SWEEP_RUNNERS
        for check, fn in runners.items():
            runners[check] = wrappers[id(fn)]

    def total(self, callee, caller_layer=None, table=None) -> int:
        table = self.calls if table is None else table
        return sum(
            n for (key, caller), n in table.items()
            if key == callee and caller_layer in (None, caller[0])
        )


class Sampler:
    """Self time per (layer, public function), from stack samples."""

    def __init__(self, layers: dict[str, types.ModuleType]):
        self.self_s = defaultdict(float)
        self.unattributed_s = 0.0
        self._public = {
            getattr(fn, "__wrapped__", fn).__code__: name
            for module in layers.values()
            for name, fn in public_functions(module)
        }
        self._layers: dict[int, str | None] = {}

    def layer(self, code: types.CodeType) -> str | None:
        key = id(code)
        if key not in self._layers:
            self._layers[key] = _layer_of(code)
        return self._layers[key]

    def sample(self, frame, elapsed: float) -> None:
        while frame is not None and self.layer(frame.f_code) is None:
            frame = frame.f_back
        if frame is None:
            self.unattributed_s += elapsed
            return
        layer = self.layer(frame.f_code)
        function = ""
        for _ in range(MAX_WALK):
            if frame is None or self.layer(frame.f_code) != layer:
                break
            if frame.f_code in self._public:
                function = self._public[frame.f_code]
                break
            frame = frame.f_back
        self.self_s[layer, function] += elapsed

    @contextlib.contextmanager
    def sampling(self):
        """Sample the calling thread's stack until the block exits."""
        target = threading.get_ident()
        done = threading.Event()

        def run():
            last = time.perf_counter()
            while not done.wait(SAMPLE_INTERVAL_S):
                frame = sys._current_frames().get(target)
                now = time.perf_counter()
                self.sample(frame, now - last)
                last = now
            self.unattributed_s += time.perf_counter() - last

        # Hand the interpreter lock to the sampler promptly once it wakes.
        old_interval = sys.getswitchinterval()
        sys.setswitchinterval(SAMPLE_INTERVAL_S / 10)
        thread = threading.Thread(target=run, name="trace-sampler")
        thread.start()
        try:
            yield
        finally:
            done.set()
            thread.join()
            sys.setswitchinterval(old_interval)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _memo_table(obj):
    """The functools cache behind obj, seen through one counting wrapper, or None."""
    for candidate in (obj, getattr(obj, "__wrapped__", None)):
        if hasattr(candidate, "cache_info"):
            return candidate
    return None


def _hit_ratio(obj) -> float:
    info = _memo_table(obj).cache_info()
    return _ratio(info.hits, info.hits + info.misses)


def count_metrics(counter: CallCounter, layers: dict) -> dict:
    partitions, glq_chars = layers["partitions"], layers["glq_chars"]
    enumerate_key = ("partitions", "enumerate_partitions")
    census_key = ("partitions", "count_partitions_with_core")
    members_key = ("sym_blocks", "block_members_and_heights")

    def calls(layer, name):
        return counter.total((layer, name))

    def scan_ratio(callee):
        returned = counter.total(callee, table=counter.sizes)
        return _ratio(returned, counter.sizes[enumerate_key, callee])

    memo_entries = sum(
        memo.cache_info().currsize for memo in map(_memo_table, vars(partitions).values()) if memo
    )
    return {
        "partitions.hook_lengths.calls": calls("partitions", "hook_lengths"),
        "partitions.enumerate_partitions.calls": calls(*enumerate_key),
        "partitions.enumerate_partitions.hit_ratio": _hit_ratio(partitions.enumerate_partitions),
        "partitions.d_core_and_quotient.hit_ratio": _hit_ratio(partitions.d_core_and_quotient),
        "partitions.mn.hit_ratio": _hit_ratio(partitions._mn),
        "partitions.cache_entries": memo_entries,
        "partitions.core_census.scan_ratio": scan_ratio(census_key),
        "arith.nu.calls": calls("arith", "nu"),
        "sym_chars.sym_degree.calls": calls("sym_chars", "sym_degree"),
        "sym_chars.sym_degree_valuation.calls": calls("sym_chars", "sym_degree_valuation"),
        "sym_blocks.block_members_and_heights.calls": calls(*members_key),
        "sym_blocks.scan_ratio": scan_ratio(members_key),
        "wreath_local.wreath_degrees.calls": calls("wreath_local", "wreath_degrees"),
        "wreath_local.sym_degree_calls": counter.total(("sym_chars", "sym_degree"), "wreath_local"),
        "glq_chars.all_degrees.calls": calls("glq_chars", "all_degrees"),
        "glq_chars.all_degrees.hit_ratio": _hit_ratio(glq_chars.all_degrees),
        "glq_chars.unipotent_degree.hit_ratio": _hit_ratio(glq_chars.unipotent_degree),
        "glq_blocks.wreath_degrees_calls": _ratio(
            counter.total(("wreath_local", "wreath_degrees"), "glq_blocks"),
            calls("glq_blocks", "verify_gl_mckay"),
        ),
        "cli.cells": sum(calls("cli", fn.__name__) for fn in layers["cli"]._SWEEP_RUNNERS.values()),
    }


def time_metrics(sampler: Sampler, wall_s: float) -> dict:
    layer_self = {layer: 0.0 for layer in LAYERS}
    for (layer, _), seconds in sampler.self_s.items():
        layer_self[layer] += seconds
    metrics = {f"{layer}.self_s": layer_self[layer] for layer in LAYERS}
    metrics.update({
        "sym_chars.build_table.self_s": sampler.self_s["sym_chars", "build_table"],
        "report.emit_reports.self_s": sampler.self_s["report", "emit_reports"],
        "trace.wall_s": wall_s,
        "trace.unattributed_s": wall_s - sum(layer_self.values()),
    })
    return metrics


def run_sweep(layers: dict, config: str, tracing) -> tuple[int, str, float]:
    """Exit status, captured stdout and wall time of the sweep, run under `tracing`."""
    captured = io.StringIO()
    start = time.perf_counter()
    with tracing, contextlib.redirect_stdout(captured):
        status = layers["cli"].main(["sweep", "--config", config, "--stable", "--format", "csv"])
    return status, captured.getvalue(), time.perf_counter() - start


def main(argv: list[str]) -> int:
    if len(argv) != 2 or argv[0] not in ("count", "sample"):
        print("usage: trace_child.py {count,sample} CONFIG", file=sys.stderr)
        return 1
    mode, config = argv
    layers = load_layers()
    if mode == "count":
        counter = CallCounter()
        counter.install(layers)
        status, text, _ = run_sweep(layers, config, contextlib.nullcontext())
        metrics = count_metrics(counter, layers)
    else:
        sampler = Sampler(layers)
        status, text, wall_s = run_sweep(layers, config, sampler.sampling())
        metrics = time_metrics(sampler, wall_s)
    rows = list(csv.reader(io.StringIO(text)))[1:]
    print(json.dumps({
        "status": status,
        "sha256": hashlib.sha256(text.encode()).hexdigest(),
        "rows": len(rows),
        "failed_rows": sum(1 for row in rows if len(row) < 5 or row[4] != "true"),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
