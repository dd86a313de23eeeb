"""Layers load on first use: importing the package or the CLI runs none of them.

Each test runs in a fresh interpreter, since this process has every layer
loaded already.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def _python(code: str, *args: str, path: tuple = ()) -> str:
    """stdout of a fresh interpreter running `code` (or `-m ...` args) with src on its path."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([*map(str, path), str(SRC)])}
    head = ["-c", code] if code else []
    done = subprocess.run(
        [sys.executable, *head, *args], env=env, cwd=ROOT, capture_output=True, text=True,
        timeout=20,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_the_cli_registers_every_traced_layer_and_runs_none():
    # bench/trace_child.py reads sys.modules["blockcraft.<layer>"] right after the import.
    out = _python(
        "import sys, types\n"
        "sys.path.insert(0, 'bench')\n"
        "import trace_child\n"
        "layers = trace_child.load_layers()\n"
        "print(sorted(name for name, module in layers.items()\n"
        "             if name != 'cli' and type(module) is types.ModuleType))\n"
        "print(len(layers))\n"
    )
    assert out == "[]\n9\n"


def test_the_package_import_loads_no_layer():
    out = _python(
        "import sys, blockcraft\n"
        "print(sorted(name for name in sys.modules if name.startswith('blockcraft.')))\n"
        "print(type(blockcraft.partitions).__name__, 'partitions' in dir(blockcraft))\n"
        "print(hasattr(blockcraft, 'no_such_name'))\n"
    )
    assert out == "[]\nmodule True\nFalse\n"


def test_a_sym_check_never_runs_the_gl_layers(tmp_path):
    # sitecustomize registers its handler before anything else, so it runs last at exit.
    (tmp_path / "sitecustomize.py").write_text(
        "import atexit, sys, types\n"
        "def probe():\n"
        "    ran = [name for name in ('sym_chars', 'glq_chars', 'glq_blocks')\n"
        "           if type(sys.modules.get('blockcraft.' + name)) is types.ModuleType]\n"
        "    print('ran', *ran, file=sys.stderr)\n"
        "atexit.register(probe)\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(tmp_path), str(SRC)])}
    done = subprocess.run(
        [sys.executable, "-m", "blockcraft.cli", "sym", "mckay", "--n", "30"],
        env=env, capture_output=True, text=True, timeout=20,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("[PASS] mckay n=30 p=2")
    assert done.stderr == "ran sym_chars\n"


def test_every_exported_name_is_its_layers_own_object():
    out = _python(
        "import importlib, blockcraft\n"
        "for name in blockcraft.__all__:\n"
        "    obj = getattr(blockcraft, name)\n"
        "    layer = importlib.import_module(obj.__module__)\n"
        "    if not layer.__name__.startswith('blockcraft.') or getattr(layer, name) is not obj:\n"
        "        print(name, layer.__name__)\n"
        "print(len(blockcraft.__all__))\n"
    )
    assert out == "61\n"


def test_threads_that_first_touch_a_layer_together_all_see_it():
    # Eight threads wait at a barrier after `import blockcraft`, then each
    # calls blockcraft.all_degrees, which loads glq_chars under the import lock.
    # Were the package to register its layers through importlib.util.LazyLoader,
    # as the single-threaded cli does, 7 of the 8 would raise AttributeError on 3.11.
    out = _python(
        "import threading, blockcraft\n"
        "barrier, errors = threading.Barrier(8), []\n"
        "def work():\n"
        "    barrier.wait()\n"
        "    try:\n"
        "        blockcraft.all_degrees(3, 2)\n"
        "    except Exception as exc:\n"
        "        errors.append(repr(exc))\n"
        "threads = [threading.Thread(target=work) for _ in range(8)]\n"
        "for thread in threads: thread.start()\n"
        "for thread in threads: thread.join()\n"
        "print(errors)\n"
    )
    assert out == "[]\n"
