"""The process entry `cli.entry` and the modules a command loads.

`entry()` is what `python -m metacyclic` and the installed `metacyclic`
script run: it restores the default SIGPIPE action, exits with `main()`'s
code and calls `gc.freeze()` exactly once on the way out, on every exit
path. `cli.main` alone never freezes.
"""

import ast
import gc
import importlib
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from metacyclic import cli

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = "Q + 4*Q(z3) + 12*Q(z9) + 3*M3(Q(z9)) + M9(Q(z9))\n"


@pytest.fixture
def freezes(monkeypatch):
    """Patch `gc.freeze` with a recorder; the list grows by one per call."""
    calls = []
    monkeypatch.setattr(gc, "freeze", lambda: calls.append(None))
    return calls


@pytest.fixture(autouse=True)
def handlers(monkeypatch):
    """Patch `signal.signal` with a recorder, so that `entry()` called in
    process never gives the test process the default SIGPIPE action."""
    calls = []
    monkeypatch.setattr(signal, "signal", lambda *args: calls.append(args))
    return calls


def _boom(args):
    raise RuntimeError("boom")


EXIT_PATHS = [
    ("decompose --p 3 --n 4 --m 2 --r 10", 0),
    ("verify --p 3 --n 2 --m 1 --r 4 --max-order 9", 1),
    ("decompose --p 4 --n 2 --m 1 --r 3", 2),
    ("counts --p 3 --n 4 --m 2 --r 10 --kind complex", 5),  # counts runs `_boom`
]


@pytest.mark.parametrize("argv,code", EXIT_PATHS)
def test_entry_exits_with_mains_code_and_freezes_once(argv, code, freezes, handlers,
                                                      monkeypatch, capsys):
    monkeypatch.setitem(cli._COMMANDS, "counts", _boom)
    assert cli.main(argv.split()) == code
    assert freezes == []  # main alone never freezes
    main_streams = capsys.readouterr()

    monkeypatch.setattr(sys, "argv", ["metacyclic", *argv.split()])
    with pytest.raises(SystemExit) as exc:
        cli.entry()
    assert exc.value.code == code
    assert len(freezes) == 1
    assert capsys.readouterr() == main_streams
    assert handlers == [(signal.SIGPIPE, signal.SIG_DFL)]


def test_entry_freezes_once_when_argparse_exits_inside_main(freezes, monkeypatch, capsys):
    with pytest.raises(SystemExit) as inside:
        cli.main(["--help"])
    assert freezes == []
    main_streams = capsys.readouterr()
    assert main_streams.out.startswith("usage: metacyclic")

    monkeypatch.setattr(sys, "argv", ["metacyclic", "--help"])
    with pytest.raises(SystemExit) as exc:
        cli.entry()
    assert exc.value.code == inside.value.code == 0
    assert len(freezes) == 1
    assert capsys.readouterr() == main_streams


# The reader of stdout is gone before the child starts. `decompose` writes
# less than one buffer and fails at the flush at exit, `sweep` (203 rows)
# fails mid-command. Either way the child dies by SIGPIPE, as a Unix filter
# does, and adds nothing to its stderr: no "internal error" line, no exit 5.
@pytest.mark.skipif(not hasattr(signal, "SIGPIPE"), reason="the platform has no SIGPIPE")
@pytest.mark.parametrize("argv", ["decompose --p 3 --n 4 --m 2 --r 10",
                                  "sweep --p 3 --max-order 10000000"])
def test_a_closed_stdout_ends_the_process_by_sigpipe(argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    env.pop("PYTHONUNBUFFERED", None)  # keep stdout block-buffered
    command = [sys.executable, "-m", "metacyclic", *argv.split()]
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run(command, stdout=write, stderr=subprocess.PIPE, env=env, timeout=60)
    finally:
        os.close(write)
    full = subprocess.run(command, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                          env=env, timeout=60)
    assert full.returncode == 0
    assert (proc.returncode, proc.stderr) == (-signal.SIGPIPE, full.stderr)


def _script_target() -> str:
    """The `metacyclic` target of pyproject's `[project.scripts]`, read
    line by line (no `tomllib` on Python 3.10)."""
    section = None
    for line in (ROOT / "pyproject.toml").read_text().splitlines():
        line = line.strip()
        if line.startswith("["):
            section = line
        elif section == "[project.scripts]" and line.startswith("metacyclic"):
            key, _, value = line.partition("=")
            assert key.strip() == "metacyclic", line
            return value.strip().strip('"')
    raise AssertionError("no metacyclic entry in [project.scripts]")


def _main_module_calls() -> tuple[str, list[str]]:
    """The module `__main__.py` imports from and the names it calls."""
    tree = ast.parse((ROOT / "src" / "metacyclic" / "__main__.py").read_text())
    [imp] = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imp.level == 1, ast.dump(imp)
    called = [
        node.value.func.id for node in tree.body
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Call)
        and isinstance(node.value.func, ast.Name)
    ]
    assert called and {alias.name for alias in imp.names} == set(called)
    return f"metacyclic.{imp.module}", called


def test_console_script_targets_the_function_main_module_calls(freezes, monkeypatch, capsys):
    target = _script_target()
    module, called = _main_module_calls()
    assert [target] == [f"{module}:{name}" for name in called] == ["metacyclic.cli:entry"]

    # what the installed script runs: sys.exit(<target>())
    modname, _, attr = target.partition(":")
    function = getattr(importlib.import_module(modname), attr)
    monkeypatch.setattr(sys, "argv", ["metacyclic", *"decompose --p 3 --n 4 --m 2 --r 10".split()])
    with pytest.raises(SystemExit) as exc:
        sys.exit(function())
    assert exc.value.code == 0
    assert capsys.readouterr().out == GOLDEN
    assert len(freezes) == 1


# Runs in a fresh `python -S` interpreter (no site, so nothing preloads
# `random`): which of `json` and `random` are loaded after each phase.
LOADED_SCRIPT = r"""
import contextlib, io, sys
from metacyclic import cli

def loaded():
    return [name for name in ("json", "random") if name in sys.modules]

report = [loaded()]
for phase in sys.argv[1:]:
    for argv in phase.split(";"):
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            report.append(cli.main(argv.split()))
    report.append(loaded())
print(report)
"""


def test_text_commands_load_neither_json_nor_random():
    text = ";".join([
        "decompose --p 3 --n 4 --m 2 --r 10",
        "counts --p 3 --n 4 --m 2 --r 10 --kind rational",
        "decompose --p 4 --n 2 --m 1 --r 3",
    ])
    as_json = "decompose --p 3 --n 4 --m 2 --r 10 --format json"
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-S", "-c", LOADED_SCRIPT, text, as_json],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == repr([[], 0, 0, 2, [], 0, ["json"]]) + "\n"
