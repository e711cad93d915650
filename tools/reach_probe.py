#!/usr/bin/env python
"""List the production functions that no user-facing run calls.

Under ``sys.setprofile`` the probe records every function under
``src/repro`` that is called while these run in this process:

* every entry of ``tests/cli_corpus.json``: commands through
  :func:`repro.cli.main`, examples through :mod:`runpy`;
* ``pytest benchmarks``;
* ``perfbench/run.py --seed 1 --seconds 0.5 --trace 0`` for every workload
  (what ``--workload all`` runs, but in this process).

It then parses every module under ``src/repro`` outside ``repro.conformance``
and ``repro/bench.py`` and lists each ``def`` that none of them called.  A
def is keyed by its first decorator or ``def`` line, which is the first line
of its code object.  The output is the count, the total lines of the listed
defs and the list, one ``path:line name (lines)`` a line.

An unreached function is a candidate, not a verdict: it may serve an error
message, the paper's ISA semantics, a test or perfbench, or a surface the
corpus does not pin yet.  Grep for its callers before deleting it.

Usage, from the repo root (about 40 s; not part of the test suite)::

    PYTHONPATH=src python tools/reach_probe.py

Exits 1 when one of the runs fails, since the list is then incomplete.
"""

from __future__ import annotations

import ast
import contextlib
import io
import json
import os
import runpy
import sys
from pathlib import Path
from typing import Callable, Dict, List, Set, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent
PACKAGE = REPO_ROOT / "src" / "repro"
EXCLUDED_PACKAGE = PACKAGE / "conformance"
EXCLUDED_MODULE = PACKAGE / "bench.py"

Key = Tuple[str, int]


def production_defs() -> Dict[Key, Tuple[str, int]]:
    """``{(path, first line): (qualified name, lines)}`` of every judged def."""
    found: Dict[Key, Tuple[str, int]] = {}

    def visit(node: ast.AST, path: str, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = child.decorator_list[0].lineno if child.decorator_list else child.lineno
                found[(path, first)] = (prefix + child.name, child.end_lineno - first + 1)
                visit(child, path, prefix + child.name + ".")
            elif isinstance(child, ast.ClassDef):
                visit(child, path, prefix + child.name + ".")
            else:
                visit(child, path, prefix)

    for path in sorted(PACKAGE.rglob("*.py")):
        if path == EXCLUDED_MODULE or EXCLUDED_PACKAGE in path.parents:
            continue
        visit(ast.parse(path.read_text(), str(path)), str(path), "")
    return found


def _quietly(run: Callable[[], object]) -> object:
    """Call ``run`` from the repo root with its output swallowed; return its result."""
    previous = os.getcwd()
    os.chdir(REPO_ROOT)
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            return run()
    finally:
        os.chdir(previous)


def _run_example(path: Path) -> int:
    argv = sys.argv
    sys.argv = [str(path)]
    try:
        runpy.run_path(str(path), run_name="__main__")
    except SystemExit as stop:
        return stop.code if isinstance(stop.code, int) else 1
    finally:
        sys.argv = argv
    return 0


def runs() -> List[Tuple[str, Callable[[], object]]]:
    """``(label, thunk)`` for every run the probe traces; each thunk returns an exit code."""
    from repro.cli import main

    manifest = json.loads((REPO_ROOT / "tests" / "cli_corpus.json").read_text())
    found: List[Tuple[str, Callable[[], object]]] = []
    for entry in manifest["entries"]:
        if "example" in entry:
            path = REPO_ROOT / entry["example"]
            found.append((entry["example"], lambda path=path: _run_example(path)))
        else:
            argv = list(entry["argv"])
            found.append((" ".join(argv), lambda argv=argv: main(argv)))

    import pytest

    found.append(("pytest benchmarks", lambda: int(pytest.main(
        ["-q", "-p", "no:cacheprovider", str(REPO_ROOT / "benchmarks")]))))

    sys.path.insert(0, str(REPO_ROOT))
    from perfbench import run as perfbench

    for name in perfbench.WORKLOADS:
        argv = ["--workload", name, "--seed", "1", "--seconds", "0.5", "--trace", "0"]
        found.append((f"perfbench {name}", lambda argv=argv: perfbench.main(argv)))
    return found


def main() -> int:
    called: Set[Key] = set()
    prefix = str(PACKAGE) + os.sep

    def profile(frame, event, arg) -> None:
        if event == "call" and frame.f_code.co_filename.startswith(prefix):
            called.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

    # Imports run under the profiler too: registries build at import time.
    sys.setprofile(profile)
    failed = 0
    try:
        for label, thunk in runs():
            code = _quietly(thunk)
            if code:
                print(f"reach_probe: {label} exited {code}", file=sys.stderr)
                failed += 1
    finally:
        sys.setprofile(None)

    defs = production_defs()
    unreached = sorted(key for key in defs if key not in called)
    print(f"{len(unreached)} of {len(defs)} functions unreached, "
          f"{sum(defs[key][1] for key in unreached)} lines")
    for path, line in unreached:
        name, lines = defs[(path, line)]
        print(f"  {os.path.relpath(path, REPO_ROOT)}:{line} {name} ({lines})")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
