#!/usr/bin/env python
"""Documentation snippet checker (run by the CI docs job and the test suite).

Keeps README.md, DESIGN.md and docs/*.md honest against the code:

* every fenced ``python`` block must compile;
* every ``python -m repro.cli ...`` invocation in a fenced ``sh`` block must
  parse against the real argument parser (unknown subcommands or flags fail);
* every repo-relative path mentioned anywhere in the documents
  (``src/...``, ``docs/...``, ``examples/...``, ``benchmarks/...``,
  ``tests/...``, ``tools/...``) must exist;
* every backticked ``repro.``-qualified name (`` `repro.core.MACOSystem` ``)
  must resolve: its longest importable module prefix is imported and the
  rest looked up as attributes;
* every backticked ``Class.member`` (`` `MACOSystem.run_workload` ``) whose
  ``Class`` is a class in some ``repro`` module's ``__all__`` must name an
  existing member (an attribute of the class, or a dataclass field).

Usage::

    PYTHONPATH=src python tools/check_docs.py [files...]

Exits non-zero with one line per problem.  Without arguments it checks
README.md, DESIGN.md and everything under docs/.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import pkgutil
import re
import shlex
import sys
from pathlib import Path
from typing import Dict, Iterator, List, Set, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent

FENCE_RE = re.compile(r"^```(\w*)\s*$")
PATH_RE = re.compile(r"\b(?:src|docs|examples|benchmarks|tests|tools)/[\w./-]+")
NAME_RE = re.compile(r"`(repro(?:\.\w+)+)`")
MEMBER_RE = re.compile(r"`([A-Za-z_]\w*)\.([A-Za-z_]\w*)")


def iter_code_blocks(text: str) -> Iterator[Tuple[str, int, str]]:
    """Yield ``(language, start line number, body)`` for each fenced block."""
    language = None
    body: List[str] = []
    start = 0
    for number, line in enumerate(text.splitlines(), start=1):
        match = FENCE_RE.match(line.strip())
        if match and language is None:
            language = match.group(1) or "text"
            body = []
            start = number + 1
        elif line.strip() == "```" and language is not None:
            yield language, start, "\n".join(body)
            language = None
        elif language is not None:
            body.append(line)


def _join_continuations(block: str) -> List[str]:
    """Merge shell lines ending in a backslash into single logical commands."""
    lines: List[str] = []
    pending = ""
    for line in block.splitlines():
        stripped = line.strip() if pending else line.rstrip()
        if stripped.endswith("\\"):
            pending += stripped[:-1].rstrip() + " "
            continue
        lines.append((pending + stripped).strip())
        pending = ""
    if pending.strip():
        lines.append(pending.strip())
    return lines


def _cli_argv(command: str) -> List[str]:
    """Extract the repro.cli argv from a doc shell line, or [] if not a CLI call."""
    comment = command.find(" #")
    if comment != -1:
        command = command[:comment]
    try:
        tokens = shlex.split(command)
    except ValueError:
        return []
    # Skip env-var prefixes like PYTHONPATH=src.
    while tokens and "=" in tokens[0] and not tokens[0].startswith("-"):
        tokens = tokens[1:]
    if tokens[:3] == ["python", "-m", "repro.cli"]:
        return tokens[3:]
    return []


def resolves(name: str) -> bool:
    """Whether a dotted ``repro.`` name names a module or an attribute of one."""
    parts = name.split(".")
    for cut in range(len(parts), 0, -1):
        module_name = ".".join(parts[:cut])
        try:
            target = importlib.import_module(module_name)
        except ModuleNotFoundError as error:
            if error.name and (module_name + ".").startswith(error.name + "."):
                continue  # not a module: the rest is an attribute path
            return False
        try:
            for attribute in parts[cut:]:
                target = getattr(target, attribute)
        except AttributeError:
            return False
        return True
    return False


@functools.cache
def exported_classes() -> Dict[str, Set[type]]:
    """Every class listed in the ``__all__`` of a ``repro`` module, by name."""
    import repro

    names = ["repro"] + [info.name for info in pkgutil.walk_packages(repro.__path__, "repro.")]
    classes: Dict[str, Set[type]] = {}
    for module in map(importlib.import_module, names):
        for name in getattr(module, "__all__", ()):
            value = getattr(module, name, None)
            if inspect.isclass(value):
                classes.setdefault(name, set()).add(value)
    return classes


def has_member(cls: type, member: str) -> bool:
    """Whether ``member`` is an attribute of ``cls`` or one of its dataclass fields."""
    if hasattr(cls, member):
        return True
    return dataclasses.is_dataclass(cls) and member in {f.name for f in dataclasses.fields(cls)}


def check_file(path: Path) -> List[str]:
    """Return a list of problem descriptions for one markdown file."""
    from repro.cli import build_parser

    problems: List[str] = []
    text = path.read_text()
    try:
        rel = path.relative_to(REPO_ROOT)
    except ValueError:  # document outside the repo (e.g. a temp file under test)
        rel = path

    for language, line, body in iter_code_blocks(text):
        if language in ("python", "py"):
            try:
                compile(body, f"{rel}:{line}", "exec")
            except SyntaxError as error:
                problems.append(f"{rel}:{line}: python block does not compile: {error}")
        elif language in ("sh", "bash", "shell", "console"):
            for command in _join_continuations(body):
                argv = _cli_argv(command)
                if not argv:
                    continue
                try:
                    build_parser().parse_args(argv)
                except SystemExit:
                    problems.append(
                        f"{rel}:{line}: CLI invocation does not parse: "
                        f"python -m repro.cli {' '.join(argv)}"
                    )

    for match in PATH_RE.finditer(text):
        target = match.group(0).rstrip(".")
        if not (REPO_ROOT / target).exists():
            problems.append(f"{rel}: referenced path does not exist: {target}")
    for name in sorted(set(NAME_RE.findall(text))):
        if not resolves(name):
            problems.append(f"{rel}: referenced name does not resolve: {name}")
    classes = exported_classes()
    for class_name, member in sorted(set(MEMBER_RE.findall(text))):
        candidates = classes.get(class_name, ())
        if candidates and not any(has_member(cls, member) for cls in candidates):
            problems.append(f"{rel}: referenced name does not resolve: {class_name}.{member}")
    return problems


def default_documents() -> List[Path]:
    """The documents checked when no arguments are given."""
    documents = [REPO_ROOT / "README.md", REPO_ROOT / "DESIGN.md"]
    documents.extend(sorted((REPO_ROOT / "docs").glob("*.md")))
    return [path for path in documents if path.exists()]


def main(argv: List[str] = None) -> int:
    paths = [Path(arg).resolve() for arg in (argv or sys.argv[1:])] or default_documents()
    problems: List[str] = []
    for path in paths:
        if not path.is_file():
            problems.append(f"{path}: document does not exist")
            continue
        problems.extend(check_file(path))
    for problem in problems:
        print(problem, file=sys.stderr)
    if problems:
        print(f"check_docs: {len(problems)} problem(s)", file=sys.stderr)
        return 1
    print(f"check_docs: {len(paths)} document(s) ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
