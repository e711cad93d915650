"""Replay the committed CLI output corpus, ``tests/cli_corpus.json``.

Each entry is one ``repro.cli`` command or one example script, with the
sha256 of its stdout and its exit code.  A refactor or speed change keeps
every entry; a documented behaviour change re-takes the digests with::

    PYTHONPATH=src python tests/test_cli_corpus.py --update

and says in CHANGES.md which entries moved and why.

Commands run in this process through :func:`repro.cli.main`: their output
does not depend on what ran before them (the same digests come out cold,
warm, in reverse order and in a fresh interpreter).  Examples run as
scripts.  Stdout is hashed as it is, so an entry must print nothing that
depends on the host (wall-clock times, the CPU count).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
MANIFEST = Path(__file__).resolve().parent / "cli_corpus.json"


def _load():
    return json.loads(MANIFEST.read_text())


def _entry_id(entry) -> str:
    return entry.get("example") or " ".join(entry["argv"])


def _run(entry):
    """Run one entry; returns ``(stdout bytes, exit code)``."""
    if "example" in entry:
        env = {**os.environ, "PYTHONPATH": str(REPO_ROOT / "src"), "PYTHONIOENCODING": "utf-8"}
        done = subprocess.run([sys.executable, str(REPO_ROOT / entry["example"])], cwd=REPO_ROOT,
                              env=env, capture_output=True, timeout=300)
        return done.stdout, done.returncode
    from repro.cli import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(list(entry["argv"]))
    return out.getvalue().encode(), code


@pytest.mark.parametrize("entry", _load()["entries"], ids=_entry_id)
def test_output_matches_the_corpus(entry):
    stdout, code = _run(entry)
    assert code == entry["exit"]
    assert hashlib.sha256(stdout).hexdigest() == entry["sha256"], stdout.decode()[-2000:]


def test_every_example_is_in_the_corpus():
    listed = {entry["example"] for entry in _load()["entries"] if "example" in entry}
    assert listed == {f"examples/{path.name}" for path in (REPO_ROOT / "examples").glob("*.py")}


def _update() -> None:
    manifest = _load()
    for entry in manifest["entries"]:
        stdout, code = _run(entry)
        entry["exit"], entry["sha256"] = code, hashlib.sha256(stdout).hexdigest()
    lines = ",\n".join(json.dumps(entry) for entry in manifest["entries"])
    MANIFEST.write_text('{"entries": [\n' + lines + "\n]}\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--update"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_cli_corpus.py --update")
    _update()
