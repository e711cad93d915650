"""``import repro.cli`` loads exactly the committed set of ``repro`` modules.

``tests/cli_modules.txt`` lists the sorted ``repro.*`` names in
``sys.modules`` after ``import repro.cli`` in a fresh interpreter.  A change
that pulls a module into the CLI's import path, or drops one, updates the
list and says so in CHANGES.md; rewrite it with::

    PYTHONPATH=src python tests/test_cli_imports.py --update
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
LISTING = Path(__file__).resolve().parent / "cli_modules.txt"
PROBE = (
    "import sys, repro.cli; "
    "print('\\n'.join(sorted(name for name in sys.modules "
    "if name == 'repro' or name.startswith('repro.'))))"
)


def cli_modules() -> list:
    """The ``repro`` modules a fresh ``import repro.cli`` loads, sorted."""
    env = {**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")}
    done = subprocess.run([sys.executable, "-c", PROBE], cwd=REPO_ROOT, env=env,
                          capture_output=True, text=True, check=True, timeout=120)
    return done.stdout.split()


def test_cli_import_set_matches_the_listing():
    assert cli_modules() == LISTING.read_text().split()


if __name__ == "__main__":
    if sys.argv[1:] != ["--update"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_cli_imports.py --update")
    LISTING.write_text("\n".join(cli_modules()) + "\n")
