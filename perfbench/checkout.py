"""Where the benchmark finds the program and where it writes.

The benchmark runs from the root of a source checkout: the package is
imported from its ``src`` directory, never from an installed copy, and
every output goes under ``.perfbench`` at the root.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench"


class MissingSource(RuntimeError):
    pass


def has_source() -> bool:
    return (SRC / "frontks" / "__init__.py").is_file()


def import_frontks():
    """Import frontks from this checkout's source tree and return the package."""
    if not has_source():
        raise MissingSource(f"no frontks package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import frontks
    import frontks.cli

    if Path(frontks.__file__).resolve().parent != SRC / "frontks":
        raise MissingSource(f"frontks was imported from {frontks.__file__}, not {SRC}")
    return frontks
