#!/usr/bin/env python3
"""Reproduce the headline studies through the CLI, one output dir per study.

Usage: python scripts/run_all.py [outdir]   (default ./runs)

Each study's == line ends with its wall time in seconds, and a last
== total line gives the wall time of all of them.
"""

import contextlib
import io
import pathlib
import sys
import time

from frontks.cli import main

HERE = pathlib.Path(__file__).resolve().parent
CONFIGS = HERE / "configs"

STUDIES = [
    ("symbols", ["--ell", "12.566370614359172", "--n-modes", "256", "--alpha", "1.0"]),
    ("stability-scan", ["--config", str(CONFIGS / "threshold_scan.cfg")]),
    ("convergence", ["--config", str(CONFIGS / "convergence.cfg")]),
    ("energy", ["--config", str(CONFIGS / "energy.cfg")]),
    ("ks-apriori", ["--config", str(CONFIGS / "ks_apriori.cfg")]),
    ("galerkin", ["--config", str(CONFIGS / "galerkin.cfg")]),
    (
        "profiles",
        ["--ell", "6.283185307179586", "--alpha", "1.0", "--k", "1",
         "--phi", "1.0", "--phiy-sq", "0.3"],
    ),
]


def run(base: pathlib.Path) -> int:
    worst = 0
    begin = time.perf_counter()
    for name, args in STUDIES:
        out = base / name
        # the study's own stdout is held back so that its == line, which
        # carries the wall time, still comes first
        printed = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(printed):
            rc = main([name, *args, "--out", str(out)])
        print(f"== {name} -> {out} ({time.perf_counter() - start:.2f} s)")
        print(printed.getvalue(), end="")
        if rc != 0:
            print(f"   exited with {rc}")
            worst = max(worst, rc)
    print(f"== total ({time.perf_counter() - begin:.2f} s)")
    return worst


if __name__ == "__main__":
    base = pathlib.Path(sys.argv[1]) if len(sys.argv) > 1 else pathlib.Path("runs")
    sys.exit(run(base))
