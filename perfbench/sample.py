"""One sample of a workload, in a fresh process: set-up, warm-up, timed calls, checks.

run.py starts this script once per sample and reads the JSON object it
prints last.  A sample makes one untimed warm-up call of the study, then
CALLS timed calls, and checks the output of every call.  With --trace 1 it
then makes CALLS traced calls and reports per-layer figures from their
spans.

Times are scaled to a fixed reference speed.  The box this benchmark was
tuned on alternates, within a second, between two speeds about 2x apart,
and the share of time spent in the slow one drifts over minutes, so raw
times of the same code move by up to 2x between runs.  Each timed stretch
is therefore bracketed by two runs of a fixed reference kernel, and its
time is multiplied by REFERENCE_S / (mean reference time).  The kernel is
the benchmark's own code, so a change to frontks cannot move it; on an
idle core of the tuning box the factor is 1.  Raw times stay in the
sample record.

    python3 perfbench/sample.py --workload scan --seed 1 --trace 0 --out DIR

Exit codes: 0 with a result (which may list problems), 3 when frontks
cannot be imported from the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter, process_time

import numpy as np  # imported before set-up timing: it is not the program under test

import checkout
import layers
import spans
from workloads import WORKLOADS

MB = 1e6
CALLS = 5
REFERENCE_LENGTH = 384
REFERENCE_ROUNDS = 300
# seconds the reference kernel takes on an idle core of the tuning box
# (2-core Xeon under KVM, numpy 2.4 with one BLAS thread)
REFERENCE_S = 0.0065


def reference_s() -> float:
    """Time of the fixed reference kernel: small FFTs and array updates, like a step."""
    a = np.linspace(0.0, 1.0, REFERENCE_LENGTH)
    t0 = perf_counter()
    for _ in range(REFERENCE_ROUNDS):
        s = np.fft.rfft(a)
        s[REFERENCE_LENGTH // 8:] = 0.0
        b = np.fft.irfft(s * 0.5, REFERENCE_LENGTH)
        a = np.minimum(0.9 * a + 0.1 * b * b, 1.0)
    return perf_counter() - t0


def scaled(fn):
    """Run fn between two reference runs; return (fn(), speed factor)."""
    before = reference_s()
    out = fn()
    return out, 2 * REFERENCE_S / (before + reference_s())


def timed_main(fk, argv: list[str], outdir: Path, tracer=None):
    """Call cli.main(argv + --out), as the root span of tracer if given.

    Returns (wall_s, cpu_s, problems).
    """
    main = fk.cli.main if tracer is None else tracer.wrap("cli", fk.cli.main)
    problems = []
    with contextlib.redirect_stdout(io.StringIO()):
        wall0, cpu0 = perf_counter(), process_time()
        try:
            rc = main(argv + ["--out", str(outdir)])
        except Exception:  # a study that raises is a failed sample, not a failed benchmark
            rc = None
            problems.append(traceback.format_exc(limit=3))
        wall, cpu = perf_counter() - wall0, process_time() - cpu0
    if rc is not None and rc != 0:
        problems.append(f"cli.main returned {rc}")
    return wall, cpu, problems


def checked(workload, outdir: Path, problems: list[str]) -> list[str]:
    if problems:
        return problems
    try:
        return workload.check(str(outdir))
    except (OSError, ValueError, KeyError, IndexError) as err:
        return [f"unreadable output: {err!r}"]


def layer_metrics(tracer: spans.Tracer, factor: float, base_wall: float) -> dict:
    """Per-layer figures of one traced call; times scaled by the call's speed factor."""
    t = tracer.totals()
    wall = t["cli"].total_s
    steps = t["evolve.step"].count
    fft, nonlinear, build = t["grid.fft"], t["evolve.nonlinear"], t["evolve.stepper_build"]
    us = 1e6 * factor
    return {
        "grid.fft_calls_per_step": fft.count / steps,
        "grid.fft_points_per_step": fft.work / steps,
        "grid.fft_frac": fft.total_s / wall,
        "evolve.stepper_build_us": build.total_s / build.count * us,
        "evolve.nonlinear_us": nonlinear.total_s / nonlinear.count * us,
        "evolve.nonlinear_self_us": nonlinear.self_s / nonlinear.count * us,
        "evolve.step_self_us": t["evolve.step"].self_s / steps * us,
        "evolve.loop_self_us": t["evolve"].self_s / steps * us,
        "evolve.steps": steps,
        "evolve.snapshot_mb": t["evolve"].work / MB,
        "experiments.self_s": t["experiments"].self_s * factor,
        "cli.write_s": t["cli.write"].total_s * factor,
        "cli.self_s": t["cli"].self_s * factor,
        "trace.overhead_frac": wall * factor / base_wall - 1.0,
    }


def trace_problems(workload, tracer: spans.Tracer) -> list[str]:
    """The layer spans must nest inside the cli span and account for its wall time."""
    t = tracer.totals()
    wall = t["cli"].total_s
    problems = []
    if t["evolve.step"].count != workload.member_steps:
        problems.append(f"{t['evolve.step'].count} steps traced, expected {workload.member_steps}")
    if t["evolve"].count != workload.members or t["experiments"].count != 1:
        problems.append(f"traced {t['evolve'].count} evolve and {t['experiments'].count} study calls")
    accounted = sum(v.self_s for v in t.values())
    if abs(accounted - wall) > 1e-6 * wall:
        problems.append(f"span self times sum to {accounted!r} s of {wall!r} s")
    return problems


def medians(rows: list[dict]) -> dict:
    return {k: statistics.median(r[k] for r in rows) for k in rows[0]}


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", type=Path, required=True)
    args = p.parse_args()
    w = WORKLOADS[args.workload]

    reference_s()  # the first run pays for FFT plans and page faults
    before = reference_s()
    t0 = perf_counter()
    try:
        fk = checkout.import_frontks()
    except (checkout.MissingSource, ImportError) as err:
        print(f"cannot import frontks: {err}", file=sys.stderr)
        return 3
    w.setup(fk)
    setup_raw = perf_counter() - t0
    setup_factor = 2 * REFERENCE_S / (before + reference_s())

    argv = w.argv(args.seed)
    timed_main(fk, argv, args.out / "warmup")
    problems, calls = [], []
    for i in range(CALLS):
        out = args.out / f"call{i}"
        (wall, cpu, failures), factor = scaled(lambda: timed_main(fk, argv, out))
        problems += checked(w, out, failures)
        calls.append({"wall_s": wall * factor, "cpu_s": cpu * factor,
                      "raw_wall_s": wall, "factor": factor})
    e2e = medians(calls)
    result = {
        "setup_s": setup_raw * setup_factor,
        "wall_s": e2e["wall_s"],
        "cpu_s": e2e["cpu_s"],
        "steps_per_s": w.member_steps / e2e["wall_s"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / MB,
        "raw_setup_s": setup_raw,
        "calls": calls,
    }
    if args.trace:
        traced = []
        for i in range(CALLS):
            tracer, out = spans.Tracer(), args.out / f"traced{i}"

            def traced_call():
                spans.install(tracer, w.study)
                try:
                    return timed_main(fk, argv, out, tracer)
                finally:
                    tracer.restore()

            (_, _, failures), factor = scaled(traced_call)
            failures = checked(w, out, failures) or trace_problems(w, tracer)
            problems += failures
            if not failures:
                layer = layer_metrics(tracer, factor, e2e["wall_s"])
                layer["cli.csv_mb"] = sum(f.stat().st_size for f in out.glob("*.csv")) / MB
                traced.append(layer)
                tracer.save(str(out / "spans.npz"))
        if traced:
            result["layers"] = medians(traced)
            for name, fn in layers.grid_calls(fk, w.period, w.n_modes, w.make_equation).items():
                (us, _, _), factor = scaled(lambda: layers.per_call_us(fn))
                result["layers"][name] = us * factor
    result["problems"] = problems
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
