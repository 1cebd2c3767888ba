"""Run a benchmark workload and print its metrics; the last line is the result.

    python3 perfbench/run.py --workload scan --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

A run is a closed loop with one client: it starts one fresh single-threaded
process (sample.py) per sample, waits for it, and starts the next while the
median sample still fits in --seconds.  Metrics are medians over the
samples whose outputs passed their checks, with times scaled to a fixed
reference speed (see sample.py).  --trace 0 reports the
end-to-end metrics of BENCHMARK.json, --trace 1 its per-layer metrics from
traced calls.  --workload all runs every workload in both modes.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  The lines before it give the
machine, every metric with its unit and quartiles, and failed_frac, the
share of samples that raised, exited with an unexpected code or failed
their output check.  Each run also writes its samples, with the machine
block, to .perfbench/<workload>-seed<seed>-trace<trace>/result.json.

Exit codes: 0 with a result, 1 when no sample produced figures, 2 when the
checkout holds no frontks source.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import checkout
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
# a run must end within 180 s: stop starting samples after this many seconds
HARD_STOP_S = 150.0
SINGLE_THREAD = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}


def metric_units(trace: int) -> dict[str, str]:
    with open(checkout.ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def git_sha() -> str | None:
    git = checkout.ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def machine() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "git_sha": git_sha(),
        "loadavg_at_start": os.getloadavg(),
    }


def run_sample(workload: str, seed: int, trace: int, out: Path, timeout: float) -> dict | None:
    """One sample process; None when it produced no result."""
    env = dict(os.environ, **SINGLE_THREAD)
    cmd = [sys.executable, str(HERE / "sample.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(trace), "--out", str(out)]
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        print(f"sample timed out after {timeout:.0f} s", file=sys.stderr)
        return None
    if proc.returncode == 3:
        sys.stderr.write(proc.stderr)
        raise SystemExit(2)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        return None
    return json.loads(lines[-1])


def measure(workload: str, seed: int, seconds: float, trace: int, host: dict) -> dict:
    out = checkout.SCRATCH / f"{workload}-seed{seed}-trace{trace}"
    shutil.rmtree(out, ignore_errors=True)
    samples, durations = [], []
    attempted = failed = 0
    start = perf_counter()
    while True:
        elapsed = perf_counter() - start
        if attempted and (elapsed + statistics.median(durations) > seconds or elapsed > HARD_STOP_S):
            break
        attempted += 1
        sample_dir = out / f"sample{attempted}"
        t0 = perf_counter()
        result = run_sample(workload, seed, trace, sample_dir, HARD_STOP_S + 20 - elapsed)
        durations.append(perf_counter() - t0)
        if result is None or result["problems"]:
            failed += 1
            for problem in (result or {}).get("problems", []):
                print(f"sample {attempted}: {problem}", file=sys.stderr)
        if result is not None:
            samples.append(result)
        if attempted > 1:  # keep the outputs of the first sample only
            shutil.rmtree(sample_dir, ignore_errors=True)
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
              "machine": host, "attempted": attempted, "failed": failed, "samples": samples}
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "result.json", "w") as fh:
        json.dump(record, fh, indent=1)
    return record


def summarise(record: dict, units: dict[str, str]) -> dict | None:
    """Median, quartiles and unit of every metric, over the samples that passed."""
    trace = record["trace"]
    good = [s for s in record["samples"] if not s["problems"]] or record["samples"]
    rows = [s["layers"] if trace else s for s in good if not trace or "layers" in s]
    if not rows:
        return None
    out = {}
    for name, unit in units.items():
        values = [r[name] for r in rows]
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
        out[name] = {"value": statistics.median(values), "unit": unit, "q1": q1, "q3": q3}
    return out


def report(record: dict, stats: dict) -> None:
    attempted, failed = record["attempted"], record["failed"]
    print(f"workload {record['workload']} seed {record['seed']} trace {record['trace']}: "
          f"{len(record['samples'])} samples, failed_frac {failed / attempted:g} ratio "
          f"({failed} of {attempted})")
    for name, m in stats.items():
        print(f"  {name:<28} {m['value']:>14.6g} {m['unit']:<6} [q1 {m['q1']:.6g}, q3 {m['q3']:.6g}]")


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if not checkout.has_source():
        print(f"no frontks source under {checkout.SRC}", file=sys.stderr)
        return 2
    compileall.compile_dir(str(checkout.SRC), quiet=1)
    host = machine()
    print("machine " + json.dumps(host))

    runs = [(w, t) for w in WORKLOADS for t in (0, 1)] if args.workload == "all" \
        else [(args.workload, args.trace)]
    attempted = failed = 0
    metrics = {}
    for workload, trace in runs:
        record = measure(workload, args.seed, args.seconds, trace, host)
        stats = summarise(record, metric_units(trace))
        if stats is None:
            print(f"workload {workload}: no sample produced figures", file=sys.stderr)
            return 1
        report(record, stats)
        attempted += record["attempted"]
        failed += record["failed"]
        prefix = f"{workload}." if args.workload == "all" else ""
        metrics.update({prefix + k: {"value": v["value"], "unit": v["unit"]} for k, v in stats.items()})
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
