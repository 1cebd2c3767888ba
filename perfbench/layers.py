"""Per-call microbenchmarks of frontks' public layer functions.

Run as a script, it prints the layer table at N in {64, 128, 256, 1024}:
the median and quartiles of microseconds per call (per step for evolve,
per row for write_csv), beside the baseline recorded in ROADMAP.md.

    python3 perfbench/layers.py

The baseline timed private helpers on 2 * n_points where the public
functions differ: differentiate and dealiased_square wrap the helpers in a
SpectralField, and transform only accepts n_points values.
"""

from __future__ import annotations

import statistics
from pathlib import Path
from time import perf_counter

import checkout

SIZES = (64, 128, 256, 1024)
PERIOD = 4.0 * 3.141592653589793
ALPHA = 1.5
DT = 0.01
EVOLVE_STEPS = 50
CSV_ROWS = 200

# microseconds per call measured on a shared 2-core x86 box (ROADMAP.md)
BASELINE_US = {
    "differentiate": (45, 44, 47, 72),
    "inverse_transform": (45, 54, 60, 117),
    "transform": (43, 54, 60, 122),
    "dealiased_square": (80, 106, 124, 242),
    "Etdrk4.nonlinear": (140, 153, 173, 309),
    "Etdrk4.step_coeffs": (584, 654, 756, 1414),
    "Etdrk4()": (296, 488, 967, 3298),
    "evolve/step": (664, 690, 803, 1388),
    "write_csv/row": None,
}


def per_call_us(fn, batches: int = 7, min_batch_s: float = 0.005) -> tuple[float, float, float]:
    """(median, first quartile, third quartile) of microseconds per call of fn()."""
    fn()
    calls = 1
    while True:
        t0 = perf_counter()
        for _ in range(calls):
            fn()
        if perf_counter() - t0 >= min_batch_s:
            break
        calls *= 2
    samples = []
    for _ in range(batches):
        t0 = perf_counter()
        for _ in range(calls):
            fn()
        samples.append((perf_counter() - t0) / calls * 1e6)
    q1, median, q3 = statistics.quantiles(samples, n=4)
    return median, q1, q3


def grid_calls(fk, period: float, n_modes: int, make_equation) -> dict:
    """The grid and symbol calls the per-layer figures time, by metric name."""
    grid = fk.make_grid(period, n_modes)
    field = fk.random_zero_mean_field(grid, 1.0, 0)
    values = fk.inverse_transform(field)
    fine = 2 * grid.n_points
    return {
        "grid.transform_us": lambda: fk.transform(grid, values),
        "grid.inverse_transform_us": lambda: fk.inverse_transform(field, fine),
        "grid.differentiate_us": lambda: fk.differentiate(field),
        "grid.dealiased_square_us": lambda: fk.dealiased_square(field),
        "grid.make_grid_us": lambda: fk.make_grid(period, n_modes),
        "symbols.build_us": lambda: make_equation(fk, grid),
    }


def layer_table(fk, n_modes: int, scratch: Path) -> dict[str, tuple[float, float, float]]:
    grid = fk.make_grid(PERIOD, n_modes)
    field = fk.random_zero_mean_field(grid, 1e-2, 0)
    coeffs = field.coeffs
    values = fk.inverse_transform(field)
    descriptor = fk.make_front_equation(ALPHA, grid)
    stepper = fk.Etdrk4(descriptor, DT)
    config = fk.SolverConfig(descriptor, field, DT, EVOLVE_STEPS * DT, output_stride=1)
    header = ["time"] + [f"a{k}" for k in range(n_modes)]
    rows = [[i * DT, *coeffs] for i in range(CSV_ROWS)]
    path = str(scratch / f"rows{n_modes}.csv")
    table = {
        "differentiate": per_call_us(lambda: fk.differentiate(field)),
        "inverse_transform": per_call_us(lambda: fk.inverse_transform(field, 2 * grid.n_points)),
        "transform": per_call_us(lambda: fk.transform(grid, values)),
        "dealiased_square": per_call_us(lambda: fk.dealiased_square(field)),
        "Etdrk4.nonlinear": per_call_us(lambda: stepper.nonlinear(coeffs)),
        "Etdrk4.step_coeffs": per_call_us(lambda: stepper.step_coeffs(coeffs)),
        "Etdrk4()": per_call_us(lambda: fk.Etdrk4(descriptor, DT)),
        "evolve/step": per_call_us(lambda: fk.evolve(config), batches=5),
        "write_csv/row": per_call_us(lambda: fk.cli.write_csv(path, header, rows), batches=5),
    }
    for name, per in (("evolve/step", EVOLVE_STEPS), ("write_csv/row", CSV_ROWS)):
        table[name] = tuple(v / per for v in table[name])
    return table


def main() -> int:
    fk = checkout.import_frontks()
    scratch = checkout.SCRATCH / "layers"
    scratch.mkdir(parents=True, exist_ok=True)
    tables = {n: layer_table(fk, n, scratch) for n in SIZES}
    print("us per call: median [q1, q3] (ROADMAP baseline)")
    print(f"{'layer':<20}" + "".join(f"{'N=' + str(n):>30}" for n in SIZES))
    for name, baseline in BASELINE_US.items():
        cells = []
        for i, n in enumerate(SIZES):
            med, q1, q3 = tables[n][name]
            base = f" ({baseline[i]})" if baseline else ""
            cells.append(f"{med:.1f} [{q1:.1f}, {q3:.1f}]{base}")
        print(f"{name:<20}" + "".join(f"{c:>30}" for c in cells))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
