"""In-memory span recording around frontks' public callables.

A span is one call of a wrapped callable: its name, start, end, the span
that was open when it began (its parent) and its work: the transform
length of an FFT, or the bytes of snapshots an evolve call returns.  Spans
are kept in flat arrays while the program runs and are summarised, or
saved, after it returns.  A span's self time is its duration minus the
durations of its children.
"""

from __future__ import annotations

import functools
import importlib
from array import array
from dataclasses import dataclass
from time import perf_counter

import numpy as np


@dataclass(frozen=True)
class Totals:
    count: int
    total_s: float
    self_s: float
    work: int  # summed FFT lengths, or snapshot bytes for evolve


def _rfft_len(args, kwargs, result) -> int:
    n = kwargs.get("n", args[1] if len(args) > 1 else None)
    return int(n) if n is not None else int(np.shape(args[0])[-1])


def _irfft_len(args, kwargs, result) -> int:
    n = kwargs.get("n", args[1] if len(args) > 1 else None)
    return int(n) if n is not None else 2 * (int(np.shape(args[0])[-1]) - 1)


def _snapshot_bytes(args, kwargs, result) -> int:
    return int(result.coeffs.nbytes)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.work = array("q")
        self._stack = [-1]
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, size=None):
        """Return fn recording one span per call; size(args, kwargs, result) is its work."""
        nid = len(self.names)
        self.names.append(name)
        name_id, parent, start, end, work, stack = (
            self.name_id, self.parent, self.start, self.end, self.work, self._stack
        )

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(end)
            name_id.append(nid)
            parent.append(stack[-1])
            work.append(0)
            end.append(0.0)
            stack.append(i)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = perf_counter()
                stack.pop()
            if size:
                work[i] = size(args, kwargs, result)
            return result

        return traced

    def patch(self, owner, attr: str, name: str, size=None) -> None:
        """Replace owner.attr (a module or class attribute) by its traced wrapper."""
        if isinstance(owner, str):
            owner = importlib.import_module(owner)
        original = owner.__dict__[attr]
        self._patched.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, size))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "work": np.frombuffer(self.work, dtype=np.int64).copy(),
        }

    def totals(self) -> dict[str, Totals]:
        """Per span name: calls, summed duration, summed self time, summed work."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        n = len(dur)
        has_parent = a["parent"] >= 0
        children = np.bincount(a["parent"][has_parent], weights=dur[has_parent], minlength=n)
        own = dur - children
        k = len(self.names)
        count = np.bincount(a["name_id"], minlength=k)
        total = np.bincount(a["name_id"], weights=dur, minlength=k)
        self_s = np.bincount(a["name_id"], weights=own, minlength=k)
        work = np.bincount(a["name_id"], weights=a["work"], minlength=k)
        out: dict[str, Totals] = {}
        for i, name in enumerate(self.names):
            old = out.get(name, Totals(0, 0.0, 0.0, 0))
            out[name] = Totals(
                old.count + int(count[i]),
                old.total_s + float(total[i]),
                old.self_s + float(self_s[i]),
                old.work + int(work[i]),
            )
        return out

    def save(self, path: str) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


def install(tracer: Tracer, study: tuple[str, str]) -> None:
    """Trace the layer boundaries: study, evolve, the ETDRK4 stepper, FFTs and writers."""
    import frontks.cli
    import frontks.experiments
    from frontks import Etdrk4

    tracer.patch(*study, "experiments")
    tracer.patch(frontks.experiments, "evolve", "evolve", _snapshot_bytes)
    tracer.patch(frontks.cli, "evolve", "evolve", _snapshot_bytes)
    tracer.patch(Etdrk4, "__init__", "evolve.stepper_build")
    tracer.patch(Etdrk4, "step_coeffs", "evolve.step")
    tracer.patch(Etdrk4, "nonlinear", "evolve.nonlinear")
    tracer.patch(np.fft, "rfft", "grid.fft", _rfft_len)
    tracer.patch(np.fft, "irfft", "grid.fft", _irfft_len)
    tracer.patch(frontks.cli, "write_csv", "cli.write")
    tracer.patch(frontks.cli, "write_json", "cli.write")
