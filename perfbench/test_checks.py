"""The output checks accept each workload's real outputs and reject doctored ones.

    python3 -m pytest perfbench/test_checks.py

Each workload runs once through cli.main (about a second in all); every
test then doctors a copy of its outputs.
"""

from __future__ import annotations

import csv
import json
import shutil

import pytest

import checkout
from workloads import SCAN_ALPHAS, SCAN_ELL, WORKLOADS

fk = checkout.import_frontks()


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    base = tmp_path_factory.mktemp("outputs")
    dirs = {}
    for name, w in WORKLOADS.items():
        dirs[name] = base / name
        assert fk.cli.main(w.argv(7) + ["--out", str(dirs[name])]) == 0
    return dirs


def doctored(outputs, tmp_path, name):
    target = tmp_path / name
    shutil.copytree(outputs[name], target)
    return target


def edit_csv(path, edit):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    edit(rows)
    with open(path, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


def edit_json(path, edit):
    with open(path) as fh:
        payload = json.load(fh)
    edit(payload)
    with open(path, "w") as fh:
        json.dump(payload, fh)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_real_outputs_pass(outputs, name):
    assert WORKLOADS[name].check(str(outputs[name])) == []


def test_scan_rejects_flipped_verdict(outputs, tmp_path):
    out = doctored(outputs, tmp_path, "scan")
    # the largest alpha below alpha_c, where a verdict would flip first
    i = max(k for k, a in enumerate(SCAN_ALPHAS) if a < fk.alpha_critical(SCAN_ELL))

    def flip(rows):
        rows[i + 1][3] = "unstable"

    edit_csv(out / "scan.csv", flip)
    edit_json(out / "report.json", lambda r: r["verdicts"].__setitem__(i, "unstable"))
    problems = WORKLOADS["scan"].check(str(out))
    assert any("verdict unstable, expected stable" in p for p in problems)


def test_scan_rejects_wrong_predicted_rate(outputs, tmp_path):
    out = doctored(outputs, tmp_path, "scan")

    def nudge(rows):
        rows[1][2] = repr(float(rows[1][2]) * (1 + 1e-9))

    edit_csv(out / "scan.csv", nudge)
    assert any("predicted rate" in p for p in WORKLOADS["scan"].check(str(out)))


def test_ladder_rejects_gap_above_round_off(outputs, tmp_path):
    out = doctored(outputs, tmp_path, "ladder")

    def widen(rows):
        rows[-1][2] = "1e-6"

    edit_csv(out / "galerkin.csv", widen)
    assert any("above round-off" in p for p in WORKLOADS["ladder"].check(str(out)))


def test_ladder_rejects_blowup(outputs, tmp_path):
    out = doctored(outputs, tmp_path, "ladder")
    edit_json(out / "report.json", lambda r: r["blowups"].append(2048))
    assert any("blowups" in p for p in WORKLOADS["ladder"].check(str(out)))


def test_dense_rejects_missing_row(outputs, tmp_path):
    out = doctored(outputs, tmp_path, "dense")
    edit_csv(out / "trajectory.csv", lambda rows: rows.pop())
    assert any("rows, expected" in p for p in WORKLOADS["dense"].check(str(out)))


def test_dense_rejects_short_horizon(outputs, tmp_path):
    out = doctored(outputs, tmp_path, "dense")

    def shift(rows):
        rows[-1][0] = repr(float(rows[-1][0]) - 0.5e-3)

    edit_csv(out / "trajectory.csv", shift)
    assert any("!= t_end" in p for p in WORKLOADS["dense"].check(str(out)))


def test_dense_rejects_mean_mode_law_violation(outputs, tmp_path):
    out = doctored(outputs, tmp_path, "dense")

    def kick(rows):
        rows[100][1] = repr(float(rows[100][1]) + 1e-6)

    edit_csv(out / "trajectory.csv", kick)
    assert any("mean-mode residual" in p for p in WORKLOADS["dense"].check(str(out)))
