"""Smoke tests of the benchmark itself, on the small golden_n2 instance.

Run with:  python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import child
import run

ROOT = Path(__file__).resolve().parent.parent
SEED = 11


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=180)


def result_line(proc):
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    return result


def units(result):
    return {name: m["unit"] for name, m in result["metrics"].items()}


def declared(kind):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def record(trace):
    path = run.RESULTS / f"golden-n2-seed{SEED}-trace{trace}.json"
    return json.loads(path.read_text())


def test_timed_run_reports_every_end_to_end_metric():
    result = result_line(bench("--workload", "golden-n2", "--seed", str(SEED),
                               "--seconds", "1", "--trace", "0"))
    assert units(result) == declared("end_to_end") == dict(run.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())
    rec = record(0)
    for p in rec["passes"]:
        i = p["argv"].index("--seed")
        assert p["argv"][i + 1] == str(SEED)
    assert rec["seed"] == SEED and rec["fail_ratio"] == 0
    for key in ("git_sha", "src_sha256", "python", "numpy", "nproc", "workload", "env"):
        assert key in rec


@pytest.fixture(scope="module")
def traced_twice():
    args = ("--workload", "golden-n2", "--seed", str(SEED), "--seconds", "1", "--trace", "1")
    first = result_line(bench(*args))
    first_record = record(1)
    return first, first_record, result_line(bench(*args))


def test_traced_run_reports_every_per_layer_metric(traced_twice):
    result, rec, _ = traced_twice
    assert units(result) == declared("per_layer") == dict(run.per_layer_units())
    assert result["attempted"] == 2  # one untraced pass, one traced
    traced = [p for p in rec["passes"] if p["trace"]]
    assert len(traced) == 1
    names = {s["name"] for s in traced[0]["spans"]}
    assert {"cli.verify", "bae.newton_solve", "betheop.block_evaluate"} <= names
    assert all(s["parent"] is None or s["parent"] < i for i, s in enumerate(traced[0]["spans"]))


def test_counts_repeat_exactly_at_one_seed(traced_twice):
    first, _, second = traced_twice
    for name in ("bae.residual_evals", "bae.solutions", "betheop.block_evaluate_calls",
                 "spectral.characters"):
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name
    assert first["metrics"]["bae.solutions"]["value"] == 2


def test_self_time_subtracts_direct_children():
    spans = [
        {"name": "cli.verify", "start": 0.0, "end": 10.0, "parent": None},
        {"name": "harness.bae_pipeline", "start": 1.0, "end": 9.0, "parent": 0},
        {"name": "bae.newton_solve", "start": 2.0, "end": 6.0, "parent": 1},
        {"name": "betheop.block_evaluate", "start": 6.5, "end": 7.0, "parent": 1},
    ]
    m = run.layer_metrics(spans, {"bae.residual_evals": 30, "bae.solutions": 3})
    assert m["cli.verify_s"] == 10.0 and m["cli.verify_self_s"] == 2.0
    assert m["harness.bae_pipeline_s"] == 8.0 and m["harness.bae_match_s"] == 3.5
    assert m["betheop.block_evaluate_s"] == 0.5
    assert m["bae.residual_evals_per_solution"] == 10.0


def test_speed_probe_rescales_each_stretch_by_the_sample_after_it():
    probe = child.SpeedProbe()
    probe.start, probe.end = 0.0, 10.0
    ref = child.REFERENCE_S
    # 4 s at half the reference speed, then 6 s at the reference speed; the
    # last sample is taken after the pass and rescales the last stretch.
    probe.samples = [(4.0, 2 * ref), (10.5, ref)]
    assert probe.normalized_s() == pytest.approx(4.0 / 2 + (10.0 - 4.0 - 2 * ref))
    assert probe.probe_s() == pytest.approx(2 * ref)


def test_block_dimension_is_the_multinomial():
    assert [run.block_dimension(run.WORKLOADS[w])
            for w in ("bae-real", "eigenop-n2")] == [6, 10]


def test_fails_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = bench("--workload", "bae-real", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
