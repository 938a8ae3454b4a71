"""Benchmark of `gaudin verify`: wall time, set-up time and peak memory.

Usage (from the repository root):
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each workload is one instance run through `gaudin verify --seed N`.  Every
pass runs in a fresh single-threaded interpreter (perfbench/child.py), one
after the other from this process.

--trace 0 repeats untraced passes for about S seconds (at least one) and
reports the medians of the end-to-end metrics.  The pass time reported is
verify_norm_s: wall time rescaled to a fixed reference speed by a probe that
times a reference computation throughout the pass (SpeedProbe in child.py),
because the shared host's speed changes too much for raw wall time to repeat.  --trace 1 makes one
untraced pass and one traced pass; the traced pass wraps each layer's
public functions, and the spans and counters give the per-layer metrics
plus the tracing overhead (traced wall over untraced verify_s).

Every pass is checked: exit code 0, `all_passed` true, the report's seed is
the requested one, and the count identity equals the block dimension
n!/prod(lambda_i!) computed here.  A pass that misses any of these counts
as failed.  The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics; the run record (versions,
seed, spans) goes to perfbench/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from math import factorial, prod
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD = HERE / "child.py"
RESULTS = HERE / "results"

SETUP_PROBES = 9
RUN_LIMIT_S = 170.0  # the whole run ends well within 180 s
SINGLE_THREAD = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def _vectors(points, weight, K=("0", "1/2")):
    return {"N": len(weight), "K": list(K), "partitions": [[1]] * len(points),
            "b": list(points), "weight": list(weight)}


# Every factor is a vector representation, so the block dimension is the
# multinomial n!/prod(lambda_i!).
WORKLOADS = {
    "bae-real": _vectors(["0", "1", "2", "3"], [2, 2]),
    "eigenop-n2": {**_vectors(["0", "1", "2", "3", "4"], [3, 2]),
                   "options": {"run_bae": False}},
    # about 2 s; used by the benchmark's own smoke test, not by BENCHMARK.json
    "golden-n2": _vectors(["0", "1"], [1, 1], K=("0", "1")),
}

END_TO_END = [("verify_norm_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB")]

# per-layer time metric -> the spans it sums
LAYER_SPANS = {
    "algebra.build_embedded_module": ["algebra.build_embedded_module"],
    "betheop.build_bethe_operator": ["betheop.build_bethe_operator"],
    "betheop.exact_checks": [
        "betheop.first_coefficient_residual", "betheop.leading_symbol",
        "betheop.check_polynomiality", "betheop.commutativity_check",
        "betheop.weight_blocks_preserved",
    ],
    "betheop.block_evaluate": ["betheop.block_evaluate"],
    "spectral.spectrum_analysis": ["spectral.spectrum_analysis"],
    "spectral.joint_diagonalize": ["spectral.joint_diagonalize"],
    "spectral.character_to_operator": ["spectral.character_to_operator"],
    "spectral.kernel_from_operator": ["spectral.kernel_from_operator"],
    "spaces.membership_test": ["spaces.membership_test"],
    "bae.newton_solve": ["bae.newton_solve"],
    "bae.verify_eigenvector": ["bae.verify_eigenvector"],
    "harness.cleared_numerators": ["harness.cleared_numerators"],
    "harness.spectrum_pipeline": ["harness.spectrum_pipeline"],
    "harness.bae_pipeline": ["harness.bae_pipeline"],
    "cli.verify": ["cli.verify"],
}
# self-time metrics named for what the self time is
SELF_NAMES = {"harness.bae_pipeline": "harness.bae_match_s"}
LAYER_COUNTS = [
    ("betheop.block_evaluate_calls", "count"),
    ("spectral.characters", "count"),
    ("bae.solutions", "count"),
    ("bae.residual_evals", "count"),
    ("bae.residual_evals_per_solution", "evals/solution"),
]


def per_layer_units() -> list:
    """(name, unit) of every metric a traced run reports, in order."""
    out = []
    for base in LAYER_SPANS:
        out.append((base + "_s", "s"))
        out.append((SELF_NAMES.get(base, base + "_self_s"), "s"))
    out += LAYER_COUNTS
    out.append(("trace.overhead_ratio", "ratio"))
    return out


def block_dimension(instance) -> int:
    weight = instance["weight"]
    return factorial(sum(weight)) // prod(factorial(x) for x in weight)


def layer_metrics(spans, counters) -> dict:
    """Total and self time per layer, from the spans; counts from the counters."""
    duration = [s["end"] - s["start"] for s in spans]
    child_time = [0.0] * len(spans)
    for s, d in zip(spans, duration):
        if s["parent"] is not None:
            child_time[s["parent"]] += d
    total, self_time = {}, {}
    for s, d, c in zip(spans, duration, child_time):
        total[s["name"]] = total.get(s["name"], 0.0) + d
        self_time[s["name"]] = self_time.get(s["name"], 0.0) + d - c
    out = {}
    for base, names in LAYER_SPANS.items():
        out[base + "_s"] = sum(total.get(n, 0.0) for n in names)
        out[SELF_NAMES.get(base, base + "_self_s")] = sum(self_time.get(n, 0.0) for n in names)
    out["betheop.block_evaluate_calls"] = counters.get("betheop.block_evaluate_calls", 0)
    for name in ("spectral.characters", "bae.solutions", "bae.residual_evals"):
        out[name] = counters.get(name, 0)
    solutions = out["bae.solutions"]
    out["bae.residual_evals_per_solution"] = out["bae.residual_evals"] / solutions if solutions else 0.0
    return out


def _child_env() -> dict:
    env = dict(os.environ, **SINGLE_THREAD)
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONPATH", None)
    return env


def _run_child(args, deadline):
    timeout = max(1.0, deadline - time.monotonic())
    return subprocess.run([sys.executable, str(CHILD), "--src", str(SRC), *args],
                          env=_child_env(), capture_output=True, text=True, timeout=timeout)


def setup_time(deadline):
    """Medians of fresh-interpreter start-to-`import gaudin` times.

    Returns the median with the import rescaled to the reference speed (the
    interpreter's own start, before any Python code can time it, stays raw)
    and the raw median.  One probe runs first unmeasured so that byte-code
    compilation, which a user pays once per install, is not counted.
    """
    rescaled, raw = [], []
    for k in range(SETUP_PROBES + 1):
        spawned = time.monotonic()
        proc = _run_child(["--probe"], deadline)
        if proc.returncode != 0:
            raise RuntimeError(f"import probe failed: {proc.stderr.strip()}")
        if k:
            probe = json.loads(proc.stdout)
            start_s = probe["import_start"] - spawned
            rescaled.append(start_s + probe["import_norm_s"])
            raw.append(start_s + probe["import_s"])
    return statistics.median(rescaled), statistics.median(raw)


class Runner:
    """Runs and checks passes of one workload; keeps what each pass gave."""

    def __init__(self, workload, seed, work_dir, deadline):
        self.instance = WORKLOADS[workload]
        self.seed = seed
        self.expected = block_dimension(self.instance)
        self.work_dir = work_dir
        self.deadline = deadline
        self.config = work_dir / "instance.json"
        self.config.write_text(json.dumps(self.instance))
        self.passes = []

    def verify_argv(self, out):
        return ["verify", "--config", str(self.config), "--seed", str(self.seed), "--out", str(out)]

    def run_pass(self, trace: bool) -> dict:
        k = len(self.passes)
        out = self.work_dir / f"report-{k}.json"
        result_path = self.work_dir / f"pass-{k}.json"
        argv = self.verify_argv(out)
        flags = ["--result", str(result_path)] + (["--trace"] if trace else [])
        started = time.monotonic()
        proc = _run_child([*flags, "--", *argv], self.deadline)
        entry = {"trace": trace, "argv": argv, "returncode": proc.returncode,
                 "wall_s": time.monotonic() - started, "problems": []}
        result = json.loads(result_path.read_text()) if result_path.is_file() else None
        report = json.loads(out.read_text()) if out.is_file() else None
        entry["problems"] = self.problems(proc, result, report)
        if entry["problems"]:
            sys.stderr.write(proc.stderr[-4000:])
        if result is not None:
            entry.update(result)
        self.passes.append(entry)
        return entry

    def problems(self, proc, result, report) -> list:
        """Why this pass does not count as a correct `verify` answer."""
        if result is None or report is None:
            return [f"exit code {proc.returncode} and no report"]
        found = [f"exit code {proc.returncode}"] if proc.returncode else []
        if not report.get("all_passed"):
            failed = [c["name"] for c in report["checks"] if not c["passed"]]
            found.append(f"failed checks {failed}")
        if report.get("seed") != self.seed:
            found.append(f"report seed {report.get('seed')} is not {self.seed}")
        counts = [c.get("value") for c in report["checks"]
                  if c["name"] in ("count-triple-equality", "count-pair-equality")]
        if len(counts) != 1 or any(v != self.expected for v in counts[0]):
            found.append(f"counts {counts} are not all the block dimension {self.expected}")
        counters = result.get("counters")
        if counters is not None:
            wanted = {"spectral.characters": self.expected}
            if self.instance.get("options", {}).get("run_bae", True):
                wanted["bae.solutions"] = self.expected
            for name, value in wanted.items():
                if counters.get(name) != value:
                    found.append(f"traced {name} is {counters.get(name)}, expected {value}")
        return found


def _git_sha():
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                              text=True, timeout=10,
                              env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)))
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _src_sha256():
    digest = hashlib.sha256()
    for path in sorted((SRC / "gaudin").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def provenance(args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": _git_sha(),
        "src_sha256": _src_sha256(),
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "env": {**SINGLE_THREAD, "PYTHONHASHSEED": "0"},
        "load": "closed loop, one pass at a time from one process",
    }


def measure(args, runner, deadline) -> dict:
    if args.trace:
        plain = runner.run_pass(trace=False)
        traced = runner.run_pass(trace=True)
        if plain["problems"] or traced["problems"]:
            return {}
        metrics = layer_metrics(traced["spans"], traced["counters"])
        metrics["trace.overhead_ratio"] = traced["verify_s"] / plain["verify_s"]
        return metrics
    setup_s, setup_raw_s = setup_time(deadline)
    begin = time.monotonic()
    while True:
        entry = runner.run_pass(trace=False)
        spent = time.monotonic() - begin
        if spent + entry["wall_s"] > args.seconds or time.monotonic() + entry["wall_s"] > deadline:
            break
    good = [p for p in runner.passes if not p["problems"]]
    if not good:
        return {"setup_s": setup_s, "setup_raw_s": setup_raw_s}
    return {
        "verify_norm_s": statistics.median(p["verify_norm_s"] for p in good),
        "verify_s": statistics.median(p["verify_s"] for p in good),
        "setup_s": setup_s,
        "setup_raw_s": setup_raw_s,
        "peak_rss_mb": statistics.median(p["peak_rss_kb"] for p in good) / 1024.0,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Benchmark of gaudin verify.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "gaudin" / "cli.py").is_file():
        print(f"no gaudin sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_LIMIT_S
    RESULTS.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work_dir = RESULTS / f".work-{tag}-{os.getpid()}"
    work_dir.mkdir()
    try:
        runner = Runner(args.workload, args.seed, work_dir, deadline)
        values = measure(args, runner, deadline)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    attempted = len(runner.passes)
    failed = sum(1 for p in runner.passes if p["problems"])
    units = dict(per_layer_units() if args.trace else END_TO_END)
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items() if name in values}
    record = {**provenance(args), "passes": runner.passes, "metrics": metrics,
              "attempted": attempted, "failed": failed, "fail_ratio": failed / attempted}
    record["verify_s_median"] = values.get("verify_s")
    record["setup_raw_s"] = values.get("setup_raw_s")
    record["numpy"] = next((p["numpy"] for p in runner.passes if "numpy" in p), None)
    (RESULTS / f"{tag}.json").write_text(json.dumps(record, indent=1))

    for p in runner.passes:
        for problem in p["problems"]:
            print(f"FAILED pass ({'traced' if p['trace'] else 'untraced'}): {problem}", file=sys.stderr)
    print(f"# {tag}: {attempted} passes, fail_ratio {failed / attempted:.4f}")
    for name, m in metrics.items():
        print(f"# {name} {m['value']:.6g} {m['unit']}")
    for name in ("verify_s", "setup_raw_s"):
        if name in values:
            print(f"# {name} {values[name]:.6g} s (raw wall time, not rescaled)")
    correct = failed == 0 and len(metrics) == len(units)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
