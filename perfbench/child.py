"""One `gaudin verify` pass in a fresh interpreter, optionally traced.

Usage:
    python3 child.py --src SRC --result OUT.json [--trace] -- verify --config ...
    python3 child.py --src SRC --probe

With --probe the interpreter only imports gaudin and prints, as JSON, the
monotonic clock reading taken right before the import and the import's
time, raw and rescaled by a SpeedProbe; the parent adds the time from its
spawn to that reading to get the set-up time.

Otherwise the pass runs `gaudin.cli.main(argv)` and writes a JSON result:
exit code, verify wall time, peak resident set of this process and, with
--trace, the spans and counters recorded by wrappers installed around the
public functions of each layer where their callers look them up.  Nothing
in the package is edited; the wrappers replace module or class attributes
in this process only.

An untraced pass also times a fixed reference computation every 20 ms of
process CPU time (see SpeedProbe) and reports `verify_norm_s`, the pass's
time rescaled to a fixed reference speed.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import json
import resource
import signal
import sys
import time
from fractions import Fraction

# (module, attribute, span name).  Each attribute is the name under which
# the caller finds the function, so the wrapper sees every call made there.
SPAN_SITES = [
    ("gaudin.harness", "spectrum_pipeline", "harness.spectrum_pipeline"),
    ("gaudin.harness", "bae_pipeline", "harness.bae_pipeline"),
    ("gaudin.harness", "build_embedded_module", "algebra.build_embedded_module"),
    ("gaudin.harness", "build_bethe_operator", "betheop.build_bethe_operator"),
    ("gaudin.harness", "first_coefficient_residual", "betheop.first_coefficient_residual"),
    ("gaudin.harness", "leading_symbol", "betheop.leading_symbol"),
    ("gaudin.harness", "check_polynomiality", "betheop.check_polynomiality"),
    ("gaudin.harness", "commutativity_check", "betheop.commutativity_check"),
    ("gaudin.harness", "weight_blocks_preserved", "betheop.weight_blocks_preserved"),
    ("gaudin.harness", "spectrum_analysis", "spectral.spectrum_analysis"),
    ("gaudin.harness", "joint_diagonalize", "spectral.joint_diagonalize"),
    ("gaudin.spectral", "joint_diagonalize", "spectral.joint_diagonalize"),
    ("gaudin.spectral", "character_to_operator", "spectral.character_to_operator"),
    ("gaudin.spectral", "kernel_from_operator", "spectral.kernel_from_operator"),
    ("gaudin.spectral", "membership_test", "spaces.membership_test"),
    ("gaudin.harness", "newton_solve", "bae.newton_solve"),
    ("gaudin.harness", "verify_eigenvector", "bae.verify_eigenvector"),
    ("gaudin.harness", "cleared_numerators", "harness.cleared_numerators"),
    ("gaudin.betheop:BetheOperator", "block_evaluate", "betheop.block_evaluate"),
]

# Call counts only: these run tens of thousands of times per pass, so a
# span each would cost more than the call it measures.
COUNT_SITES = [
    ("gaudin.bae", "bae_residual", "bae.residual_evals"),
]

# Counters read from a span's return value.
RESULT_COUNTS = {
    "spectral.joint_diagonalize": ("spectral.characters", lambda r: len(r.characters)),
    "bae.newton_solve": ("bae.solutions", len),
}


class Tracer:
    """Spans (name, start, end, parent) and counters, kept in memory."""

    def __init__(self):
        self.spans = []
        self.counters = {}
        self._open = []

    def _count(self, name, n=1):
        self.counters[name] = self.counters.get(name, 0) + n

    def call(self, name, fn, *args, **kwargs):
        span = {"name": name, "start": time.perf_counter(), "end": None,
                "parent": self._open[-1] if self._open else None}
        self.spans.append(span)
        self._open.append(len(self.spans) - 1)
        try:
            result = fn(*args, **kwargs)
        finally:
            self._open.pop()
            span["end"] = time.perf_counter()
        self._count(name + "_calls")
        if name in RESULT_COUNTS:
            counter, measure = RESULT_COUNTS[name]
            self._count(counter, measure(result))
        return result

    def span_wrapper(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)
        return wrapper

    def count_wrapper(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._count(name)
            return fn(*args, **kwargs)
        return wrapper

    def install(self):
        for sites, make in ((SPAN_SITES, self.span_wrapper), (COUNT_SITES, self.count_wrapper)):
            for where, attr, name in sites:
                module_name, _, class_name = where.partition(":")
                owner = importlib.import_module(module_name)
                if class_name:
                    owner = getattr(owner, class_name)
                setattr(owner, attr, make(name, getattr(owner, attr)))


# Exact rational arithmetic, as in the package's exact layers, with
# numerators and denominators that grow along the loop.
REFERENCE_TERMS = [Fraction(i + 1, 2 * i + 3) for i in range(40)]
# Reference speed: the reference computation takes this long.  It is close
# to its time on a lightly loaded 2-vCPU Xeon VM with Python 3.11.
REFERENCE_S = 200e-6
PROBE_EVERY_CPU_S = 0.02
# The import takes about 0.15 s, so its probe samples more often.
IMPORT_PROBE_EVERY_CPU_S = 0.005


def reference_work():
    total = Fraction(0)
    for term in REFERENCE_TERMS:
        total = total * term + term
    return total


class SpeedProbe:
    """Times reference_work() at a fixed rate of CPU time during a pass.

    On a shared host the speed of each instruction changes by up to 2x from
    one tenth of a second to the next, as other tenants load the machine, so
    a pass's wall time does not repeat.  Each stretch of the pass between two
    samples is rescaled by the reference time measured right after it; the
    sum is the time the pass would take at REFERENCE_S.  The probe's own time
    is left out of it.
    """

    def __init__(self, every_cpu_s=PROBE_EVERY_CPU_S):
        self.every_cpu_s = every_cpu_s
        self.samples = []  # (start, duration) of each reference_work() call
        self.start = self.end = None

    def sample(self, *_signal_args):
        started = time.perf_counter()
        reference_work()
        self.samples.append((started, time.perf_counter() - started))

    def __enter__(self):
        reference_work()  # warm-up, unmeasured
        signal.signal(signal.SIGPROF, self.sample)
        signal.setitimer(signal.ITIMER_PROF, self.every_cpu_s, self.every_cpu_s)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc_info):
        self.end = time.perf_counter()
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)
        self.sample()  # rescales the last stretch
        return False

    def probe_s(self) -> float:
        return sum(d for started, d in self.samples if started < self.end)

    def normalized_s(self) -> float:
        total, since = 0.0, self.start
        for started, d in self.samples:
            total += (min(started, self.end) - since) * REFERENCE_S / d
            since = started + d
        return total


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", required=True, help="directory that holds the gaudin package")
    parser.add_argument("--probe", action="store_true", help="time `import gaudin`, print it, exit")
    parser.add_argument("--result", help="write the pass result JSON here")
    parser.add_argument("--trace", action="store_true", help="record spans and counters")
    parser.add_argument("verify_argv", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)

    sys.path.insert(0, args.src)
    if args.probe:
        import_start = time.monotonic()
        with SpeedProbe(IMPORT_PROBE_EVERY_CPU_S) as probe:
            import gaudin  # noqa: F401
        print(json.dumps({"import_start": import_start, "import_s": probe.end - probe.start - probe.probe_s(),
                          "import_norm_s": probe.normalized_s()}))
        return 0

    from gaudin.cli import main as gaudin_main

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    verify_argv = args.verify_argv[1:] if args.verify_argv[:1] == ["--"] else args.verify_argv
    start, cpu_start = time.perf_counter(), time.process_time()
    if tracer is None:
        with SpeedProbe() as probe:
            code = gaudin_main(verify_argv)
    else:
        code = tracer.call("cli.verify", gaudin_main, verify_argv)
    verify_s = time.perf_counter() - start
    cpu_s = time.process_time() - cpu_start
    result = {
        "exit_code": code,
        "verify_s": verify_s,
        "cpu_s": cpu_s,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "python": sys.version.split()[0],
        "numpy": sys.modules["numpy"].__version__,
    }
    if tracer is None:
        result["probe_s"] = probe.probe_s()
        result["verify_s"] -= result["probe_s"]
        result["probe_samples"] = len(probe.samples)
        result["reference_median_s"] = sorted(d for _, d in probe.samples)[len(probe.samples) // 2]
        result["verify_norm_s"] = probe.normalized_s()
    else:
        result["spans"] = tracer.spans
        result["counters"] = tracer.counters
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
