"""One fresh interpreter of a benchmark run; prints one JSON object on stdout.

    python3 perfbench/worker.py --workload NAME --setup-only
    python3 perfbench/worker.py --workload NAME --seed S --seconds T --trace 0|1

Set-up is timed first, in this fresh interpreter: importing the package, the
first ``project_kahler`` call (projector build) and the first
``reference_constants(n)`` call. A full run then makes one untimed warm-up
call, so every cache is filled before the timed phase, and issues entry-point
calls back to back for T seconds (and at least the workload's traced-call
count). With ``--trace 1`` it replays the first traced-call count of those
calls under the tracer and requires bit-identical outputs.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

from workloads import DEFAULT_SEED, REFERENCE_TOL, WORKLOADS, call_seed

BENCH_DIR = Path(__file__).resolve().parent
CHECKOUT = BENCH_DIR.parent
SRC = CHECKOUT / "src"
TRACE_DIR = CHECKOUT / ".perfbench"
REFERENCE_FILE = BENCH_DIR / "reference.json"


# The machine's speed changes by up to 2x within minutes, and by tens of
# percent within a second, as other tenants load the host. A fixed kernel that
# never touches kahlerpinch (an interpreted loop plus small numpy calls, the
# workloads' own mix) is timed every SAMPLE_PERIOD_S throughout the timed
# phase, inside the entry-point calls too, and after every set-up. The
# reported figures are rescaled to the time one round of the kernel takes on
# a quiet machine here.
CALIBRATION_REF_S = 0.003
SAMPLE_PERIOD_S = 0.1
SETUP_CALIBRATION_ROUNDS = 4


def calibration_s(rounds: int = 1) -> float:
    """Seconds per round of the calibration kernel."""
    import numpy as np

    start = perf_counter()
    for _ in range(rounds):
        total = 0
        for k in range(50_000):
            total += k * k
        a = np.arange(64.0)
        for _ in range(250):
            a = np.sqrt(a * a + 1.0)
    return (perf_counter() - start) / rounds


class SpeedSampler:
    """Times one kernel round every SAMPLE_PERIOD_S of wall time, on SIGALRM.

    Python runs the handler in the main thread between bytecodes, so samples
    land inside long entry-point calls as well as between them. Each sample is
    (start, duration); a call's own time excludes the samples taken inside it.
    """

    def __init__(self):
        self.samples: list[tuple[float, float]] = []

    def _sample(self, signum, frame):
        start = perf_counter()
        calibration_s()
        self.samples.append((start, perf_counter() - start))

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def window(self, start: float, end: float) -> list[float]:
        """Kernel times sampled in [start, end], or the one nearest to it."""
        inside = [k for t, k in self.samples if start <= t <= end]
        if inside or not self.samples:
            return inside
        return [min(self.samples, key=lambda s: min(abs(s[0] - start), abs(s[0] - end)))[1]]


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def import_package():
    """Import kahlerpinch from this checkout's src/, never from site-packages."""
    if not (SRC / "kahlerpinch" / "__init__.py").is_file():
        raise SystemExit(f"error: no kahlerpinch sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import kahlerpinch
    import kahlerpinch.cli
    import kahlerpinch.experiments

    if Path(kahlerpinch.__file__).resolve().parent != SRC / "kahlerpinch":
        raise SystemExit(f"error: imported kahlerpinch from {kahlerpinch.__file__}, not {SRC}")
    return kahlerpinch


def measure_setup(n: int) -> dict:
    start = perf_counter()
    kp = import_package()
    imported = perf_counter()
    model = kp.complex_hyperbolic_tensor(kp.make_space(n))
    built = perf_counter()
    kp.project_kahler(model)
    projected = perf_counter()
    kp.reference_constants(n)
    referenced = perf_counter()
    return {
        "import_s": imported - start,
        "project_kahler_first_s": projected - built,
        "reference_constants_s": referenced - projected,
        "rss_mb": _rss_mb(),
        "calibration_s": calibration_s(SETUP_CALIBRATION_ROUNDS),
    }


def _blas_threads():
    """OpenBLAS's own thread count, asked through ctypes of the copy numpy loaded."""
    import ctypes

    import numpy as np

    # dlopen of an already loaded library returns that library, not a new copy
    libs = sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def machine() -> dict:
    import platform

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        threads = _blas_threads()
    except OSError:
        threads = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "blas_thread_env": {
            k: os.environ[k]
            for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "KAHLERPINCH_THREADS")
            if k in os.environ
        },
        "longdouble": {
            "dtype": str(np.dtype(np.longdouble)),
            "precision": int(np.finfo(np.longdouble).precision),
            "nmant": int(np.finfo(np.longdouble).nmant),
        },
        "scope": (
            "only the benchmark's own processes are measured; no cache dropping, "
            "no CPU pinning, no system-wide tracing; BLAS threads left at default"
        ),
    }


def _matches(got, want, tol) -> bool:
    if isinstance(want, dict):
        return (
            isinstance(got, dict)
            and got.keys() == want.keys()
            and all(_matches(got[k], want[k], tol) for k in want)
        )
    if isinstance(want, list):
        return (
            isinstance(got, list)
            and len(got) == len(want)
            and all(_matches(g, w, tol) for g, w in zip(got, want))
        )
    if isinstance(want, float) and not isinstance(got, bool):
        return isinstance(got, (int, float)) and abs(got - want) <= tol * max(1.0, abs(want))
    return got == want and type(got) is type(want)


def _canonical(snapshot) -> str:
    return json.dumps(snapshot, sort_keys=True)


class Phase:
    """Outcome of a run of entry-point calls: per-call times and item counts."""

    def __init__(self):
        self.times: list[float] = []
        self.spans: list[tuple[float, float]] = []  # (start, end) of each call
        self.items: list[int] = []
        self.failed: list[int] = []
        self.problems: list[str] = []

    def run_call(self, workload, seed):
        start = perf_counter()
        try:
            output = workload.call(seed)
        except Exception:  # every item of a call that raised has failed
            end = perf_counter()
            self.problems.append(f"seed {seed}: {traceback.format_exc(limit=3)}")
            failed, output = workload.items_per_call, None
        else:
            end = perf_counter()
            failed, problems = workload.failed_items(output)
            self.problems.extend(f"seed {seed}: {p}" for p in problems)
        self.times.append(end - start)
        self.spans.append((start, end))
        self.items.append(workload.items_per_call)
        self.failed.append(failed)
        return output

    def as_dict(self) -> dict:
        return {
            "times": self.times,
            "items": self.items,
            "failed": self.failed,
            "problems": self.problems,
        }


def run(workload_name: str, seed: int, seconds: float, trace: bool) -> dict:
    workload = WORKLOADS[workload_name]
    setup = measure_setup(workload.n)
    untraced = Phase()
    start = perf_counter()
    try:
        workload.warm_up()
    except Exception:  # a broken program is reported, not a crashed benchmark
        untraced.problems.append(f"warm-up: {traceback.format_exc(limit=3)}")
    warmup_s = perf_counter() - start

    snapshots = []
    calibration = []
    with SpeedSampler() as sampler:
        start = perf_counter()
        j = 0
        while j < workload.traced_calls or perf_counter() - start < seconds:
            output = untraced.run_call(workload, call_seed(seed, j))
            if j < workload.traced_calls:
                snapshots.append(None if output is None else workload.snapshot(output))
            j += 1
    for j, (call_start, call_end) in enumerate(untraced.spans):
        inside = [k for t, k in sampler.samples if call_start <= t <= call_end]
        untraced.times[j] -= sum(inside)
        # machine speed during the call: the harmonic mean of kernel times
        # sampled at even steps of wall time weighs each step by its work
        calibration.append(statistics.harmonic_mean(sampler.window(call_start, call_end)))
    if seed == DEFAULT_SEED and snapshots[0] is not None:
        reference = json.loads(REFERENCE_FILE.read_text(encoding="ascii"))[workload_name]
        if not _matches(snapshots[0], reference, REFERENCE_TOL):
            untraced.failed[0] = workload.items_per_call
            untraced.problems.append(f"seed {seed}: output differs from {REFERENCE_FILE.name}")
    result = {
        "setup": setup,
        "warmup_s": warmup_s,
        "untraced": untraced.as_dict(),
        "calibration_s": calibration,
        "machine": machine(),
    }

    if trace:
        from tracer import Tracer, layer_metrics

        traced = Phase()
        tracer = Tracer()
        with tracer:
            for j in range(workload.traced_calls):
                output = traced.run_call(workload, call_seed(seed, j))
                if output is None or _canonical(workload.snapshot(output)) != _canonical(
                    snapshots[j]
                ):
                    traced.failed[j] = workload.items_per_call
                    traced.problems.append(f"call {j}: traced output differs from untraced")
        TRACE_DIR.mkdir(exist_ok=True)
        tracer.dump(TRACE_DIR / f"spans-{workload_name}-seed{seed}.jsonl")
        traced_s = sum(traced.times)
        metrics = layer_metrics(tracer, traced_s)
        # per-call ratios against the untraced twins; the median damps the
        # machine's slow phases, which hit one phase and not the other
        metrics["trace.overhead_frac"] = (
            statistics.median(t / u for t, u in zip(traced.times, untraced.times)) - 1.0
        )
        metrics["trace.calls"] = workload.traced_calls
        metrics["trace.traced_s"] = traced_s
        result["traced"] = traced.as_dict()
        result["layers"] = metrics

    result["peak_rss_mb"] = _rss_mb()
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.setup_only:
        result = {"setup": measure_setup(WORKLOADS[args.workload].n)}
    else:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
