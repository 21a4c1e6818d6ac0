"""Benchmark entry point: run one workload (or all) and print its metrics.

    python3 perfbench/run.py --workload sweep-n2 --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all

Each run starts fresh interpreters (``worker.py``): a few that only time the
set-up, and one that also runs the workload. The last line of stdout is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``; with
``--trace 0`` the metrics are the end-to-end ones, with ``--trace 1`` the
per-layer ones from a traced replay. Every line before it is for people.
"""

from __future__ import annotations

import argparse
import json
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import monotonic

BENCH_DIR = Path(__file__).resolve().parent
WORKER = BENCH_DIR / "worker.py"
SRC_PACKAGE = BENCH_DIR.parent / "src" / "kahlerpinch" / "__init__.py"
DEADLINE_S = 170.0

sys.path.insert(0, str(BENCH_DIR))
from worker import CALIBRATION_REF_S  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

END_TO_END_UNITS = {"items_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}
SETUP_PARTS = ("import_s", "project_kahler_first_s", "reference_constants_s")


def _unit(name: str) -> str:
    if name.endswith((".calls", ".calls_per_tensor")):
        return "count"
    if "items_per_s" in name:
        return "1/s"
    if name.endswith("_frac"):
        return "fraction"
    if name.endswith("bytes_computed"):
        return "bytes"
    if name.endswith("rss_mb"):
        return "MB"
    if name.endswith("envelope_gap"):
        return "curvature"
    return "s"


def is_count(name: str) -> bool:
    """Counts repeat exactly on one seed; they are never speed-ups."""
    return _unit(name) in ("count", "bytes")


def _worker(args: list[str], deadline: float) -> dict:
    proc = subprocess.run(
        [sys.executable, str(WORKER), *args],
        stdout=subprocess.PIPE,
        text=True,
        timeout=max(1.0, deadline - monotonic()),
        check=False,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker {' '.join(args)} exited with {proc.returncode}")
    return json.loads(lines[-1])


def run_workload(name: str, seed: int, seconds: float, trace: bool, deadline: float) -> dict:
    workload = WORKLOADS[name]

    def setup_probe():
        return _worker(["--workload", name, "--setup-only"], deadline)["setup"]

    # Probes go before and after the workload, so that they do not all share
    # one of the machine's slow phases.
    probes = workload.setup_samples - 1
    setups = [setup_probe() for _ in range(probes // 2)]
    full = _worker(
        ["--workload", name, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))],
        deadline,
    )
    setups.append(full["setup"])
    setups += [setup_probe() for _ in range(probes - probes // 2)]
    setup_wall = [sum(s[p] for p in SETUP_PARTS) for s in setups]
    # Import and reference constants are interpreter-bound and are rescaled
    # by the kernel. The projector build is one LAPACK eigh (two BLAS threads
    # at n = 4) whose wall time does not follow the interpreter kernel:
    # rescaling it widened the n = 4 spread over seeds from about 3% to 22%.
    setup_s = statistics.median(
        (s["import_s"] + s["reference_constants_s"]) * CALIBRATION_REF_S / s["calibration_s"]
        + s["project_kahler_first_s"]
        for s in setups
    )

    phases = [full["untraced"]] + ([full["traced"]] if trace else [])
    attempted = sum(sum(p["items"]) for p in phases)
    failed = sum(sum(p["failed"]) for p in phases)
    problems = [problem for p in phases for problem in p["problems"]]
    untraced = full["untraced"]
    rates = [(i - f) / t for i, f, t in zip(untraced["items"], untraced["failed"], untraced["times"])]
    wall = {
        "items_per_s_wall": statistics.median(rates),
        "items_per_s_total": (sum(untraced["items"]) - sum(untraced["failed"]))
        / sum(untraced["times"]),
        "setup_s_wall": statistics.median(setup_wall),
        "calibration_s": statistics.median(full["calibration_s"]),
    }

    if trace:
        metrics = {f"setup.{k}": statistics.median(s[k] for s in setups) for k in (*SETUP_PARTS, "rss_mb")}
        metrics["setup.wall_s"] = wall["setup_s_wall"]
        metrics["setup.project_kahler_first_frac"] = (
            metrics["setup.project_kahler_first_s"] / wall["setup_s_wall"]
        )
        metrics["setup.warmup_s"] = full["warmup_s"]
        metrics["timed.items_per_s_wall"] = wall["items_per_s_wall"]
        metrics["timed.items_per_s_total"] = wall["items_per_s_total"]
        metrics["timed.calibration_s"] = wall["calibration_s"]
        metrics.update(full["layers"])
    else:
        metrics = {
            "items_per_s": statistics.median(
                r * k / CALIBRATION_REF_S for r, k in zip(rates, full["calibration_s"])
            ),
            "setup_s": setup_s,
            "peak_rss_mb": full["peak_rss_mb"],
        }
    units = END_TO_END_UNITS if not trace else {k: _unit(k) for k in metrics}
    return {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "problems": problems,
        "calls": len(untraced["times"]),
        "wall": wall,
        "machine": full["machine"],
    }


def report(name: str, result: dict, out=sys.stdout) -> None:
    attempted, failed = result["attempted"], result["failed"]
    out.write(
        f"== {name}: {attempted} items in {result['calls']} timed calls, {failed} failed, "
        f"correct={result['correct']}\n"
    )
    rows = dict(result["metrics"])
    rows["failed_frac"] = {"value": failed / attempted, "unit": "fraction"}
    for metric, m in rows.items():
        out.write(f"  {metric:42s} {m['value']:<14.6g} {m['unit']}\n")
    out.write(
        "  uncalibrated: {items_per_s_wall:.6g} items/s median per call, {items_per_s_total:.6g} "
        "items/s all-in, set-up {setup_s_wall:.6g} s, calibration kernel {calibration_s:.6g} s "
        "(reference {ref:g} s)\n".format(**result["wall"], ref=CALIBRATION_REF_S)
    )
    counts = [k for k in result["metrics"] if is_count(k)]
    if counts:
        out.write(f"  counts (repeat exactly on one seed; not speed): {', '.join(counts)}\n")
    out.write(f"  machine: {json.dumps(result['machine'], sort_keys=True)}\n")
    for problem in result["problems"]:
        sys.stderr.write(f"{name}: {problem}\n")


def _terminate(signum, frame):
    # SystemExit unwinds subprocess.run, which kills and reaps the worker
    sys.exit(128 + signum)


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _terminate)
    parser = argparse.ArgumentParser(description="kahlerpinch benchmark")
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not SRC_PACKAGE.is_file():
        sys.stderr.write(f"error: kahlerpinch sources not found at {SRC_PACKAGE.parent}\n")
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        deadline = monotonic() + DEADLINE_S  # per workload, also under "all"
        try:
            results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace), deadline)
        except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
            sys.stderr.write(f"error: {name}: {exc}\n")
            return 1
        report(name, results[name])
    summary = {
        name: {k: r[k] for k in ("correct", "attempted", "failed", "metrics")}
        for name, r in results.items()
    }
    line = summary[names[0]] if len(names) == 1 else summary
    sys.stdout.write(json.dumps(line) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
