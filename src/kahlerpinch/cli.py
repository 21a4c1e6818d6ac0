"""Command-line front end.

Subcommands: r0, validate, pinch, chern, identities, sweep, constants.
JSON (or CSV summaries) go to stdout, diagnostics to stderr. Every sampling
command requires an explicit --seed; reruns with identical flags produce
byte-identical stdout.

Exit codes: 0 success, 1 check failed, 2 usage error, 3 resource limit.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict
from functools import lru_cache

# the work functions of experiments and pinching are looked up on their modules
# at each call, so that a test can replace them
from . import experiments, pinching
from .chern import ChernIndex, _density_tables, chern_ratio, density_ratio
from .curvature import DEFAULT_SYMMETRY_TOL, check_kahler, complex_hyperbolic_tensor, read_tensor, write_tensor
from .errors import (
    DegenerateDenominatorError,
    DegreeError,
    NotNegativelyCurvedError,
    PreconditionError,
    ResourceLimitError,
    TensorFormatError,
)
from .space import make_space

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3

DIMENSION_CAP = 4
# count caps, far above every documented run: a sweep's records, the samples
# of constants --certify and identities --samples, and a multistart's restarts
SAMPLE_CAP = 10_000
RESTART_CAP = 4096
# seeds fold modulo 2^64, so the signed 64-bit range is the widest in which no
# two accepted seeds draw the same stream
SEED_BOUND = 2**63


class UsageError(Exception):
    """A malformed command line or sweep config: exit 2."""


def _emit(payload: dict) -> None:
    """Write payload as strict JSON; a non-finite value raises ResourceLimitError instead."""
    try:
        text = json.dumps(payload, indent=2, allow_nan=False)
    except ValueError as exc:
        raise ResourceLimitError("a result is not finite: the input exceeds double precision") from exc
    sys.stdout.write(text + "\n")


def _check_n(n: int, name: str, low: int = 1) -> None:
    """UsageError for n below low, ResourceLimitError above DIMENSION_CAP."""
    if n < low:
        raise UsageError(f"{name} must be in [{low}, {DIMENSION_CAP}], got {n}")
    if n > DIMENSION_CAP:
        raise ResourceLimitError(f"{name} = {n} exceeds the dimension cap {DIMENSION_CAP}")


def _check_count(name: str, value: int | None, cap: int, low: int = 1) -> None:
    """UsageError for a count below low, ResourceLimitError above cap; None stands for the default."""
    if value is not None and value < low:
        raise UsageError(f"{name} must be >= {low}, got {value}")
    if value is not None and value > cap:
        raise ResourceLimitError(f"{name} = {value} exceeds the cap {cap}")


def _check_positive(name: str, value: float | None) -> None:
    """UsageError unless value is None or positive and finite."""
    if value is not None and not (math.isfinite(value) and value > 0):
        raise UsageError(f"{name} must be a positive finite number, got {value}")


def _check_seed(name: str, seed: int | None) -> None:
    """UsageError unless seed is None or in [-2^63, 2^63)."""
    if seed is not None and not -SEED_BOUND <= seed < SEED_BOUND:
        raise UsageError(f"{name} must be in [-2^63, 2^63), got {seed}")


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _finite_float(value) -> float | None:
    """value as a finite float; None for non-numbers (bools included) and overflows."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    try:
        value = float(value)
    except OverflowError:
        return None
    return value if math.isfinite(value) else None


def _load_tensor(path: str, tol: float | None = None):
    """The file's tensor, its certificate at tol (default: the file's tolerance) and tol."""
    tensor, file_tol = read_tensor(path)
    _check_n(tensor.space.n, "tensor n")  # the file format already requires n >= 1
    tol = file_tol if tol is None else tol
    return tensor, check_kahler(tensor, tol), tol


def _load_kahler(path: str):
    """The file's tensor, certified Kahler at the file's tolerance."""
    tensor, certificate, tol = _load_tensor(path)
    if not math.isfinite(certificate.max_residual):
        raise ResourceLimitError("a symmetry residual is not finite: the input exceeds double precision")
    if not certificate.passed:
        raise PreconditionError(
            f"tensor is not Kahler at its file's tolerance {tol:g} "
            f"(max residual {certificate.max_residual:.3e})"
        )
    return tensor


def cmd_r0(args) -> int:
    _check_n(args.n, "--n")
    _check_positive("--tol", args.tol)
    tensor = complex_hyperbolic_tensor(make_space(args.n))
    write_tensor(args.out, tensor, args.tol)
    _emit(
        {
            "command": "r0",
            "n": args.n,
            "out": args.out,
            "frobenius_norm": tensor.frobenius_norm(),
            "max_symmetry_residual": tensor.certificate.max_residual,
        }
    )
    return EXIT_OK


def cmd_validate(args) -> int:
    _check_positive("--tol", args.tol)
    tensor, certificate, tol = _load_tensor(args.path, args.tol)
    _emit(
        {
            "command": "validate",
            "path": args.path,
            "n": tensor.space.n,
            "residuals": {
                "antisymmetry": certificate.antisymmetry,
                "pair_exchange": certificate.pair_exchange,
                "bianchi": certificate.bianchi,
                "j_invariance": certificate.j_invariance,
            },
            "tolerance": tol,
            "passed": certificate.passed,
        }
    )
    return EXIT_OK if certificate.passed else EXIT_CHECK_FAILED


def cmd_pinch(args) -> int:
    _check_count("--restarts", args.restarts, RESTART_CAP)
    _check_seed("--seed", args.seed)
    tensor = _load_kahler(args.path)
    report = pinching.pinch(tensor, restarts=args.restarts, seed=args.seed)
    _emit(
        {
            "command": "pinch",
            "path": args.path,
            "n": tensor.space.n,
            "k_min": report.k_min,
            "k_max": report.k_max,
            "envelope_lo": report.envelope_lo,
            "envelope_hi": report.envelope_hi,
            "argmin_plane": {
                "u": list(report.argmin_plane.u),
                "v": list(report.argmin_plane.v),
            },
            "argmax_plane": {
                "u": list(report.argmax_plane.u),
                "v": list(report.argmax_plane.v),
            },
            "restarts": report.restarts,
            "converged": report.converged,
            "seed": args.seed,
        }
    )
    return EXIT_OK


def _parse_index(text: str, n: int):
    parts = text.split(",")
    if len(parts) != n:
        raise DegreeError(f"index {text!r} must have {n} comma-separated entries")
    try:
        values = tuple(int(p) for p in parts)
    except ValueError as exc:
        raise DegreeError(f"index {text!r} is not integer-valued") from exc
    return ChernIndex(values)


def cmd_chern(args) -> int:
    tensor = _load_kahler(args.path)
    n = tensor.space.n
    payload = {"command": "chern", "path": args.path, "n": n}
    if args.all:
        densities, unit = _density_tables(tensor)
        payload["densities"] = {str(i): gamma for i, gamma in densities.items()}
        # read at unit scale, as chern_ratio does: 2^k R has the ratios of R bit for bit
        payload["ratios"] = {f"{a}:{b}": density_ratio(unit, a, b) for a in unit for b in unit if a != b}
    else:
        left, sep, right = args.ratio.partition(":")
        if not sep:
            raise UsageError(f"--ratio must look like a_1,..,a_n:b_1,..,b_n, got {args.ratio!r}")
        index_i, index_j = _parse_index(left, n), _parse_index(right, n)
        payload["ratios"] = {f"{index_i}:{index_j}": chern_ratio(tensor, index_i, index_j)}
    _emit(payload)
    return EXIT_OK


def cmd_identities(args) -> int:
    _check_n(args.n, "--n", low=2)
    _check_positive("--tol", args.tol)
    _check_count("--samples", args.samples, SAMPLE_CAP)
    _check_seed("--seed", args.seed)

    results = experiments.identity_suite(args.n, args.samples, args.seed)
    core_keys = (
        "identity_one",
        "solve_vs_direct",
        "polarization_first",
        "polarization_second",
        "reconstruction_roundtrip",
        "berger_max_violation",
        "berger_attainment_gap",
    )
    passed = all(results[k] <= args.tol for k in core_keys)
    _emit(
        {
            "command": "identities",
            "n": args.n,
            "samples": args.samples,
            "seed": args.seed,
            "tolerance": args.tol,
            "residuals": {k: results[k] for k in core_keys},
            "polarization_second_printed": results["polarization_second_printed"],
            "suspected_typo": results["suspected_typo"],
            "fitted_second_coefficient": results["fitted_second_coefficient"],
            "passed": passed,
        }
    )
    return EXIT_OK if passed else EXIT_CHECK_FAILED


def cmd_sweep(args) -> int:
    try:
        with open(args.config, "r", encoding="ascii") as fh:
            config = json.load(fh)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise UsageError(f"cannot read sweep config: {exc}") from exc
    if not isinstance(config, dict):
        raise UsageError("sweep config must be a JSON object")
    for field in ("n", "t_values", "samples_per_t", "seed"):
        if field not in config:
            raise UsageError(f"sweep config missing field {field!r}")
    for field in ("n", "samples_per_t", "seed", "restarts"):
        value = config.get(field)
        if (field != "restarts" or value is not None) and not _is_int(value):
            raise UsageError(f"sweep config field {field!r} must be an integer, got {value!r}")
    raw_t = config["t_values"]
    t_values = [_finite_float(t) for t in raw_t] if isinstance(raw_t, list) else []
    if not t_values or None in t_values:
        raise UsageError(
            f"sweep config field 't_values' must be a non-empty list of finite numbers, got {raw_t!r}"
        )
    _check_n(config["n"], "config n")
    _check_seed("config seed", config["seed"])
    _check_count(
        "sweep records (samples_per_t x t_values)", config["samples_per_t"] * len(t_values), SAMPLE_CAP
    )
    _check_count("config restarts", config.get("restarts"), RESTART_CAP)

    # opened before the sweep, as shell redirection would, so an unwritable
    # path fails before any record is computed
    with open(args.out, "w", encoding="ascii") as fh:
        try:
            records = experiments.sweep(
                config["n"], t_values, config["samples_per_t"], config["seed"], restarts=config.get("restarts")
            )
        except PreconditionError as exc:
            raise UsageError(f"bad sweep config: {exc}") from exc
        fh.write(experiments.emit_csv(records))
    _emit(
        {
            "command": "sweep",
            "config": args.config,
            "out": args.out,
            "records": len(records),
            "excluded": sum(1 for r in records if not r.converged),
            "aggregates": experiments.aggregate_by_t(records),
        }
    )
    return EXIT_OK


def cmd_constants(args) -> int:
    _check_positive("--epsilon", args.epsilon)
    _check_n(args.n, "--n", low=2)
    _check_count("--certify", args.certify, SAMPLE_CAP, low=0)
    _check_seed("--seed", args.seed)
    if args.certify and args.seed is None:
        raise UsageError("--certify requires --seed")

    chain = experiments.proof_constants(args.epsilon, args.n)
    payload = {"command": "constants", **asdict(chain)}
    exit_code = EXIT_OK
    if args.certify:
        report = experiments.certify_constants(chain, args.certify, args.seed)
        payload["certification"] = {**asdict(report), "seed": args.seed}
        if report.violations:
            exit_code = EXIT_CHECK_FAILED
    _emit(payload)
    return exit_code


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kahlerpinch",
        description="Pinched Kahler curvature tensors and Chern-form densities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("r0", help="write the complex hyperbolic model tensor to a file")
    p.add_argument("--n", type=int, required=True, help=f"complex dimension (1..{DIMENSION_CAP})")
    p.add_argument("--out", required=True, help="output tensor file")
    p.add_argument("--tol", type=float, default=DEFAULT_SYMMETRY_TOL, help="symmetry tolerance stored in the file")
    p.set_defaults(func=cmd_r0)

    p = sub.add_parser("validate", help="certify the Kahler symmetries of a tensor file")
    p.add_argument("path", help="tensor file")
    p.add_argument("--tol", type=float, default=None, help="override the file's tolerance")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("pinch", help="sectional-curvature extremes: exact at n = 2, multistart estimates otherwise")
    p.add_argument("path", help="tensor file")
    p.add_argument(
        "--restarts",
        type=int,
        default=None,
        help=f"multistart count, run as given (default: exact extremes at n = 2, reported as 0 restarts; "
        f"{pinching.DEFAULT_RESTARTS} at other n, rerun once at "
        f"{pinching.ESCALATION * pinching.DEFAULT_RESTARTS} if not converged)",
    )
    p.add_argument("--seed", type=int, required=True, help="seed for restart initialization")
    p.set_defaults(func=cmd_pinch)

    p = sub.add_parser("chern", help="Chern-form densities and ratios")
    p.add_argument("path", help="tensor file")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--ratio", help="index pair a_1,..,a_n:b_1,..,b_n")
    group.add_argument("--all", action="store_true", help="all densities and pairwise ratios")
    p.set_defaults(func=cmd_chern)

    p = sub.add_parser("identities", help="verify the algebraic identity suite")
    p.add_argument("--n", type=int, default=2, help=f"complex dimension (2..{DIMENSION_CAP})")
    p.add_argument("--samples", type=int, default=50, help="sampled configurations")
    p.add_argument("--seed", type=int, required=True, help="sampling seed")
    p.add_argument("--tol", type=float, default=DEFAULT_SYMMETRY_TOL, help="pass/fail residual tolerance")
    p.set_defaults(func=cmd_identities)

    p = sub.add_parser("sweep", help="perturbation sweep to CSV")
    p.add_argument("--config", required=True, help="JSON config: n, t_values, samples_per_t, seed[, restarts]")
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("constants", help="explicit constant chain (and optional certification)")
    p.add_argument("--epsilon", type=float, required=True, help="target ratio deviation")
    p.add_argument("--n", type=int, required=True, help=f"complex dimension (2..{DIMENSION_CAP})")
    p.add_argument("--certify", type=int, default=0, help="number of certification samples")
    p.add_argument("--seed", type=int, default=None, help="seed (required with --certify)")
    p.set_defaults(func=cmd_constants)

    return parser


@lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    """build_parser's parser, built once per process: parse_args leaves it unchanged."""
    return build_parser()


# the exit code and message prefix of each error type a command may raise,
# looked up in this order (ResourceLimitError is a RuntimeError)
EXIT_CODES = {
    OSError: (EXIT_USAGE, "cannot access file: "),
    TensorFormatError: (EXIT_USAGE, "malformed tensor file: "),
    UsageError: (EXIT_USAGE, ""),
    DegreeError: (EXIT_USAGE, ""),
    ResourceLimitError: (EXIT_RESOURCE, ""),
    DegenerateDenominatorError: (EXIT_CHECK_FAILED, ""),
    NotNegativelyCurvedError: (EXIT_CHECK_FAILED, ""),
    PreconditionError: (EXIT_CHECK_FAILED, ""),
    RuntimeError: (EXIT_CHECK_FAILED, ""),
}


def main(argv=None) -> int:
    """Run one command; an error of a type in EXIT_CODES ends it with one stderr line and its code."""
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except tuple(EXIT_CODES) as exc:
        code, prefix = next(value for kind, value in EXIT_CODES.items() if isinstance(exc, kind))
        sys.stderr.write(f"error: {prefix}{exc}\n")
        return code


if __name__ == "__main__":
    sys.exit(main())
