"""The benchmark workloads: entry-point calls, output checks and snapshots.

Each workload is a closed loop: one caller in one process issues entry-point
calls back to back. Call j of a run gets the seed ``call_seed(seed, j)``;
call 0 gets the run's seed unchanged. One call yields ``items_per_call``
items (sweep records, certification samples, identity-suite commands).

``check`` returns the failure messages of one call's output; a call that
raises fails every item it would have produced. ``snapshot`` gives the
JSON-able output that the default-seed reference and the traced replay are
compared against.

The package is imported only inside the calls, so that importing this module
leaves the set-up timing of a fresh interpreter untouched.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import math
from dataclasses import dataclass
from typing import Callable

# Acceptance criterion 6's t grid; the t = 0 rows exercise the exact-zero path.
SWEEP_N2_T = (0.0, 0.0125, 0.025, 0.05, 0.1)
SWEEP_N2_SAMPLES_PER_T = 2
# One small t > 0: model-tensor (t = 0) forms are sparse and skip the generic
# Chern cost that dominates n = 4.
SWEEP_N4_T = (0.02,)
CERTIFY_EPSILON = "0.1"
IDENTITY_SAMPLES = "50"
SEED_STRIDE = 1_000_003
# On this seed, call 0's output is also compared with reference.json.
DEFAULT_SEED = 1
# Recorded values must match within this share of max(1, |value|); no tighter
# than the optimizer's STABILITY_TOL (1e-8).
REFERENCE_TOL = 1e-7


def call_seed(seed: int, j: int) -> int:
    return seed + SEED_STRIDE * j


def _strict_json(text: str):
    def reject(constant):
        raise ValueError(f"non-finite JSON constant {constant}")

    return json.loads(text, parse_constant=reject)


def _run_cli(argv: list[str]) -> dict:
    import kahlerpinch.cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = kahlerpinch.cli.main(argv)
    if code != 0:
        raise RuntimeError(f"kahlerpinch {' '.join(argv)} exited with {code}")
    return {"stdout": buf.getvalue(), "payload": _strict_json(buf.getvalue())}


def _finite(*values) -> bool:
    return all(isinstance(v, float) and math.isfinite(v) for v in values)


def _record_failure(record) -> str | None:
    if not record.converged:
        return "not converged"
    if record.anomaly:
        return "anomaly"
    values = [record.delta, record.frobenius_dist, record.h_dev, record.ratio_dev_max]
    if not _finite(*values, *record.ratio_devs.values()):
        return "non-finite value"
    if record.t == 0.0 and (record.delta, record.frobenius_dist, record.ratio_dev_max) != (
        0.0,
        0.0,
        0.0,
    ):
        return "t = 0 record is not exactly zero"
    return None


def _check_sweep(records) -> list[str]:
    out = []
    for record in records:
        reason = _record_failure(record)
        if reason:
            out.append(f"record t={record.t} seed={record.seed}: {reason}")
    return out


def _snapshot_sweep(records):
    return [dataclasses.asdict(r) for r in records]


def _check_certify(output) -> list[str]:
    cert = output["payload"]["certification"]
    delta = output["payload"]["delta"]
    if cert["violations"] != 0:
        return [f"{cert['violations']} violations"]
    if not cert["max_defect"] < delta:
        return [f"max_defect {cert['max_defect']} not below delta {delta}"]
    return []


def _check_identities(output) -> list[str]:
    payload = output["payload"]
    problems = []
    if payload["passed"] is not True:
        problems.append("identity suite did not pass")
    if payload["suspected_typo"] is not True:
        problems.append("printed polarization variant not flagged")
    if not abs(payload["fitted_second_coefficient"] + 8.0) < 1e-6:
        problems.append(f"fitted coefficient {payload['fitted_second_coefficient']} != -8")
    return problems


def _snapshot_cli(output):
    return output["payload"]


@dataclass(frozen=True)
class Workload:
    name: str
    n: int
    items_per_call: int
    # calls replayed under the tracer; fixed, so traced counts repeat exactly
    traced_calls: int
    call: Callable[[int], object]
    check: Callable[[object], list]  # failure messages for one call's output
    snapshot: Callable[[object], object]
    # untimed call before the timed phase, on a seed the timed phase never uses
    warm_up: Callable[[], object]
    # fresh interpreters whose set-up time is measured; the median is reported
    setup_samples: int = 5
    # True: one message per failed item; False: any message fails the call
    per_item_check: bool = False

    def failed_items(self, output) -> tuple[int, list[str]]:
        problems = self.check(output)
        if self.per_item_check:
            return len(problems), problems
        return (self.items_per_call if problems else 0), problems


WARM_UP_SEED = -1


def _sweep(*args):
    import kahlerpinch

    return kahlerpinch.sweep(*args)


def _sweep_n2(seed):
    return _sweep(2, list(SWEEP_N2_T), SWEEP_N2_SAMPLES_PER_T, seed)


def _sweep_n4(seed):
    return _sweep(4, list(SWEEP_N4_T), 1, seed)


def _certify_n2(seed):
    argv = ["constants", "--epsilon", CERTIFY_EPSILON, "--n", "2", "--certify", "1"]
    return _run_cli(argv + ["--seed", str(seed)])


def _identities_n3(seed):
    return _run_cli(["identities", "--n", "3", "--samples", IDENTITY_SAMPLES, "--seed", str(seed)])


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="sweep-n2",
            n=2,
            items_per_call=len(SWEEP_N2_T) * SWEEP_N2_SAMPLES_PER_T,
            traced_calls=4,
            call=_sweep_n2,
            check=_check_sweep,
            snapshot=_snapshot_sweep,
            warm_up=lambda: _sweep_n2(WARM_UP_SEED),
            per_item_check=True,
        ),
        Workload(
            name="sweep-n4",
            n=4,
            items_per_call=len(SWEEP_N4_T),
            traced_calls=1,
            call=_sweep_n4,
            check=_check_sweep,
            snapshot=_snapshot_sweep,
            # a model-tensor record walks every code path without the 13 s
            # generic Chern cost
            warm_up=lambda: _sweep(4, [0.0], 1, WARM_UP_SEED),
            setup_samples=3,  # each builds the 4096^2 projector: about 7 s
            per_item_check=True,
        ),
        Workload(
            name="certify-n2",
            n=2,
            items_per_call=1,
            traced_calls=12,
            call=_certify_n2,
            check=_check_certify,
            snapshot=_snapshot_cli,
            warm_up=lambda: _certify_n2(WARM_UP_SEED),
        ),
        Workload(
            name="identities-n3",
            n=3,
            items_per_call=1,
            traced_calls=4,
            call=_identities_n3,
            check=_check_identities,
            snapshot=_snapshot_cli,
            warm_up=lambda: _identities_n3(WARM_UP_SEED),
        ),
    )
}
