import dataclasses
import json
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from kahlerpinch.cli import RESTART_CAP, SAMPLE_CAP, build_parser

README = Path(__file__).resolve().parent.parent / "README.md"


def run_cli(*args, cwd=None):
    """Run the CLI; a Python warning on its stderr fails the test (errors are one-line messages)."""
    result = subprocess.run(
        [sys.executable, "-m", "kahlerpinch", *args],
        capture_output=True,
        cwd=cwd,
    )
    assert not re.search(rb":\d+: \w*Warning: ", result.stderr), result.stderr.decode(errors="replace")
    return result


@pytest.fixture(scope="module")
def model_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "r0_n2.json"
    result = run_cli("r0", "--n", "2", "--out", str(path))
    assert result.returncode == 0
    return path


def _readme_command_lines():
    section = README.read_text(encoding="utf-8").split("## Command line", 1)[1]
    block = section.split("```", 2)[1]
    return [line for line in block.splitlines() if line.startswith("kahlerpinch ")]


def test_readme_command_lines_parse():
    lines = _readme_command_lines()
    assert len(lines) >= 7
    parser = build_parser()
    for line in lines:
        try:
            parser.parse_args(shlex.split(line)[1:])
        except SystemExit as exc:
            pytest.fail(f"README example {line!r} does not parse (exit {exc.code})")


def test_help_and_tolerance_defaults_follow_their_constants(monkeypatch, capsys):
    # the --n ranges name DIMENSION_CAP and the --tol defaults are DEFAULT_SYMMETRY_TOL,
    # read when the parser is built
    from kahlerpinch import cli

    monkeypatch.setenv("COLUMNS", "200")
    monkeypatch.setattr(cli, "DIMENSION_CAP", 6)
    monkeypatch.setattr(cli, "DEFAULT_SYMMETRY_TOL", 1e-7)
    parser = cli.build_parser()
    helps = {}
    for command in ("r0", "identities", "constants"):
        with pytest.raises(SystemExit):
            parser.parse_args([command, "--help"])
        helps[command] = capsys.readouterr().out
    assert "complex dimension (1..6)" in helps["r0"]
    assert all("complex dimension (2..6)" in helps[command] for command in ("identities", "constants"))
    assert parser.parse_args(["r0", "--n", "2", "--out", "x.json"]).tol == 1e-7
    assert parser.parse_args(["identities", "--seed", "1"]).tol == 1e-7


def test_space_form_rounding_covers_the_dimension_cap():
    # pinching takes mu <= d^2 eps |s0|, d = 2n, as a space form up to rounding: the rule
    # holds for the rounding-level tensors of every n the CLI accepts and beyond it, and
    # such a tensor reports the closed form of s0 R0 exactly
    from kahlerpinch import complex_hyperbolic_tensor, make_space, perturb, pinch, project_kahler
    from kahlerpinch.cli import DIMENSION_CAP
    from kahlerpinch.pinching import EPS, _stacked_model_coordinates

    for n in range(1, max(6, DIMENSION_CAP) + 1):
        space = make_space(n)
        model = complex_hyperbolic_tensor(space)
        for tensor in (project_kahler(model.entries / 3.0, space), perturb(space, 1e-16, n)):
            (s0,), (mu,) = _stacked_model_coordinates(tensor.entries[None])
            assert mu <= space.dim**2 * EPS * abs(s0) / 2.0, (n, mu / (EPS * abs(s0)))
            report = pinch(tensor)
            assert (report.k_min, report.k_max) == (-s0, -s0 if n == 1 else -s0 / 4.0)


def test_r0_writes_valid_file(model_file):
    result = run_cli("validate", str(model_file))
    assert result.returncode == 0
    payload = json.loads(result.stdout)
    assert payload["passed"] is True
    assert all(v == 0.0 for v in payload["residuals"].values())


def test_r0_rejects_bad_dimension(tmp_path):
    assert run_cli("r0", "--n", "0", "--out", str(tmp_path / "x.json")).returncode == 2
    assert run_cli("r0", "--n", "5", "--out", str(tmp_path / "x.json")).returncode == 3


ABOVE_CAP_INVOCATIONS = [
    ("r0", "--n", "5", "--out", "{dir}/x.json"),
    ("validate", "{file}"),
    ("pinch", "{file}", "--seed", "1"),
    ("chern", "{file}", "--all"),
    ("identities", "--n", "5", "--seed", "1"),
    ("sweep", "--config", "{config}", "--out", "{dir}/o.csv"),
    ("constants", "--epsilon", "0.1", "--n", "5"),
]


@pytest.fixture(scope="module")
def above_cap_dir(tmp_path_factory):
    from kahlerpinch import CurvatureTensor, make_space, write_tensor

    import numpy as np

    path = tmp_path_factory.mktemp("above_cap")
    write_tensor(path / "zero_n5.json", CurvatureTensor(make_space(5), np.zeros((10,) * 4)))
    config = {"n": 5, "t_values": [0.0], "samples_per_t": 1, "seed": 4}
    (path / "sweep_n5.json").write_text(json.dumps(config))
    return path


@pytest.mark.parametrize("args", ABOVE_CAP_INVOCATIONS, ids=lambda a: a[0])
def test_commands_reject_n_above_cap(above_cap_dir, args):
    fields = {
        "dir": above_cap_dir,
        "file": above_cap_dir / "zero_n5.json",
        "config": above_cap_dir / "sweep_n5.json",
    }
    result = run_cli(*(a.format(**fields) for a in args))
    assert result.returncode == 3
    assert result.stdout == b""
    assert len(result.stderr.decode().strip().splitlines()) == 1


ABOVE_COUNT_CAP_INVOCATIONS = {
    "sweep-records": ("sweep", "--config", "{dir}/records.json", "--out", "{dir}/o.csv"),
    "sweep-restarts": ("sweep", "--config", "{dir}/restarts.json", "--out", "{dir}/o.csv"),
    "constants-certify": (
        "constants", "--epsilon", "0.1", "--n", "2", "--certify", f"{SAMPLE_CAP + 1}", "--seed", "1"
    ),
    "pinch-restarts": ("pinch", "{file}", "--seed", "1", "--restarts", f"{RESTART_CAP + 1}"),
    "identities-samples": ("identities", "--n", "2", "--samples", f"{SAMPLE_CAP + 1}", "--seed", "1"),
}


@pytest.mark.parametrize("name", sorted(ABOVE_COUNT_CAP_INVOCATIONS))
def test_commands_reject_counts_above_cap(model_file, tmp_path, monkeypatch, capsys, name):
    # a count above its cap exits 3 with one line on stderr before any work
    import kahlerpinch.experiments
    import kahlerpinch.pinching
    from kahlerpinch import cli

    def never(*args, **kwargs):
        pytest.fail("work started before the count was checked")

    for function in ("sweep", "certify_constants", "identity_suite"):
        monkeypatch.setattr(kahlerpinch.experiments, function, never)
    monkeypatch.setattr(kahlerpinch.pinching, "pinch", never)
    base = {"n": 2, "t_values": [0.0, 0.1], "samples_per_t": 1, "seed": 4}
    # each count alone is within the cap; their product, the record count, is not
    records = {**base, "samples_per_t": SAMPLE_CAP // 2 + 1}
    (tmp_path / "records.json").write_text(json.dumps(records))
    (tmp_path / "restarts.json").write_text(json.dumps({**base, "restarts": RESTART_CAP + 1}))
    args = [a.format(dir=tmp_path, file=model_file) for a in ABOVE_COUNT_CAP_INVOCATIONS[name]]
    assert cli.main(args) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert not (tmp_path / "o.csv").exists()


@pytest.mark.parametrize("command", ["r0", "validate", "identities"])
@pytest.mark.parametrize("value", ["nan", "inf", "-1", "0"])
def test_rejects_bad_tol(model_file, tmp_path, command, value):
    args = {
        "r0": ("r0", "--n", "2", "--out", str(tmp_path / "x.json")),
        "validate": ("validate", str(model_file)),
        "identities": ("identities", "--n", "2", "--samples", "5", "--seed", "1"),
    }[command]
    result = run_cli(*args, f"--tol={value}")
    assert result.returncode == 2
    assert result.stdout == b""
    assert len(result.stderr.decode().strip().splitlines()) == 1
    assert not (tmp_path / "x.json").exists()


UNREADABLE_INVOCATIONS = {
    "validate-dir": ("validate", "{dir}"),
    "pinch-dir": ("pinch", "{dir}", "--seed", "1"),
    "chern-dir": ("chern", "{dir}", "--all"),
    "r0-out-dir": ("r0", "--n", "2", "--out", "{dir}"),
    "validate-non-ascii": ("validate", "{non_ascii_tensor}"),
    "pinch-non-ascii": ("pinch", "{non_ascii_tensor}", "--seed", "1"),
    "sweep-non-ascii-config": ("sweep", "--config", "{non_ascii_config}", "--out", "{dir}/o.csv"),
}


@pytest.mark.parametrize(
    "args", UNREADABLE_INVOCATIONS.values(), ids=UNREADABLE_INVOCATIONS.keys()
)
def test_unreadable_paths_are_usage_errors(model_file, tmp_path, args):
    # a directory where a file is expected, or a file with one non-ASCII byte
    tensor = tmp_path / "non_ascii.json"
    tensor.write_bytes(model_file.read_bytes().replace(b"row-major", b"row-major\xe9", 1))
    config = tmp_path / "non_ascii_config.json"
    config.write_bytes(b'{"n": 2, "t_values": [0.0], "samples_per_t": 1, "seed": 4, "note": "\xe9"}')
    fields = {"dir": tmp_path, "non_ascii_tensor": tensor, "non_ascii_config": config}
    result = run_cli(*(a.format(**fields) for a in args))
    assert result.returncode == 2
    assert result.stdout == b""
    assert len(result.stderr.decode().strip().splitlines()) == 1


def test_r0_roundtrip_exact(model_file, tmp_path):
    from kahlerpinch import complex_hyperbolic_tensor, make_space, read_tensor

    import numpy as np

    tensor, tol = read_tensor(model_file)
    assert np.array_equal(tensor.entries, complex_hyperbolic_tensor(make_space(2)).entries)


def test_validate_flags_non_kahler(tmp_path):
    from kahlerpinch import CurvatureTensor, make_space, write_tensor

    import numpy as np

    entries = np.zeros((4, 4, 4, 4))
    entries[0, 1, 2, 3] = 1.0
    path = tmp_path / "bad_tensor.json"
    write_tensor(path, CurvatureTensor(make_space(2), entries))
    result = run_cli("validate", str(path))
    assert result.returncode == 1
    payload = json.loads(result.stdout)
    assert payload["passed"] is False
    assert payload["residuals"]["antisymmetry"] == pytest.approx(1.0)


def test_validate_malformed_file(tmp_path):
    path = tmp_path / "truncated.json"
    path.write_text('{"format_version": 1, "n": 2')
    assert run_cli("validate", str(path)).returncode == 2


def test_validate_rejects_nested_entries(model_file, tmp_path):
    obj = json.loads(model_file.read_text())
    obj["entries"] = [[e] for e in obj["entries"]]
    path = tmp_path / "nested.json"
    path.write_text(json.dumps(obj))
    result = run_cli("validate", str(path))
    assert result.returncode == 2
    assert result.stdout == b""
    assert len(result.stderr.decode().strip().splitlines()) == 1


def test_pinch_model(model_file):
    result = run_cli("pinch", str(model_file), "--seed", "3", "--restarts", "32")
    assert result.returncode == 0
    payload = json.loads(result.stdout)
    assert payload["k_min"] == pytest.approx(-1.0, abs=1e-6)
    assert payload["k_max"] == pytest.approx(-0.25, abs=1e-6)
    assert payload["converged"] is True


def test_pinch_restarts_at_n2(model_file, tmp_path):
    # at n = 2 the default is exact and runs no restarts; --restarts runs the multistart
    from kahlerpinch import make_space, write_tensor
    from kahlerpinch.experiments import perturb

    path = tmp_path / "near.json"
    write_tensor(path, perturb(make_space(2), 0.05, seed=3))
    exact = json.loads(run_cli("pinch", str(path), "--seed", "1").stdout)
    multistart = json.loads(run_cli("pinch", str(path), "--seed", "1", "--restarts", "8").stdout)
    assert (exact["restarts"], multistart["restarts"]) == (0, 8)
    assert exact["converged"] and multistart["converged"]
    assert multistart["k_min"] == pytest.approx(exact["k_min"], rel=1e-10)
    assert multistart["k_max"] == pytest.approx(exact["k_max"], rel=1e-10)


def test_pinch_missing_file():
    assert run_cli("pinch", "no_such_file.json", "--seed", "1").returncode == 2


def test_pinch_zero_tensor(tmp_path):
    from kahlerpinch import CurvatureTensor, make_space, write_tensor

    import numpy as np

    path = tmp_path / "zero.json"
    write_tensor(path, CurvatureTensor(make_space(2), np.zeros((4, 4, 4, 4))))
    result = run_cli("pinch", str(path), "--seed", "1", "--restarts", "8")
    assert result.returncode == 0
    payload = json.loads(result.stdout)
    assert payload["k_min"] == 0.0 and payload["k_max"] == 0.0


def test_pinch_huge_scale_model(tmp_path):
    # 2^1000 R0: the model coordinates neither overflow nor leave the unit-scale
    # thresholds, so the extremes are 2^1000 times R0's
    from kahlerpinch import complex_hyperbolic_tensor, make_space, write_tensor

    path = tmp_path / "huge.json"
    write_tensor(path, complex_hyperbolic_tensor(make_space(2)).scaled(2.0**1000))
    result = run_cli("pinch", str(path), "--seed", "1")
    assert result.returncode == 0
    assert result.stderr == b""
    payload = json.loads(result.stdout)
    assert payload["k_min"] == -(2.0**1000) and payload["k_max"] == -(2.0**998)
    assert payload["converged"] is True


def test_chern_ratio_model(model_file):
    result = run_cli("chern", str(model_file), "--ratio", "2,0:0,1")
    assert result.returncode == 0
    payload = json.loads(result.stdout)
    assert payload["ratios"]["2,0:0,1"] == pytest.approx(3.0, abs=1e-8)


def test_chern_all(model_file):
    result = run_cli("chern", str(model_file), "--all")
    assert result.returncode == 0
    payload = json.loads(result.stdout)
    assert set(payload["densities"]) == {"2,0", "0,1"}
    assert payload["ratios"]["2,0:0,1"] == pytest.approx(3.0, abs=1e-8)


def test_chern_malformed_index(model_file):
    assert run_cli("chern", str(model_file), "--ratio", "2,0").returncode == 2
    assert run_cli("chern", str(model_file), "--ratio", "2,0:0,x").returncode == 2
    assert run_cli("chern", str(model_file), "--ratio", "1,1:0,1").returncode == 2


def test_chern_degenerate_denominator_is_check_failure(tmp_path):
    from kahlerpinch import CurvatureTensor, make_space, write_tensor

    import numpy as np

    path = tmp_path / "zero.json"
    write_tensor(path, CurvatureTensor(make_space(2), np.zeros((4, 4, 4, 4))))
    result = run_cli("chern", str(path), "--ratio", "2,0:0,1")
    assert result.returncode == 1


def test_chern_imaginary_residue_is_check_failure(tmp_path):
    # certified at the file's 1e-9 (max residual 1.5e-10), but c_1 keeps an
    # imaginary residue of 2.8e-12, above the reality threshold
    from kahlerpinch import CurvatureTensor, complex_hyperbolic_tensor, make_space, write_tensor
    from kahlerpinch import seeded_rng

    space = make_space(2)
    entries = complex_hyperbolic_tensor(space).entries
    entries = entries + 3e-11 * seeded_rng(1).standard_normal(entries.shape)
    path = tmp_path / "off_kahler.json"
    write_tensor(path, CurvatureTensor(space, entries))
    result = run_cli("chern", str(path), "--all")
    assert result.returncode == 1
    assert result.stdout == b""
    stderr = result.stderr.decode().strip().splitlines()
    assert len(stderr) == 1 and "imaginary residue" in stderr[0]
    assert b"Traceback" not in result.stderr


def _bianchi_defect_file(path, tol):
    # the model tensor plus 1e-7 omega (x) omega: a Bianchi residual of 1e-7,
    # every other symmetry exact, and real Chern forms
    from kahlerpinch import CurvatureTensor, complex_hyperbolic_tensor, make_space, write_tensor

    import numpy as np

    space = make_space(2)
    j = space.j_matrix
    entries = complex_hyperbolic_tensor(space).entries + 1e-7 * np.einsum("ij,kl->ijkl", j, j)
    write_tensor(path, CurvatureTensor(space, entries), tol)
    return path


def _strict_json(data: bytes):
    def reject(constant):
        raise ValueError(f"non-finite JSON constant {constant}")

    return json.loads(data, parse_constant=reject)


def test_tensor_commands_certify_at_the_file_tolerance(tmp_path):
    loose = _bianchi_defect_file(tmp_path / "loose.json", 1e-6)
    assert run_cli("validate", str(loose)).returncode == 0
    assert run_cli("pinch", str(loose), "--seed", "1", "--restarts", "8").returncode == 0
    for args in (["--all"], ["--ratio", "2,0:0,1"]):
        result = run_cli("chern", str(loose), *args)
        assert result.returncode == 0, result.stderr.decode()
        payload = _strict_json(result.stdout)
        assert payload["ratios"]["2,0:0,1"] == pytest.approx(3.0, rel=1e-5)
    strict = _bianchi_defect_file(tmp_path / "strict.json", 1e-9)
    assert run_cli("validate", str(strict)).returncode == 1
    for args in (["--all"], ["--ratio", "2,0:0,1"]):
        result = run_cli("chern", str(strict), *args)
        assert result.returncode == 1
        assert result.stdout == b""
        assert len(result.stderr.decode().strip().splitlines()) == 1


def test_identities_rejects_bad_samples():
    result = run_cli("identities", "--n", "2", "--samples", "0", "--seed", "5")
    assert result.returncode == 2
    assert result.stdout == b""


def test_identities_default_passes(tmp_path):
    result = run_cli("identities", "--n", "2", "--samples", "20", "--seed", "5")
    assert result.returncode == 0
    payload = json.loads(result.stdout)
    assert payload["passed"] is True
    assert payload["suspected_typo"] is True
    assert payload["fitted_second_coefficient"] == pytest.approx(-8.0, abs=1e-5)
    assert all(v <= 1e-9 for v in payload["residuals"].values())


def test_sweep_roundtrip(tmp_path):
    config = tmp_path / "sweep.json"
    config.write_text(
        json.dumps({"n": 2, "t_values": [0.0, 0.05], "samples_per_t": 2, "seed": 4, "restarts": 16})
    )
    out = tmp_path / "sweep.csv"
    result = run_cli("sweep", "--config", str(config), "--out", str(out))
    assert result.returncode == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "t,seed,delta,frobenius_dist,h_dev,ratio_dev_max,converged"
    assert len(lines) == 5
    zero_rows = [ln for ln in lines[1:] if ln.startswith("0,")]
    assert len(zero_rows) == 2
    for row in zero_rows:
        fields = row.split(",")
        assert fields[2:] == ["0", "0", "0", "0", "true"]


def test_sweep_stdout_has_no_nan(tmp_path, monkeypatch, capsys):
    # a t whose only record failed to converge has no aggregate maxima
    import kahlerpinch.experiments
    from kahlerpinch import cli
    from kahlerpinch.experiments import SweepRecord

    record = SweepRecord(
        n=2, t=0.0, seed=4, delta=0.5, frobenius_dist=0.25, h_dev=0.125,
        ratio_devs={}, ratio_dev_max=0.0625, converged=False, anomaly=False,
    )
    monkeypatch.setattr(kahlerpinch.experiments, "sweep", lambda *args, **kwargs: [record])
    config = tmp_path / "sweep.json"
    config.write_text(json.dumps({"n": 2, "t_values": [0.0], "samples_per_t": 1, "seed": 4}))
    assert cli.main(["sweep", "--config", str(config), "--out", str(tmp_path / "o.csv")]) == 0

    def reject(constant):
        raise ValueError(f"non-JSON constant {constant}")

    payload = json.loads(capsys.readouterr().out, parse_constant=reject)
    assert payload["excluded"] == 1
    aggregate = payload["aggregates"][0]
    for field in ("max_delta", "max_frobenius_dist", "max_h_dev", "max_ratio_dev"):
        assert aggregate[field] is None, field


@pytest.mark.parametrize("out", ["directory", "missing/o.csv"])
def test_sweep_rejects_unwritable_out_before_running(tmp_path, monkeypatch, capsys, out):
    import kahlerpinch.experiments
    from kahlerpinch import cli

    def sweep(*args, **kwargs):
        pytest.fail("the sweep ran before --out was opened")

    monkeypatch.setattr(kahlerpinch.experiments, "sweep", sweep)
    (tmp_path / "directory").mkdir()
    config = tmp_path / "sweep.json"
    config.write_text(json.dumps({"n": 2, "t_values": [0.0], "samples_per_t": 1, "seed": 4}))
    assert cli.main(["sweep", "--config", str(config), "--out", str(tmp_path / out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1


@pytest.mark.parametrize("command", ["validate", "pinch", "chern"])
def test_overflowing_results_exit_3_without_stdout(tmp_path, command):
    # a symmetry residual of entries near the double range overflows to inf,
    # which strict JSON cannot carry
    obj = json.loads(_model_text(1))
    obj["entries"][0] = 6e307
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(obj))
    extra = {"validate": [], "pinch": ["--seed", "1"], "chern": ["--all"]}[command]
    result = run_cli(command, str(path), *extra)
    assert result.returncode == 3
    assert result.stdout == b""
    assert len(result.stderr.decode().strip().splitlines()) == 1


def test_sweep_with_overflowing_perturbation_is_usage_error(tmp_path):
    # t * direction overflows the Kahler projection at n = 1: one line, exit 2
    config = tmp_path / "huge_t.json"
    config.write_text(json.dumps({"n": 1, "t_values": [1e308], "samples_per_t": 1, "seed": 0, "restarts": 1}))
    code, out, err = _run_in_process(["sweep", "--config", str(config), "--out", str(tmp_path / "o.csv")])
    assert code == 2
    assert out == ""
    assert "overflows" in err and len(err.strip().splitlines()) == 1


def test_main_builds_its_parser_once(model_file, capsys):
    from kahlerpinch import cli

    assert cli._parser() is cli._parser()
    assert cli.build_parser() is not cli.build_parser()
    assert cli.main(["validate", str(model_file)]) == 0
    assert json.loads(capsys.readouterr().out)["passed"] is True


def test_sweep_missing_config_field(tmp_path):
    config = tmp_path / "bad.json"
    config.write_text(json.dumps({"n": 2}))
    assert run_cli("sweep", "--config", str(config), "--out", str(tmp_path / "o.csv")).returncode == 2


BAD_SWEEP_CONFIGS = [
    {"n": "abc"},
    {"n": True},
    {"n": 2.0},
    {"samples_per_t": "x"},
    {"samples_per_t": 1.5},
    {"seed": None},
    {"seed": False},
    {"restarts": "many"},
    {"restarts": True},
    {"t_values": 5},
    {"t_values": []},
    {"t_values": ["0.1"]},
    {"t_values": [0.0, True]},
    {"t_values": [float("nan")]},
    {"t_values": [10**400]},
]


@pytest.mark.parametrize("override", BAD_SWEEP_CONFIGS, ids=lambda o: repr(o)[:32])
def test_sweep_rejects_mistyped_config(tmp_path, override):
    config = {"n": 2, "t_values": [0.0], "samples_per_t": 1, "seed": 4, "restarts": 4}
    config.update(override)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(config))
    result = run_cli("sweep", "--config", str(path), "--out", str(tmp_path / "o.csv"))
    assert result.returncode == 2
    assert result.stdout == b""
    assert len(result.stderr.decode().strip().splitlines()) == 1


def test_constants_chain(tmp_path):
    result = run_cli("constants", "--epsilon", "0.1", "--n", "2")
    assert result.returncode == 0
    payload = json.loads(result.stdout)
    assert payload["delta"] > 0
    assert payload["delta_1"] == payload["eta"] / 4.0
    assert payload["delta"] == min(payload["eta"] / 3.0, payload["delta_1"])


def test_constants_payload_keys_are_pinned():
    # perfbench/reference.json compares these keys exactly, so the report keeps
    # its retries field, which is always 0
    chain = {"command", "n", "epsilon", "eta", "delta_1", "delta", "epsilon_1"}
    code, out, _ = _run_in_process(["constants", "--epsilon", "0.1", "--n", "2"])
    assert code == 0
    assert set(json.loads(out)) == chain
    code, out, _ = _run_in_process(["constants", "--epsilon", "0.1", "--n", "2", "--certify", "1", "--seed", "1"])
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == chain | {"certification"}
    certification = {"samples", "violations", "max_ratio_dev", "max_defect", "retries", "seed"}
    assert set(payload["certification"]) == certification
    assert payload["certification"]["retries"] == 0


@pytest.mark.parametrize("failure", ["unconverged", "never below delta"])
def test_constants_certification_failure_exits_1(monkeypatch, failure):
    import kahlerpinch.experiments
    import kahlerpinch.pinching

    n = "2"
    if failure == "unconverged":
        # n = 2 pinches exactly, so an optimizer cut short is reached at n = 3
        n = "3"
        monkeypatch.setattr(kahlerpinch.pinching, "MAX_ITER", 3)
    else:
        perturbations = kahlerpinch.experiments._perturbations
        monkeypatch.setattr(
            kahlerpinch.experiments, "_perturbations", lambda space, ts, seeds: perturbations(space, [0.5] * len(ts), seeds)
        )
    code, out, err = _run_in_process(["constants", "--epsilon", "0.1", "--n", n, "--certify", "1", "--seed", "1"])
    assert code == 1
    assert out == ""
    assert "Traceback" not in err
    assert len(err.strip().splitlines()) == 1


def test_constants_certification_violations_exit_1_with_strict_json(monkeypatch):
    # a ratio violation is a failed check: exit 1, and the report still goes
    # to stdout as strict JSON
    import kahlerpinch.experiments
    from kahlerpinch.experiments import CertificationReport

    report = CertificationReport(samples=2, violations=1, max_ratio_dev=0.25, max_defect=1e-3, retries=0)
    monkeypatch.setattr(kahlerpinch.experiments, "certify_constants", lambda chain, samples, seed: report)
    code, out, err = _run_in_process(["constants", "--epsilon", "0.1", "--n", "2", "--certify", "2", "--seed", "1"])
    assert code == 1
    assert err == ""
    payload = _strict_json(out)
    assert payload["certification"] == {**dataclasses.asdict(report), "seed": 1}


def test_constants_rejects_bad_epsilon():
    assert run_cli("constants", "--epsilon", "0", "--n", "2").returncode == 2
    assert run_cli("constants", "--epsilon", "-0.5", "--n", "2").returncode == 2
    for value in ("nan", "inf", "-inf"):
        result = run_cli("constants", f"--epsilon={value}", "--n", "2")
        assert result.returncode == 2, value
        assert result.stdout == b""
        assert len(result.stderr.decode().strip().splitlines()) == 1


@pytest.mark.parametrize(
    "args",
    [
        ("--epsilon", "1e-320", "--n", "2"),
        ("--epsilon", "1e-320", "--n", "2", "--certify", "1", "--seed", "1"),
        ("--epsilon", "1e-318", "--n", "4"),
    ],
)
def test_constants_below_double_precision_exit_3(args):
    # these printed delta = 0.0 and exited 0, or exited 1 when a certification
    # found a defect of 0 not below delta = 0
    result = run_cli("constants", *args)
    assert result.returncode == 3
    assert result.stdout == b""
    [line] = result.stderr.decode().strip().splitlines()
    assert line.endswith("is below the smallest normal double")


@pytest.mark.parametrize(
    "args",
    [
        ("identities", "--n", "2", "--samples", "-3", "--seed", "5"),
        ("constants", "--epsilon", "0.1", "--n", "2", "--certify", "-3", "--seed", "1"),
    ],
    ids=lambda a: a[0],
)
def test_rejects_negative_sample_count(args):
    result = run_cli(*args)
    assert result.returncode == 2
    assert result.stdout == b""
    assert len(result.stderr.decode().strip().splitlines()) == 1


def test_reproducibility_byte_identical(model_file, tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text(
        json.dumps({"n": 2, "t_values": [0.0, 0.05], "samples_per_t": 2, "seed": 8, "restarts": 16})
    )
    out = tmp_path / "sweep.csv"
    invocations = [
        ("validate", str(model_file)),
        ("pinch", str(model_file), "--seed", "3", "--restarts", "16"),
        ("chern", str(model_file), "--all"),
        ("identities", "--n", "2", "--samples", "10", "--seed", "5"),
        ("constants", "--epsilon", "0.1", "--n", "2"),
    ]
    for args in invocations:
        first = run_cli(*args)
        second = run_cli(*args)
        assert first.stdout == second.stdout, args
    first = run_cli("sweep", "--config", str(config), "--out", str(out))
    csv_first = out.read_bytes()
    second = run_cli("sweep", "--config", str(config), "--out", str(out))
    assert first.stdout == second.stdout
    assert out.read_bytes() == csv_first


def test_pinch_and_chern_reject_a_non_kahler_file_alike(tmp_path):
    strict = _bianchi_defect_file(tmp_path / "strict.json", 1e-9)
    for args in (["pinch", "--seed", "1"], ["chern", "--all"]):
        code, out, err = _run_in_process([args[0], str(strict), *args[1:]])
        assert code == 1, args
        assert out == ""
        assert len(err.strip().splitlines()) == 1 and "not Kahler" in err


def test_runtime_errors_exit_1_without_a_traceback(monkeypatch):
    import kahlerpinch.experiments
    from kahlerpinch.errors import IdentityInconsistencyError

    def identity_suite(*args):
        raise IdentityInconsistencyError("degenerate fit: all regressors vanished")

    monkeypatch.setattr(kahlerpinch.experiments, "identity_suite", identity_suite)
    code, out, err = _run_in_process(["identities", "--n", "2", "--samples", "5", "--seed", "1"])
    assert code == 1
    assert out == ""
    assert err == "error: degenerate fit: all regressors vanished\n"


SEED_FLAG_INVOCATIONS = {
    "pinch": ("pinch", "{file}", "--restarts", "1", "--seed"),
    "identities": ("identities", "--n", "2", "--samples", "2", "--seed"),
    "constants": ("constants", "--epsilon", "0.1", "--n", "2", "--certify", "1", "--seed"),
}


@pytest.mark.parametrize("seed", [2**63, -(2**63) - 1, 2**64])
@pytest.mark.parametrize("name", ["pinch", "identities", "constants", "sweep"])
def test_seeds_outside_the_signed_64_bit_range_are_usage_errors(model_file, tmp_path, monkeypatch, name, seed):
    # seeds fold modulo 2^64: 2^64 would rerun seed 0 while reporting another seed
    import kahlerpinch.experiments
    import kahlerpinch.pinching

    def never(*args, **kwargs):
        pytest.fail("work started before the seed was checked")

    for function in ("sweep", "certify_constants", "identity_suite"):
        monkeypatch.setattr(kahlerpinch.experiments, function, never)
    monkeypatch.setattr(kahlerpinch.pinching, "pinch", never)
    config = tmp_path / "sweep.json"
    config.write_text(json.dumps({"n": 1, "t_values": [0.0], "samples_per_t": 1, "seed": seed}))
    if name == "sweep":
        argv = ["sweep", "--config", str(config), "--out", str(tmp_path / "o.csv")]
    else:
        argv = [a.format(file=model_file) for a in SEED_FLAG_INVOCATIONS[name]] + [str(seed)]
    code, out, err = _run_in_process(argv)
    assert code == 2
    assert out == ""
    assert len(err.strip().splitlines()) == 1 and "seed" in err


@pytest.mark.parametrize("seed", [2**63 - 1, -(2**63)])
def test_seeds_at_the_ends_of_the_signed_64_bit_range_run(tmp_path, seed):
    code, out, _ = _run_in_process(["identities", "--n", "2", "--samples", "2", "--seed", str(seed)])
    assert code == 0 and json.loads(out)["seed"] == seed
    config = tmp_path / "sweep.json"
    config.write_text(json.dumps({"n": 1, "t_values": [0.0, 0.1], "samples_per_t": 1, "seed": seed, "restarts": 2}))
    code, out, _ = _run_in_process(["sweep", "--config", str(config), "--out", str(tmp_path / "o.csv")])
    assert code == 0 and json.loads(out)["records"] == 2


# ---------------------------------------------------------------------------
# fuzzing: malformed inputs end with a documented exit code, never a traceback
# ---------------------------------------------------------------------------

DOCUMENTED_EXIT_CODES = {0, 1, 2, 3}

# no positive integers: as a sample or restart count they are valid, and a
# large one within its cap is a long run, not a malformed input
_junk = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(2**70), 0),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=4),
    st.lists(st.integers(-2, 2), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=1),
)
# a valid base config, small enough to run in well under a second, with up to
# two fields corrupted (bad type, out-of-range value, or missing)
_valid_sweep_fields = {
    "n": st.sampled_from([1, 2, 3]),
    "t_values": st.lists(st.floats(0.0, 0.2), min_size=1, max_size=3),
    "samples_per_t": st.sampled_from([1, 2]),
    "seed": st.integers(-(2**70), 2**70),
    "restarts": st.sampled_from([1, 3, 8]),
}
_bad_sweep_fields = {
    "n": st.one_of(st.sampled_from([-1, 0, 5, 9]), st.integers(5, 2**70)),
    "t_values": st.lists(
        st.one_of(st.sampled_from([-1e-3, 1e3, 1e300, 1e308, 2**70]), _junk), min_size=1, max_size=3
    ),
    "samples_per_t": st.sampled_from([-1, 0, SAMPLE_CAP + 1]),
    "seed": _junk,
    "restarts": st.sampled_from([-2, 0, RESTART_CAP + 1]),
}


@st.composite
def _sweep_config_text(draw):
    kind = draw(st.sampled_from(["config", "config", "config", "other json", "text"]))
    if kind == "text":
        return draw(st.text(max_size=40))
    if kind == "other json":
        return json.dumps(draw(_junk))
    config = {field: draw(strategy) for field, strategy in _valid_sweep_fields.items()}
    for field in draw(st.lists(st.sampled_from(sorted(config)), max_size=2, unique=True)):
        how = draw(st.sampled_from(["junk", "out of range", "missing"]))
        if how == "missing":
            del config[field]
        else:
            config[field] = draw(_junk if how == "junk" else _bad_sweep_fields[field])
    return json.dumps(config)


def _model_text(n: int) -> str:
    from kahlerpinch import complex_hyperbolic_tensor, make_space, tensor_to_text

    return tensor_to_text(complex_hyperbolic_tensor(make_space(n)))


@st.composite
def _tensor_file_text(draw):
    obj = json.loads(_model_text(draw(st.sampled_from([1, 2]))))
    kind = draw(st.sampled_from(["field", "entry", "drop", "truncate"]))
    if kind == "field":
        field = draw(st.sampled_from(sorted(obj)))
        obj[field] = draw(st.one_of(_junk, st.sampled_from([1, 2, 5, 1e-300, 1e300])))
    elif kind == "entry":
        index = draw(st.integers(0, len(obj["entries"]) - 1))
        obj["entries"][index] = draw(st.one_of(_junk, st.floats(-1e300, 1e300)))
    elif kind == "drop":
        del obj[draw(st.sampled_from(sorted(obj)))]
    text = json.dumps(obj)
    if kind == "truncate":
        text = text[: draw(st.integers(0, len(text)))]
    return text


def _run_in_process(argv):
    """cli.main's exit code, stdout and stderr under numpy's default error handling."""
    import contextlib
    import io

    import numpy as np

    from kahlerpinch import cli

    out, err = io.StringIO(), io.StringIO()
    with np.errstate(divide="warn", over="warn", under="ignore", invalid="warn"):
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _check_outcome(code, out, err):
    event(f"exit code {code}")
    assert code in DOCUMENTED_EXIT_CODES
    assert "Traceback" not in err
    if code == 2:
        assert out == ""
        assert len(err.strip().splitlines()) == 1
    if out:
        json.loads(out, parse_constant=lambda c: pytest.fail(f"non-JSON constant {c}"))


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(text=_sweep_config_text())
def test_fuzzed_sweep_configs_exit_cleanly(fuzz_dir, text):
    config = fuzz_dir / "config.json"
    config.write_text(text, encoding="utf-8")
    _check_outcome(*_run_in_process(["sweep", "--config", str(config), "--out", str(fuzz_dir / "o.csv")]))


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(text=_tensor_file_text(), command=st.sampled_from(["validate", "pinch", "chern"]))
def test_fuzzed_tensor_files_exit_cleanly(fuzz_dir, text, command):
    path = fuzz_dir / "tensor.json"
    path.write_text(text, encoding="utf-8")
    extra = {"validate": [], "pinch": ["--seed", "1", "--restarts", "4"], "chern": ["--all"]}
    _check_outcome(*_run_in_process([command, str(path), *extra[command]]))


@pytest.mark.parametrize("n, k", [(2, 520), (2, -540), (4, 260), (4, -300)])
def test_chern_all_at_extreme_power_of_two_scales(tmp_path, n, k):
    # the densities of 2^k R0 overflow (k > 0) or underflow to zero (k < 0);
    # --all reads its ratios at unit scale, as --ratio does, so they are R0's
    # bit for bit, and an overflowed density exits 3
    import numpy as np

    from kahlerpinch import (
        ChernIndex,
        CurvatureTensor,
        chern_ratio,
        complex_hyperbolic_tensor,
        enumerate_indices,
        make_space,
        write_tensor,
    )

    model = complex_hyperbolic_tensor(make_space(n))
    path = tmp_path / "scaled.json"
    write_tensor(path, CurvatureTensor(model.space, np.ldexp(model.entries, k)))
    label = {2: "2,0:0,1", 4: "4,0,0,0:0,0,0,1"}[n]
    code, out, err = _run_in_process(["chern", str(path), "--ratio", label])
    assert code == 0, err
    ratio = _strict_json(out.encode())["ratios"][label]
    numerator, denominator = (ChernIndex(tuple(map(int, part.split(",")))) for part in label.split(":"))
    assert ratio == chern_ratio(model, numerator, denominator)
    code, out, err = _run_in_process(["chern", str(path), "--all"])
    if k > 0:
        assert (code, out) == (3, "")
        assert len(err.strip().splitlines()) == 1
        return
    assert code == 0, err
    payload = _strict_json(out.encode())
    assert all(gamma == 0.0 for gamma in payload["densities"].values())
    indices = enumerate_indices(n)
    assert payload["ratios"] == {f"{a}:{b}": chern_ratio(model, a, b) for a in indices for b in indices if a != b}
    assert payload["ratios"][label] == ratio
