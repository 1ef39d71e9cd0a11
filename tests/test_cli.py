import json
import re
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from teleportlab.channels import depolarizing, save_channel
from teleportlab.cli import _CONFIG_KEYS, _load_config, main
from teleportlab.protocol import bare_protocol, protocol_to_dict, save_protocol
from teleportlab.qmath import matrix_to_pairs, random_state
from teleportlab.teleport import qt_protocol


@pytest.fixture
def runner():
    return CliRunner()


def _invoke(runner, args):
    return runner.invoke(main, args, catch_exceptions=False)


def test_channel_info_depolarizing(runner):
    result = _invoke(runner, ["channel-info", "--depolarizing", "0.5"])
    assert result.exit_code == 0
    data = json.loads(result.output)
    assert data["command"] == "channel-info"
    assert data["outputs"]["rank"] == 4
    np.testing.assert_allclose(
        data["outputs"]["choi_eigenvalues"], [0.625, 0.125, 0.125, 0.125],
        atol=1e-12,
    )


def test_channel_info_identity_from_file(runner, tmp_path):
    path = tmp_path / "identity.json"
    save_channel(depolarizing(0.0), path)
    result = _invoke(runner, ["channel-info", str(path)])
    assert result.exit_code == 0
    assert json.loads(result.output)["outputs"]["rank"] == 1


def test_channel_info_malformed_file(runner, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    result = runner.invoke(main, ["channel-info", str(path)])
    assert result.exit_code == 2
    assert "error" in result.output or result.output == ""


def test_channel_info_requires_one_source(runner):
    result = runner.invoke(main, ["channel-info"])
    assert result.exit_code == 2


def test_teleport_random_state(runner):
    result = _invoke(
        runner,
        ["teleport", "--depolarizing", "0.5", "--random", "3"],
    )
    assert result.exit_code == 0
    data = json.loads(result.output)
    assert data["outputs"]["fidelity_to_input"] >= 1 - 1e-9
    np.testing.assert_allclose(
        data["outputs"]["branch_probabilities"], [0.25] * 4, atol=1e-10
    )
    assert data["seed"] == 3


def test_teleport_partial_mu(runner):
    result = _invoke(
        runner,
        ["teleport", "--depolarizing", "0.5", "--random", "3",
         "--mu", "0.924,0.383"],
    )
    data = json.loads(result.output)
    assert data["outputs"]["fidelity_to_input"] < 1 - 1e-3


def test_teleport_state_file(runner, tmp_path):
    rho = random_state(2, seed=5)
    path = tmp_path / "state.json"
    path.write_text(json.dumps({"dim": 2, "matrix": matrix_to_pairs(rho)}))
    result = _invoke(
        runner, ["teleport", "--depolarizing", "1.0", "--state", str(path)]
    )
    data = json.loads(result.output)
    assert data["outputs"]["fidelity_to_input"] >= 1 - 1e-9


def test_teleport_rejects_bad_state(runner, tmp_path):
    path = tmp_path / "state.json"
    path.write_text(json.dumps({"dim": 2, "matrix": matrix_to_pairs(np.eye(2))}))
    result = runner.invoke(
        main, ["teleport", "--depolarizing", "0.5", "--state", str(path)]
    )
    assert result.exit_code == 2


@pytest.mark.parametrize("n", [2, 3, 4])
def test_protocol_verify_bundled_qt(runner, n):
    result = _invoke(
        runner,
        ["protocol-verify", "--qt", str(n), "--depolarizing", "0.5", "--dim", str(n)],
    )
    assert result.exit_code == 0
    data = json.loads(result.output)
    assert data["inputs"] == {"protocol_file": None, "qt": n, "depolarizing": 0.5,
                              "dim": n, "tol": 1e-9}
    out = data["outputs"]
    assert out["residual_to_target"] < 1e-9
    assert out["consistency_gap"] < 1e-9
    assert out["entanglement_bound_satisfied"]
    assert abs(out["entanglement_sum"] - np.sqrt(n)) < 1e-9
    assert not out["theorem_violation"]


@pytest.mark.parametrize("n", [0, 1, -2])
def test_protocol_verify_qt_below_2_exits_2(runner, n):
    result = runner.invoke(
        main, ["protocol-verify", "--qt", str(n), "--depolarizing", "0.5"])
    assert result.exit_code == 2
    assert result.stderr.splitlines() == [
        f"error: teleportation needs N >= 2, got {n}"]


def test_protocol_verify_bare_protocol(runner, tmp_path):
    path = tmp_path / "bare.json"
    save_protocol(bare_protocol(2), path)
    result = _invoke(
        runner,
        ["protocol-verify", str(path), "--depolarizing", "0.5"],
    )
    data = json.loads(result.output)
    assert data["inputs"] == {"protocol_file": str(path), "qt": None,
                              "depolarizing": 0.5, "dim": 2, "tol": 1e-9}
    assert abs(data["outputs"]["residual_to_target"] - 0.5 * np.sqrt(3) / 2) < 1e-9
    assert abs(data["outputs"]["entanglement_fidelity"] - 0.625) < 1e-9


def test_protocol_verify_non_deterministic_exits_3(runner, tmp_path):
    data = protocol_to_dict(qt_protocol(2))
    scaled = (np.asarray(data["receiver"][0], dtype=float) * 0.5).tolist()
    data["receiver"][0] = scaled
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(data))
    result = runner.invoke(
        main, ["protocol-verify", str(path), "--depolarizing", "0.5"]
    )
    assert result.exit_code == 3


def test_protocol_verify_wrong_operator_shape_exits_2(runner, tmp_path):
    # a malformed file is invalid input (2), not a determinism failure (3)
    data = protocol_to_dict(bare_protocol(2))
    data["receiver"][0] = matrix_to_pairs(np.eye(3))
    path = tmp_path / "misshapen.json"
    path.write_text(json.dumps(data))
    result = runner.invoke(
        main, ["protocol-verify", str(path), "--depolarizing", "0.5"]
    )
    assert result.exit_code == 2
    assert result.output.strip().splitlines() == [
        "error: receiver shape (3, 3) does not match N*P = 2*1 = 2"]
    assert "Traceback" not in result.output


def test_protocol_verify_dim_mismatch_exit_2(runner, tmp_path):
    path = tmp_path / "qt3.json"
    save_protocol(qt_protocol(3), path)
    result = runner.invoke(
        main, ["protocol-verify", str(path), "--depolarizing", "0.5"]
    )
    assert result.exit_code == 2


def _optimize_config(tmp_path, **overrides):
    config = {
        "n": 2,
        "p": 2,
        "measured": "full",
        "evaluation_budget": 400,
        "restarts": 2,
        "seed": 9,
    }
    config.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    return path


def test_optimize_qt_warm_start(runner, tmp_path):
    path = _optimize_config(tmp_path, qt_warm_start=True)
    result = _invoke(
        runner, ["optimize", "--depolarizing", "0.5", str(path)]
    )
    assert result.exit_code == 0
    data = json.loads(result.output)
    assert data["outputs"]["best_fidelity"] >= 1 - 1e-6
    assert data["outputs"]["best_protocol"]["N"] == 2


def test_optimize_no_cc_below_one(runner, tmp_path):
    path = _optimize_config(tmp_path, measured="none", p=2)
    result = _invoke(
        runner, ["optimize", "--depolarizing", "0.5", str(path)]
    )
    data = json.loads(result.output)
    assert data["outputs"]["best_fidelity"] < 1.0
    assert data["seed"] == 9


def test_optimize_deterministic_output(runner, tmp_path):
    path = _optimize_config(tmp_path)
    args = ["optimize", "--depolarizing", "0.5", str(path)]
    first = _invoke(runner, args).output
    second = _invoke(runner, args).output
    assert first == second


def test_optimize_trace_csv(runner, tmp_path):
    path = _optimize_config(tmp_path)
    trace = tmp_path / "trace.csv"
    result = _invoke(
        runner,
        ["optimize", "--depolarizing", "0.5", str(path), "--trace", str(trace)],
    )
    assert result.exit_code == 0
    lines = trace.read_text().strip().splitlines()
    assert lines[0] == "restart,step,best_fidelity"
    assert len(lines) > 2


def test_optimize_seed_override(runner, tmp_path):
    path = _optimize_config(tmp_path)
    base_args = ["optimize", "--depolarizing", "0.5", str(path)]
    default_run = json.loads(_invoke(runner, base_args).output)
    override_run = json.loads(
        _invoke(runner, base_args + ["--seed", "77"]).output
    )
    assert default_run["seed"] == 9
    assert override_run["seed"] == 77
    assert (override_run["outputs"]["per_restart_bests"]
            != default_run["outputs"]["per_restart_bests"])


def test_optimize_invalid_config(runner, tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"restarts": 2, "seed": 9}))
    result = runner.invoke(
        main, ["optimize", "--depolarizing", "0.5", str(path)]
    )
    assert result.exit_code == 2


def test_optimize_dimension_mismatch_exits_2(runner, tmp_path):
    path = _optimize_config(tmp_path)  # n = 2
    result = runner.invoke(
        main, ["optimize", "--depolarizing", "0.3", "--dim", "3", str(path)]
    )
    assert result.exit_code == 2
    assert "channel dim 3" in result.output and "dim 2" in result.output
    assert "Traceback" not in result.output


def test_sweep_takes_dimension_from_channel(runner, tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(
        {"evaluation_budget": 40, "restarts": 1, "seed": 4}
    ))
    result = _invoke(
        runner, ["sweep", "--depolarizing", "0.3", "--dim", "3", str(config),
                 "--theta-grid", "0.2,0.5"]
    )
    assert result.exit_code == 0
    lines = result.output.strip().splitlines()
    assert lines[0] == "theta,sumMu,bestFidelity,seed"
    assert [float(line.split(",")[0]) for line in lines[1:]] == [0.2, 0.5]


def test_sweep_csv(runner, tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(
        {"evaluation_budget": 200, "restarts": 1, "seed": 4}
    ))
    grid = "0,0.39269908169872414,0.7853981633974483"
    result = _invoke(
        runner,
        ["sweep", "--depolarizing", "0.5", str(config), "--theta-grid", grid],
    )
    assert result.exit_code == 0
    lines = result.output.strip().splitlines()
    assert lines[0] == "theta,sumMu,bestFidelity,seed"
    assert len(lines) == 4
    for line, theta in zip(lines[1:], (0.0, np.pi / 8, np.pi / 4)):
        parts = line.split(",")
        assert abs(float(parts[0]) - theta) < 1e-12
        assert abs(float(parts[1]) - (np.cos(theta) + np.sin(theta))) < 1e-12
        assert parts[3] == "4"


def test_sweep_out_file(runner, tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(
        {"evaluation_budget": 100, "restarts": 1, "seed": 4}
    ))
    out = tmp_path / "rows.csv"
    result = _invoke(
        runner,
        ["sweep", "--depolarizing", "0.5", str(config),
         "--theta-grid", "0.2,0.5", "--out", str(out)],
    )
    assert result.exit_code == 0
    assert len(out.read_text().strip().splitlines()) == 3


@pytest.mark.parametrize("tol", ["nan", "-1", "inf"])
@pytest.mark.parametrize("args", [
    ["channel-info", "--depolarizing", "0.5"],
    ["protocol-verify", "--qt", "2", "--depolarizing", "0.5"],
], ids=["channel-info", "protocol-verify"])
def test_bad_tol_exits_2(runner, args, tol):
    result = runner.invoke(main, args + ["--tol", tol])
    assert result.exit_code == 2
    assert result.stderr.splitlines() == [
        f"error: --tol must be finite and >= 0, got {float(tol)}"]


@pytest.mark.parametrize("mu", ["0,0", "nan,1"])
def test_teleport_rejects_zero_or_non_finite_mu(runner, mu):
    result = runner.invoke(
        main, ["teleport", "--depolarizing", "0.5", "--random", "3", "--mu", mu])
    assert result.exit_code == 2
    assert result.stderr.splitlines() == [
        f"error: --mu must be finite and not all zero, got {mu}"]


@pytest.mark.parametrize("override, message", [
    ({"mu_fixed": [0, 0]}, "mu_fixed must be non-negative with a finite, "
                           "nonzero norm, got [0.0, 0.0]"),
    ({"n": 0}, "system dimension n must be >= 1, got 0"),
    ({"p": -1}, "local dimension p must be >= 1, got -1"),
], ids=["mu_fixed-zero", "n-0", "p-negative"])
def test_degenerate_config_exits_2_with_one_line(runner, tmp_path, override,
                                                 message):
    path = _optimize_config(tmp_path, **override)
    result = runner.invoke(main, ["optimize", "--depolarizing", "0.5", str(path)])
    assert result.exit_code == 2
    assert result.stderr.splitlines() == [f"error: invalid config: {message}"]


@pytest.mark.parametrize("override", [
    {"fix_mu": True}, {"step_init": 0.1}, {"warm_start": True},
    {"mu_fixd": [1, 0]}, {"qt_warm_start": "false"}, {"restarts": 2.5},
    {"n": "3"}, {"seed": True}, {"evaluation_budget": None},
    {"measured": "all"}, {"mu_fixed": [1, "a"]},
], ids=lambda override: next(iter(override)))
@pytest.mark.parametrize("command", ["optimize", "sweep"])
def test_config_key_or_value_outside_the_table_exits_2(runner, tmp_path,
                                                        command, override):
    path = _optimize_config(tmp_path, **override)
    args = [command, "--depolarizing", "0.5", str(path)]
    if command == "sweep":
        args += ["--theta-grid", "0.3"]
    result = runner.invoke(main, args)
    assert result.exit_code == 2
    [line] = result.stderr.splitlines()
    assert line.startswith("error: invalid") and repr(next(iter(override))) in line


def test_readme_config_section_matches_the_key_table(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("An optimizer config is")[1].split("\n## ")[0]
    documented = re.findall(r"^\| `(\w+)` \|.*\| (`.+`|required) \|$",
                            section, re.M)
    assert documented == [
        (key, f"`{json.dumps(spec[2])}`" if len(spec) == 3 else "required")
        for key, spec in _CONFIG_KEYS.items()]
    block = re.search(r"```json\n(.*?)```", section, re.S).group(1)
    path = tmp_path / "config.json"
    path.write_text(block)
    data, values = _load_config(path, None)
    assert data == json.loads(block)
    defaults = {key: spec[2] for key, spec in _CONFIG_KEYS.items() if len(spec) == 3}
    assert values == {**defaults, **data}
