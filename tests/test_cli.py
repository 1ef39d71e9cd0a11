import copy
import json
import re
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from teleportlab.channels import (_CHANNEL_KEYS, channel_to_dict, depolarizing,
                                  random_channel, save_channel)
from teleportlab.cli import _CONFIG_KEYS, _STATE_KEYS, _load_config, main
from teleportlab.protocol import (_PROTOCOL_KEYS, bare_protocol, protocol_to_dict,
                                  save_protocol)
from teleportlab.qmath import matrix_to_pairs, random_state
from teleportlab.teleport import qt_protocol
from teleportlab.theorem import proof_report


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


def test_protocol_verify_qt_against_a_channel_file(runner, tmp_path):
    # with --qt, a lone positional is the channel file
    channel = tmp_path / "ch3.json"
    save_channel(random_channel(3, 9, seed=4), channel)
    result = _invoke(runner, ["protocol-verify", "--qt", "3", str(channel)])
    assert result.exit_code == 0
    data = json.loads(result.output)
    assert data["inputs"] == {"protocol_file": None, "qt": 3,
                              "channel_file": str(channel), "tol": 1e-9}
    assert data["outputs"]["residual_to_target"] < 1e-9

    both = runner.invoke(main, ["protocol-verify", "--qt", "2", str(channel),
                                str(channel)])
    assert both.exit_code == 2
    assert both.stderr.splitlines() == [
        "error: provide exactly one of PROTOCOL_FILE or --qt N"]

    two_channels = runner.invoke(main, ["protocol-verify", "--qt", "3",
                                        str(channel), "--depolarizing", "0.5"])
    assert two_channels.exit_code == 2
    assert two_channels.stderr.splitlines() == [
        "error: provide exactly one of CHANNEL_FILE or --depolarizing P"]


def test_protocol_verify_embeds_the_proof_report(runner):
    result = _invoke(runner, ["protocol-verify", "--qt", "2", "--depolarizing", "0.5"])
    report = json.loads(result.output)["outputs"]["proof_report"]
    assert report == proof_report(qt_protocol(2), tol=1e-9)


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
    assert result.stderr.splitlines() == [
        "error: channel dim 2 does not match protocol dim 3"]


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


def test_sweep_rejects_qt_warm_start(runner, tmp_path):
    # sweep pins mu per angle, so a teleportation warm start cannot apply
    path = _optimize_config(tmp_path, qt_warm_start=True)
    result = runner.invoke(
        main, ["sweep", "--depolarizing", "0.5", str(path), "--theta-grid", "0.785"])
    assert result.exit_code == 2
    assert result.stderr.splitlines() == [
        "error: invalid input: qt_warm_start must be false: sweep pins mu, and "
        "the teleportation warm start needs free mu"]


@pytest.mark.parametrize("grid, message", [
    ("100", "invalid input: sweep angle 100.0 is not in [0, pi/2]"),
    ("0.3,-0.1", "invalid input: sweep angle -0.1 is not in [0, pi/2]"),
    ("nan", "invalid input: sweep angle nan is not in [0, pi/2]"),
    ("inf", "invalid input: sweep angle inf is not in [0, pi/2]"),
    ("0.3,abc", "--theta-grid must be comma-separated numbers, got '0.3,abc'"),
], ids=["above", "negative", "nan", "inf", "not-a-number"])
def test_sweep_bad_angle_exits_2_with_one_line(runner, tmp_path, grid, message):
    path = _optimize_config(tmp_path, evaluation_budget=8, restarts=1)
    result = runner.invoke(
        main, ["sweep", "--depolarizing", "0.5", str(path), "--theta-grid", grid])
    assert result.exit_code == 2
    assert result.stderr.splitlines() == [f"error: {message}"]


@pytest.mark.parametrize("args, config, message", [
    (["optimize", "--seed", "-5"], {}, "invalid config: seed must be >= 0, got -5"),
    (["optimize"], {"seed": -3}, "invalid config: seed must be >= 0, got -3"),
    (["teleport", "--random", "-1"], None, "--random must be >= 0, got -1"),
], ids=["optimize-seed", "config-seed", "teleport-random"])
def test_negative_seed_exits_2_with_one_line(runner, tmp_path, args, config,
                                             message):
    if config is not None:
        args = args + [str(_optimize_config(tmp_path, **config))]
    result = runner.invoke(main, args + ["--depolarizing", "0.5"])
    assert result.exit_code == 2
    assert result.stderr.splitlines() == [f"error: {message}"]


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


def test_teleport_negative_mu_exits_2_with_one_line(runner):
    result = runner.invoke(main, ["teleport", "--depolarizing", "0.5", "--random",
                                  "3", "--mu=-0.6,0.8"])
    assert result.exit_code == 2
    assert result.stderr.splitlines() == [
        "error: --mu: Schmidt coefficients must be non-negative, got -0.6,0.8"]


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


def test_readme_file_format_tables_match_the_key_tables():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## File formats\n")[1].split("\n## ")[0]
    tables = [re.findall(r"^\| `(\w+)` \|.*\| yes \|$", table, re.M)
              for table in section.split("| key | value | required |")[1:]]
    assert tables == [list(_CHANNEL_KEYS), list(_PROTOCOL_KEYS), list(_STATE_KEYS)]


# One valid file of each kind the CLI reads, and the command that reads it
# ("{}" stands for the file's path).
_FILE_KINDS = {
    "channel": (channel_to_dict(depolarizing(0.5)), ["channel-info", "{}"]),
    "protocol": (protocol_to_dict(qt_protocol(2)),
                 ["protocol-verify", "{}", "--depolarizing", "0.5"]),
    "state": ({"dim": 2, "matrix": matrix_to_pairs(random_state(2, seed=5))},
              ["teleport", "--depolarizing", "0.5", "--state", "{}"]),
    "config": ({"n": 2, "p": 2, "measured": "full", "qt_warm_start": False,
                "mu_fixed": [0.9238795325112867, 0.3826834323650898],
                "evaluation_budget": 8, "restarts": 1, "seed": 3},
               ["optimize", "--depolarizing", "0.5", "{}"]),
}


def _run_file(kind, doc, directory):
    path = directory / f"{kind}.json"
    path.write_text(json.dumps(doc))
    args = [str(path) if arg == "{}" else arg for arg in _FILE_KINDS[kind][1]]
    return CliRunner().invoke(main, args)


def _mutated(kind, path, how, value=None):
    """The valid file of this kind with the entry at path dropped ("drop"),
    replaced by value ("replace"), or with value added next to it ("add": key
    "extra" in an object, an inserted element in a list)."""
    doc = copy.deepcopy(_FILE_KINDS[kind][0])
    *parents, last = path
    holder = doc
    for key in parents:
        holder = holder[key]
    if how == "drop":
        del holder[last]
    elif how == "replace":
        holder[last] = value
    elif isinstance(holder, dict):
        holder["extra"] = value
    else:
        holder.insert(last, value)
    return doc


@pytest.mark.parametrize("kind, path, how, value, code, message", [
    ("protocol", ("sender", 0, "unitary"), "drop", None, 2,
     "missing key 'sender[0].unitary'"),
    ("protocol", ("sender",), "replace", 5, 2,
     "'sender' must be a list of JSON objects, got 5"),
    ("channel", ("kraus",), "replace", 3, 2,
     "'kraus' must be a list of square matrices of [re, im] pairs, got 3"),
    ("protocol", ("P",), "replace", 2.7, 2, "'P' must be an integer, got 2.7"),
    ("channel", ("dim",), "replace", "2", 2, "'dim' must be an integer, got \"2\""),
    ("state", ("dim",), "replace", 3, 2,
     "'matrix' shape (2, 2) does not match 'dim' 3"),
    ("state", ("dim",), "drop", None, 2, "missing key 'dim'"),
    ("channel", ("dim",), "add", 1, 2, "unknown key 'extra'; the keys are dim, kraus"),
    ("protocol", ("N",), "add", 1, 2, "unknown key 'extra'"),
    ("protocol", ("sender", 1, "unitary"), "add", 1, 2,
     "unknown key 'sender[1].extra'; the keys are projection, unitary"),
    ("state", ("dim",), "add", 1, 2, "unknown key 'extra'; the keys are dim, matrix"),
    ("protocol", ("M",), "replace", True, 2, "'M' must be an integer, got true"),
    ("protocol", ("mu",), "replace", [1.0], 2, "'mu' has length 1, but 'P' is 2"),
    ("protocol", ("receiver", 0), "drop", None, 2,
     "'receiver' has length 3, but 'M' is 4"),
    ("channel", ("kraus", 0, 0, 0), "replace", [1e308, 0], 2,
     "not trace-preserving: sum K^dag K deviates from I by inf"),
    ("protocol", ("receiver", 0, 0, 0), "replace", [1e308, 0], 3,
     "receiver unitarity residual inf"),
    ("protocol", ("mu",), "replace", [1e308, 1e308], 2,
     "squared Schmidt coefficients must sum to 1, deviation inf"),
    ("channel", ("kraus", 0, 1), "replace", [[0, 0]], 2,
     "'kraus' must be a list of square matrices of [re, im] pairs"),
    ("protocol", ("N",), "replace", "x", 2, "'N' must be an integer, got \"x\""),
], ids=["no-unitary", "sender-5", "kraus-3", "P-2.7", "dim-string", "state-dim-3",
        "state-no-dim", "channel-extra", "protocol-extra", "sender-extra",
        "state-extra", "M-true", "mu-length", "receiver-count", "kraus-1e308",
        "operator-1e308", "mu-1e308", "ragged-kraus", "N-string"])
def test_malformed_file_exits_with_one_line_naming_the_field(
        tmp_path, kind, path, how, value, code, message):
    result = _run_file(kind, _mutated(kind, path, how, value), tmp_path)
    assert result.exit_code == code, result.output
    [line] = result.stderr.splitlines()
    assert line.startswith("error: ") and message in line


@pytest.mark.parametrize("kind", sorted(_FILE_KINDS))
def test_top_level_json_list_exits_2(tmp_path, kind):
    result = _run_file(kind, [1, 2], tmp_path)
    assert result.exit_code == 2
    [line] = result.stderr.splitlines()
    assert line.endswith("expected a JSON object, got [1, 2]")


def test_teleport_mu_whose_norm_overflows_exits_2(runner):
    result = runner.invoke(main, ["teleport", "--depolarizing", "0.5", "--random",
                                  "3", "--mu", "1e308,1e308"])
    assert result.exit_code == 2
    assert result.stderr.splitlines() == [
        "error: --mu must be finite and not all zero, got 1e308,1e308"]


@pytest.mark.parametrize("args", [
    ["channel-info", "--depolarizing", "0.5", "--out", "{}"],
    ["optimize", "--depolarizing", "0.5", "CONFIG", "--trace", "{}"],
    ["sweep", "--depolarizing", "0.5", "CONFIG", "--theta-grid", "0.3",
     "--out", "{}"],
], ids=["channel-info-out", "optimize-trace", "sweep-out"])
def test_unwritable_output_path_exits_2(runner, tmp_path, args):
    config = _optimize_config(tmp_path, evaluation_budget=8, restarts=1)
    target = tmp_path / "no_such_directory" / "out"
    args = [{"{}": str(target), "CONFIG": str(config)}.get(arg, arg)
            for arg in args]
    result = runner.invoke(main, args)
    assert result.exit_code == 2
    [line] = result.stderr.splitlines()
    assert line.startswith("error: ") and str(target) in line


# Replacement values: the wrong JSON type, NaN, Infinity, a ragged list, and
# matrices of the wrong size; none is an integer, so none enlarges a
# dimension or a budget.
_BAD_VALUES = ["2", True, None, {}, [], 2.5, float("nan"), float("inf"),
               [[[1, 0], [0, 0]], [[0, 0]]], [[[1.0, 0.0]]],
               matrix_to_pairs(np.eye(3))]


def _locations(doc, path=()):
    """Paths to every entry of a JSON document, in document order."""
    entries = (doc.items() if isinstance(doc, dict)
               else enumerate(doc) if isinstance(doc, list) else ())
    for key, value in entries:
        yield path + (key,)
        yield from _locations(value, path + (key,))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_mutated_file_exits_0_2_or_3_without_a_traceback(tmp_path_factory, data):
    kind = data.draw(st.sampled_from(sorted(_FILE_KINDS)), label="kind")
    path = data.draw(st.sampled_from(list(_locations(_FILE_KINDS[kind][0]))),
                     label="path")
    how = data.draw(st.sampled_from(["drop", "add", "replace"]), label="how")
    value = data.draw(st.sampled_from(_BAD_VALUES), label="value")
    doc = _mutated(kind, path, how, value)
    result = _run_file(kind, doc, tmp_path_factory.getbasetemp())
    assert result.exit_code in (0, 2, 3), result.exception
    lines = result.stderr.splitlines()
    assert len(lines) == (result.exit_code != 0), lines
    assert "Traceback" not in result.output + result.stderr
