import argparse
import builtins
import contextlib
import csv
import dataclasses
import importlib.util
import io
import json
import logging
import math
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fedrelay import cli, scenario
from fedrelay.cli import RunConfig, main, reverify_unilateral_gain
from fedrelay.radio import transmission_energy_cost
from fedrelay.scenario import (
    ALPHA_MAX,
    ALPHA_MIN,
    I_D_MAX,
    P_MAX_MIN,
    RELAY_SPEC,
    R_P_MIN,
    S_MAX_MAX,
    SIGMA2_MAX,
    SIGMA2_MIN,
    T_A_MAX,
    W_MIN,
    ScenarioError,
    paper9_scenario,
    random_scenario,
    save_scenario,
    scenario_from_dict,
    scenario_to_dict,
)
from fedrelay.upper_level import PenaltyConfig, default_init, unilateral_gains
from support import make_device, make_scenario


def relayable_scenario_file(tmp_path):
    devices = (
        make_device(c_p=0.005, c_t=100.0, r_p=100.0, T_a=0.01, a=10.0, b=10.0, c=12.0),
        make_device(c_p=0.005, c_t=50.0, r_p=0.1, T_a=0.01, a=10.0, b=10.0, c=1.0),
    )
    scen = make_scenario([[10.0, 0.0], [9.0, 0.0], [0.0, 0.0]], devices=devices)
    path = tmp_path / "scenario.json"
    save_scenario(scen, path)
    return scen, path


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def test_verbose_applies_to_its_own_call_only(tmp_path, caplog):
    # the root logger's level and handlers are pytest's, as in any process
    # that configured logging before calling main
    argv = ["solve", "--preset", "paper9", "--seed", "7", "--out", str(tmp_path / "run")]
    assert main(["--verbose"] + argv) == 0
    debug = [r.getMessage() for r in caplog.records if r.levelname == "DEBUG"]
    assert debug and all("devices changed" in m for m in debug)
    caplog.clear()
    assert main(argv) == 0
    assert not [r for r in caplog.records if r.levelname == "DEBUG"]


def test_main_builds_its_parser_once_per_process(monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    cli._parser.cache_clear()  # as in a fresh process
    per_call = []
    for _ in range(3):
        before = len(built)
        assert main(["validate", "--preset", "paper9", "--seed", "7"]) == 0
        per_call.append(len(built) - before)
    assert per_call == [4, 0, 0]  # the parser and its three subcommands


def test_main_calls_carry_no_state_into_the_next(tmp_path, capsys):
    solve = ["solve", "--preset", "paper9", "--seed", "7", "--out", str(tmp_path / "run")]
    assert main(solve + ["--format", "json"]) == 0
    json.loads(capsys.readouterr().out)
    assert main(solve) == 0
    assert capsys.readouterr().out.startswith(" dev ")  # the table
    assert main(["--verbose"] + solve) == 0
    assert main(solve) == 0
    assert logging.getLogger("fedrelay").level == logging.NOTSET
    with pytest.raises(SystemExit) as exc:
        main(solve[:-2])  # no --out
    assert exc.value.code == 2
    assert main(solve) == 0
    capsys.readouterr()
    helps = []
    for _ in range(2):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        helps.append(capsys.readouterr().out)
    assert helps[0].startswith("usage: fedrelay") and helps[1] == helps[0]


def test_validate_preset_ok(capsys):
    assert main(["validate", "--preset", "paper9", "--seed", "3"]) == 0
    assert "scenario OK" in capsys.readouterr().out


def test_validate_rejects_zero_noise(tmp_path, capsys):
    data = scenario_to_dict(paper9_scenario(3))
    data["global"]["sigma2"] = 0.0
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    assert main(["validate", "--scenario", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("invalid config:") and err.count("\n") == 1 and "sigma2" in err


@pytest.mark.parametrize("gain", [0.0, -1.0, math.inf])
def test_validate_rejects_off_diagonal_gain_exit_2(tmp_path, capsys, gain):
    data = scenario_to_dict(paper9_scenario(3))
    h = np.full((10, 10), data["global"]["h"])
    h[2, 9] = gain
    data["global"]["h"] = h.tolist()
    path = tmp_path / "gain.json"
    path.write_text(json.dumps(data))
    assert main(["validate", "--scenario", str(path)]) == 2
    err = capsys.readouterr().err
    assert err == "invalid config: off-diagonal channel gains h_ij must be positive and finite\n"


def test_validate_rejects_infinite_diagonal_gain_exit_2(tmp_path, capsys):
    # never a link, but report.json holds the full h, and JSON has no Infinity
    data = scenario_to_dict(paper9_scenario(3))
    h = np.full((10, 10), data["global"]["h"])
    h[4, 4] = math.inf
    data["global"]["h"] = h.tolist()
    path = tmp_path / "gain.json"
    path.write_text(json.dumps(data))
    assert main(["validate", "--scenario", str(path)]) == 2
    assert capsys.readouterr().err == "invalid config: diagonal channel gains h_ii must be finite\n"


def test_validate_missing_scenario_file_exit_2(tmp_path, capsys):
    path = tmp_path / "missing.json"
    assert main(["validate", "--scenario", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("invalid config:") and err.count("\n") == 1 and str(path) in err


def _nan_position(data):
    data["positions"][0][1] = float("nan")


def _infinite_update_size(data):
    data["global"]["I_d"] = float("inf")


def _nan_relay_fee(data):
    data["global"]["c_a"] = float("nan")


def _infinite_accuracy_a(data):
    data["devices"][1]["accuracy"]["a"] = float("inf")


def _infinite_accuracy_c(data):
    data["devices"][1]["accuracy"]["c"] = float("inf")


def _ragged_positions(data):
    data["positions"][2] = [1.0]


def _text_positions(data):
    data["positions"][2][0] = "east"


def _no_devices(data):
    data["devices"] = []


def _three_coordinates(data):
    data["positions"] = [p + [0.0] for p in data["positions"]]


def _gain_9x9(data):
    data["global"]["h"] = [[10.0] * 9] * 9


def _ragged_gain(data):
    data["global"]["h"] = [[10.0, 10.0], [10.0]]


def _text_gain(data):
    data["global"]["h"] = "ten"


@pytest.mark.parametrize(
    "corrupt, message",
    [
        (_nan_position, "positions"),
        (_infinite_update_size, "I_d"),
        (_nan_relay_fee, "c_a"),
        (_infinite_accuracy_a, "accuracy coefficient a"),
        (_infinite_accuracy_c, "accuracy coefficient c"),
        (_ragged_positions, "malformed scenario config"),
        (_text_positions, "malformed scenario config"),
        (_ragged_gain, "malformed scenario config"),
        (_text_gain, "malformed scenario config"),
        (_no_devices, "scenario needs at least one device"),
        (_three_coordinates, "positions must have shape (10, 2)"),
        (_gain_9x9, "h must be scalar or (10, 10)"),
    ],
)
def test_solve_rejects_non_finite_scenario(tmp_path, capsys, corrupt, message):
    data = scenario_to_dict(paper9_scenario(3))
    corrupt(data)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    assert main(["solve", "--scenario", str(path), "--out", str(tmp_path / "run")]) == 2
    err = capsys.readouterr().err
    assert "invalid config" in err and message in err


# (section, key, a value past the range, the range's bound)
RANGE_CASES = [
    ("global", "sigma2", 1e300, SIGMA2_MAX),
    ("global", "sigma2", 1e-300, SIGMA2_MIN),
    ("device", "p_max", 1e-300, P_MAX_MIN),
    ("global", "alpha", 1e300, ALPHA_MAX),
    ("global", "I_d", 1e300, I_D_MAX),
    ("device", "r_p", 1e-300, R_P_MIN),
    ("device", "T_a", 1e300, T_A_MAX),
    ("device", "w", 1e-300, W_MIN),
    ("device", "s_max", 1e300, S_MAX_MAX),
]


def _paper9_with(tmp_path, section, key, value):
    data = scenario_to_dict(paper9_scenario(3))
    for entry in data["devices"] if section == "device" else [data["global"]]:
        entry[key] = value
    path = tmp_path / f"{key}.json"
    path.write_text(json.dumps(data))
    return path


@pytest.mark.parametrize(
    "section, key, value, bound", RANGE_CASES, ids=[f"{k}={v:g}" for _, k, v, _ in RANGE_CASES]
)
def test_solve_rejects_value_out_of_range(tmp_path, capsys, section, key, value, bound):
    path = _paper9_with(tmp_path, section, key, value)
    assert main(["solve", "--scenario", str(path), "--out", str(tmp_path / "run")]) == 2
    err = capsys.readouterr().err
    assert "invalid config" in err and key in err and f"{bound:g}" in err


@pytest.mark.parametrize(
    "section, key, value, bound", RANGE_CASES, ids=[f"{k}={b:g}" for _, k, _, b in RANGE_CASES]
)
def test_solve_at_range_bound_writes_finite_artifacts(tmp_path, section, key, value, bound):
    path = _paper9_with(tmp_path, section, key, bound)
    out = tmp_path / "run"
    assert main(["solve", "--scenario", str(path), "--out", str(out)]) in (0, 3)

    def reject(constant):
        raise AssertionError(f"report.json holds {constant}")

    json.loads((out / "report.json").read_text(), parse_constant=reject)
    for name in ("prices.csv", "demands.csv", "rates.csv", "profits.csv", "equilibrium.csv"):
        for row in read_csv(out / name)[1:]:
            assert all(cell.lower() not in ("nan", "inf", "-inf") for cell in row), (name, row)


def _paper9_far_apart(tmp_path):
    data = scenario_to_dict(paper9_scenario(3))
    data["positions"] = [[x * 1e100 for x in xy] for xy in data["positions"]]
    path = tmp_path / "far.json"
    path.write_text(json.dumps(data))
    return path


def _paper9_weak_links(tmp_path):
    """Noise, path loss and power bound each inside their range, but
    together too weak for any link to carry a rate."""
    data = scenario_to_dict(paper9_scenario(3))
    data["global"].update(sigma2=1e6, alpha=6.0)
    for entry in data["devices"]:
        entry["p_max"] = 1e-6
    path = tmp_path / "weak.json"
    path.write_text(json.dumps(data))
    return path


def _paper9_energy_overflow(tmp_path):
    """Every cost and the update size inside their ranges, but the energy
    cost c_t * I_d * p / rate of every direct link past the largest float."""
    data = scenario_to_dict(paper9_scenario(7))
    data["global"]["I_d"] = 1e6
    for entry in data["devices"]:
        entry["c_t"] = 1e308
    path = tmp_path / "energy.json"
    path.write_text(json.dumps(data))
    return path


@pytest.mark.parametrize("case", ["power_grid", "weak_links", "far_apart", "energy_overflow"])
def test_solve_zero_rate_direct_floor_exits_2(tmp_path, capsys, case):
    if case == "power_grid":
        source = ["--preset", "paper9", "--seed", "7", "--power-grid", "1000000000000000000"]
    else:
        build = {
            "weak_links": _paper9_weak_links,
            "far_apart": _paper9_far_apart,
            "energy_overflow": _paper9_energy_overflow,
        }[case]
        source = ["--scenario", str(build(tmp_path))]
        assert main(["validate", *source]) == 0
        capsys.readouterr()
    assert main(["solve", *source, "--out", str(tmp_path / "run")]) == 2
    err = capsys.readouterr().err
    assert "invalid config: device" in err and "on its direct link at the power floor" in err
    if case == "energy_overflow":
        assert "non-finite profit" in err and "overflows" in err
    else:
        assert "rate 0" in err and "--power-grid" in err
    assert "Traceback" not in err


def test_solve_overflowing_positions_exit_2(tmp_path, capsys):
    # coordinates near 1e200 square past the largest float
    data = scenario_to_dict(paper9_scenario(3))
    data["positions"] = [[x * 1e200 for x in xy] for xy in data["positions"]]
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps(data))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["solve", "--scenario", str(path), "--out", str(tmp_path / "run")])
    assert code == 2
    assert [str(w.message) for w in caught] == []
    err = capsys.readouterr().err
    assert "invalid config: node positions are too far apart" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["solve", "validate"])
def test_overflowing_path_loss_exit_2(tmp_path, capsys, command):
    # squared distances near 1e122 stay finite, but their cube (alpha = 6) does not
    data = scenario_to_dict(paper9_scenario(3))
    data["positions"] = [[x * 1e60 for x in xy] for xy in data["positions"]]
    data["global"]["alpha"] = ALPHA_MAX
    path = tmp_path / "path-loss.json"
    path.write_text(json.dumps(data))
    argv = [command, "--scenario", str(path)]
    if command == "solve":
        argv += ["--out", str(tmp_path / "run")]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(argv)
    assert code == 2
    assert [str(w.message) for w in caught] == []
    err = capsys.readouterr().err
    assert "node positions are too far apart for path-loss exponent alpha = 6" in err
    assert "Traceback" not in err


def _huge_accuracy_everywhere(data):
    for d in data["devices"]:
        d["accuracy"]["a"] = d["accuracy"]["b"] = 1e308


def _huge_accuracy_device_0(data):
    data["devices"][0]["accuracy"]["a"] = data["devices"][0]["accuracy"]["b"] = 1e308


def _huge_accuracy_a_twice(data):
    # each c * b stays finite; only the owner's utility, a sum, overflows
    for d in data["devices"][:2]:
        d["accuracy"]["a"] = 1e308


_C_TIMES_B_OVERFLOW = "accuracy coefficients c * b overflow (c = 15.28, b = 1e+308)"


@pytest.mark.parametrize("command", ["solve", "validate"])
@pytest.mark.parametrize(
    "corrupt, message",
    [
        (_huge_accuracy_everywhere, _C_TIMES_B_OVERFLOW),
        (_huge_accuracy_device_0, _C_TIMES_B_OVERFLOW),
        (_huge_accuracy_a_twice, "accuracy coefficients overflow: the sum of a + b is not finite"),
    ],
    ids=["_huge_accuracy_everywhere", "_huge_accuracy_device_0", "_huge_accuracy_a_twice"],
)
def test_overflowing_accuracy_curve_exit_2(tmp_path, capsys, command, corrupt, message):
    data = scenario_to_dict(paper9_scenario(7))
    corrupt(data)
    path = tmp_path / "accuracy.json"
    path.write_text(json.dumps(data))
    argv = [command, "--scenario", str(path)]
    if command == "solve":
        argv += ["--out", str(tmp_path / "run")]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(argv)
    assert code == 2
    assert [str(w.message) for w in caught] == []
    assert capsys.readouterr().err == f"invalid config: {message}\n"


def _huge_processing_time(data):
    # c * b = 10 and c = 1e-300 put the demand near 1e300, so T_s = s / r_p, near 1e306, squares
    # past the largest float
    data["devices"][1]["accuracy"] = {"a": 1.0, "b": 1e301, "c": 1e-300}
    data["devices"][1].update(s_max=1e305, r_p=1e-6)


def _huge_p_max(data):
    for d in data["devices"]:
        d["p_max"] = 1e308


def _coinciding_nodes(data):
    # d ** 6 underflows to 0, so the gain h / d ** 6 is infinite
    data["global"]["alpha"] = ALPHA_MAX
    data["positions"][0], data["positions"][1] = [0.0, 0.0], [1e-60, 0.0]


def _close_nodes_huge_p_max(data):
    data["positions"] = [[x * 0.01 for x in xy] for xy in data["positions"]]
    _huge_p_max(data)


def _huge_p_max_over_noise(data):
    # every received power is finite, but not its ratio to the noise
    data["global"]["sigma2"] = SIGMA2_MIN
    for d in data["devices"]:
        d["p_max"] = 1e303


@pytest.mark.parametrize("command", ["solve", "validate"])
@pytest.mark.parametrize(
    "corrupt, message",
    [
        (_huge_processing_time, "device parameter s_max must be finite and > 0 and <= 1e+06"),
        (_huge_p_max, "received power overflows"),
        (_coinciding_nodes, "a channel gain h_ij / d_ij ** alpha is not finite"),
        (_close_nodes_huge_p_max, "received power overflows"),
        (_huge_p_max_over_noise, "received power overflows"),
    ],
    ids=["processing_time", "p_max", "coinciding_nodes", "close_nodes_p_max", "p_max_over_noise"],
)
def test_scenario_beyond_floating_point_exit_2(tmp_path, capsys, command, corrupt, message):
    data = scenario_to_dict(paper9_scenario(7))
    corrupt(data)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(data))
    argv = [command, "--scenario", str(path)]
    if command == "solve":
        argv += ["--out", str(tmp_path / "run")]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(argv)
    assert code == 2
    assert [str(w.message) for w in caught] == []
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err


def test_solve_large_power_grid_writes_finite_artifacts(tmp_path):
    out = tmp_path / "run"
    argv = ["solve", "--preset", "paper9", "--seed", "7", "--power-grid", "100000000000000"]
    assert main([*argv, "--out", str(out)]) in (0, 3)

    def reject(constant):
        raise AssertionError(f"report.json holds {constant}")

    json.loads((out / "report.json").read_text(), parse_constant=reject)
    for row in read_csv(out / "equilibrium.csv")[1:]:
        assert all(cell.lower() not in ("nan", "inf", "-inf") for cell in row), row


@pytest.mark.parametrize("grid", [0, 10**400], ids=["zero", "beyond_float"])
def test_solve_rejects_power_grid_below_one(tmp_path, capsys, grid):
    code = main(["solve", "--preset", "paper9", "--seed", "7", "--out", str(tmp_path / "run"),
                 "--power-grid", str(grid)])
    assert code == 2
    err = capsys.readouterr().err
    assert "--power-grid" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "--random", str(10**30), "--seed", "1"],
        ["validate", "--random", str(2**62), "--seed", "1"],
        ["solve", "--random", str(2**24), "--seed", "1"],
        ["validate", "--random", str(2**24), "--seed", "1"],
    ],
    ids=["solve_1e30", "validate_2e62", "solve_2e24", "validate_2e24"],
)
def test_random_beyond_array_limit_exits_2(tmp_path, capsys, argv):
    # numpy refuses the first two sizes before allocating anything; at 2**24
    # the 2 PiB gain matrix fails to allocate under any overcommit policy,
    # and it is tried before a single draw
    if argv[0] == "solve":
        argv = [*argv, "--out", str(tmp_path / "run")]
    assert main(argv) == 2
    assert f"too many devices for one scenario: n={argv[2]}" in capsys.readouterr().err


def test_scenario_past_memory_exits_2(tmp_path, capsys, monkeypatch):
    path = tmp_path / "scen.json"
    save_scenario(paper9_scenario(7), path)

    def refuse(positions):
        raise MemoryError

    monkeypatch.setattr(scenario, "_distance_matrix", refuse)
    assert main(["validate", "--scenario", str(path)]) == 2
    assert "too many devices for one scenario: n=9" in capsys.readouterr().err


NUMPY_RANDOM_CHILD = """
import contextlib, io, json, sys
import numpy
bare = "numpy.random" in sys.modules
from fedrelay.cli import main
codes, loaded = [], []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(main(argv))
    loaded.append("numpy.random" in sys.modules)
print(json.dumps([bare, codes, loaded]))
"""


def test_runs_leave_numpy_random_unloaded(tmp_path):
    runs = [
        ["solve", "--preset", "paper9", "--seed", "7", "--out", str(tmp_path / "p9")],
        ["validate", "--preset", "paper9", "--seed", "7"],
        ["solve", "--random", "5", "--seed", "1", "--out", str(tmp_path / "r5")],
        ["validate", "--random", "5", "--seed", "1"],
    ]
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-c", NUMPY_RANDOM_CHILD, json.dumps(runs)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    bare, codes, loaded = json.loads(done.stdout)
    if bare:
        pytest.skip("a bare `import numpy` loads numpy.random (numpy < 2)")
    assert codes == [0, 0, 0, 0]
    assert loaded == [False, False, False, False]


def test_unknown_preset_rejected_in_library():
    with pytest.raises(ScenarioError, match="unknown preset 'relay9'"):
        RunConfig(preset="relay9", seed=1)


def test_validate_requires_exactly_one_source(tmp_path, capsys):
    assert main(["validate", "--preset", "paper9", "--random", "4", "--seed", "1"]) == 2
    assert main(["validate", "--preset", "paper9"]) == 2  # missing seed
    assert main(["validate"]) == 2
    capsys.readouterr()
    for source in (["--random", "1", "--seed", "-1"], ["--preset", "paper9", "--seed", "-3"]):
        out = tmp_path / "run"
        assert main(["solve", *source, "--out", str(out)]) == 2
        assert "seed" in capsys.readouterr().err
        assert not out.exists()


def test_validate_table_routing_structurally(tmp_path):
    adj = {"1": "N_D", "2": "N_D", "3": "7", "4": "N_D", "5": "4",
           "6": "4", "7": "N_D", "8": "N_D", "9": "N_D"}
    path = tmp_path / "routing.json"
    path.write_text(json.dumps(adj))
    assert main(["validate", "--preset", "paper9", "--seed", "3", "--routing", str(path)]) == 0


def test_validate_rejects_cyclic_routing(tmp_path, capsys):
    adj = {"1": "2", "2": "1", "3": "N_D"}
    path = tmp_path / "routing.json"
    path.write_text(json.dumps(adj))
    assert main(["validate", "--random", "3", "--seed", "5", "--routing", str(path)]) == 2
    assert "VIOLATED" in capsys.readouterr().out


def test_validate_profile_full_feasibility(tmp_path):
    scen, scen_path = relayable_scenario_file(tmp_path)
    profile = {"prices": [50.0, 5.0], "targets": [2, 2], "powers": [1.0, 1.0]}
    prof_path = tmp_path / "profile.json"
    prof_path.write_text(json.dumps(profile))
    assert main(["validate", "--scenario", str(scen_path), "--profile", str(prof_path)]) == 0
    bad = {"prices": [50.0, 5.0], "targets": [1, 2], "powers": [1e-6, 1.0]}
    prof_path.write_text(json.dumps(bad))  # relayed at hopeless rate
    assert main(["validate", "--scenario", str(scen_path), "--profile", str(prof_path)]) == 2


def test_solve_writes_artifacts(tmp_path, capsys):
    out = tmp_path / "run"
    code = main(["solve", "--preset", "paper9", "--seed", "7", "--out", str(out)])
    assert code == 0
    names = {
        "routing.txt", "prices.csv", "demands.csv", "rates.csv",
        "profits.csv", "equilibrium.csv", "report.json",
    }
    assert names <= {p.name for p in out.iterdir()}

    lines = (out / "routing.txt").read_text().splitlines()
    assert len(lines) == 9
    assert all(line.endswith("N_D") for line in lines)

    rows = read_csv(out / "equilibrium.csv")
    assert rows[0] == ["device_id", "price", "demand", "rate", "power", "target", "profit"]
    assert len(rows) == 10
    scen = paper9_scenario(7)
    for row in rows[1:]:
        i = int(row[0]) - 1
        assert float(row[1]) <= scen.devices[i].q_max
        assert all(np.isfinite(float(x)) for x in (row[1], row[2], row[3], row[4], row[6]))

    prices = read_csv(out / "prices.csv")
    assert prices[0] == ["device_id", "price"]
    assert len(prices) == 10

    report = json.loads((out / "report.json").read_text())
    assert report["report"]["converged"] is True
    assert report["config"]["seed"] == 7
    assert report["scenario"]["global"]["c_a"] == 0.0096
    # the report describes the one run of the dynamics; no field or table
    # entry compares it with another update order
    assert set(report["report"]) == {
        "prices", "targets", "powers", "demand", "rates", "profits", "owner_utility",
        "converged", "iterations", "max_unilateral_gain", "feasible", "violations", "routing",
    }
    last = capsys.readouterr().out.splitlines()[-1]
    assert last.startswith("owner_utility=") and last.endswith(" feasible=True")


def test_solve_deterministic_bytes(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["solve", "--preset", "paper9", "--seed", "11", "--out", str(out1)]) == 0
    assert main(["solve", "--preset", "paper9", "--seed", "11", "--out", str(out2)]) == 0
    for name in ("routing.txt", "prices.csv", "demands.csv", "rates.csv",
                 "profits.csv", "equilibrium.csv", "report.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


ARTIFACTS = ("routing.txt", "prices.csv", "demands.csv", "rates.csv",
             "profits.csv", "equilibrium.csv", "report.json")


def test_solve_into_fresh_dir_leaves_no_tmp_file(tmp_path):
    out = tmp_path / "fresh" / "run"
    assert main(["solve", *PAPER9, "--out", str(out)]) == 0
    assert sorted(p.name for p in out.iterdir()) == sorted(ARTIFACTS)


def test_second_solve_replaces_every_artifact_with_same_bytes(tmp_path):
    out = tmp_path / "run"
    assert main(["solve", *PAPER9, "--out", str(out)]) == 0
    first = tmp_path / "first"
    first.mkdir()
    for name in ARTIFACTS:
        (first / name).hardlink_to(out / name)  # keeps the first run's file alive
    assert main(["solve", *PAPER9, "--out", str(out)]) == 0
    assert sorted(p.name for p in out.iterdir()) == sorted(ARTIFACTS)
    for name in ARTIFACTS:
        # a rename put a new file in place; the first one was not written over
        assert not (out / name).samefile(first / name)
        assert (out / name).read_bytes() == (first / name).read_bytes()


def test_solve_replaces_stale_artifacts(tmp_path):
    fresh, out = tmp_path / "fresh", tmp_path / "stale"
    assert main(["solve", *PAPER9, "--out", str(fresh)]) == 0
    out.mkdir()
    for name in ARTIFACTS:
        (out / name).write_text("stale " * 2000)  # longer than any artifact
        (out / f"{name}.tmp").write_text("left by an interrupted run " * 2000)
    assert main(["solve", *PAPER9, "--out", str(out)]) == 0
    assert sorted(p.name for p in out.iterdir()) == sorted(ARTIFACTS)
    for name in ARTIFACTS:
        assert (out / name).read_bytes() == (fresh / name).read_bytes()


def test_solve_scenario_file_relay_topology(tmp_path):
    _, path = relayable_scenario_file(tmp_path)
    out = tmp_path / "run"
    assert main(["solve", "--scenario", str(path), "--out", str(out)]) == 0
    lines = (out / "routing.txt").read_text().splitlines()
    assert lines == ["1 -> 2 -> N_D", "2 -> N_D"]


def test_solve_nonconverged_exit_code(tmp_path):
    # one round per penalty stage leaves this relay instance short of an
    # equilibrium (its certificate gain is about 8.5e-4)
    scen = dataclasses.replace(random_scenario(9, 1, RELAY_SPEC), I_d=0.1)
    path = tmp_path / "scenario.json"
    save_scenario(scen, path)
    out = tmp_path / "run"
    code = main(["solve", "--scenario", str(path), "--out", str(out), "--max-iter", "1"])
    assert code == 3
    assert (out / "report.json").exists()  # artifacts written anyway
    report = json.loads((out / "report.json").read_text())
    assert report["report"]["converged"] is False
    # the reloaded certificate scores the paying deviations again
    stored, recomputed = reverify_unilateral_gain(out / "report.json")
    assert stored > 0
    assert recomputed == stored


def test_solve_format_json_and_csv(tmp_path, capsys):
    out = tmp_path / "run"
    main(["solve", "--preset", "paper9", "--seed", "7", "--out", str(out),
          "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert payload["converged"] is True
    assert payload == json.loads((out / "report.json").read_text())["report"]
    main(["solve", "--preset", "paper9", "--seed", "7", "--out", str(out),
          "--format", "csv"])
    printed = capsys.readouterr().out
    first = printed.splitlines()[0]
    assert first == "device_id,price,demand,rate,power,target,profit"
    assert printed.encode() == (out / "equilibrium.csv").read_bytes()
    # the table printout of a solve that relays
    _, path = relayable_scenario_file(tmp_path)
    assert main(["solve", "--scenario", str(path), "--out", str(out)]) == 0
    table = capsys.readouterr().out.splitlines()
    targets = [line.split()[5] for line in table[1:-1]]
    assert targets == [row[5] for row in read_csv(out / "equilibrium.csv")[1:]] == ["2", "N_D"]


def test_report_roundtrip_reproduces_gain(tmp_path):
    out = tmp_path / "run"
    main(["solve", "--preset", "paper9", "--seed", "7", "--out", str(out)])
    stored, recomputed = reverify_unilateral_gain(out / "report.json")
    assert abs(stored - recomputed) <= 1e-12


def _target_99(report):
    report["targets"][0] = 99


def _five_of_nine(report):
    for key in ("prices", "targets", "powers"):
        report[key] = report[key][:5]


def _price_1e9(report):
    report["prices"][3] = 1e9


@pytest.mark.parametrize(
    "edit, message",
    [
        (_target_99, "targets must lie in 0..9"),
        (_five_of_nine, "5 devices, the scenario has 9"),
        (_price_1e9, r"device 3 price 1e\+09 lies outside \[8.39055e-05, "),
    ],
    ids=["target_99", "five_of_nine", "price_1e9"],
)
def test_reverify_rejects_report_that_does_not_fit(tmp_path, edit, message):
    out = tmp_path / "run"
    assert main(["solve", "--preset", "paper9", "--seed", "7", "--out", str(out)]) == 0
    path = out / "report.json"
    payload = json.loads(path.read_text())
    edit(payload["report"])
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match=message):
        reverify_unilateral_gain(path)


@pytest.mark.parametrize("command", ["solve", "validate"])
def test_empty_price_domain_exit_2(tmp_path, capsys, command):
    # a q_max below the price floor leaves device 0 no admissible price
    data = scenario_to_dict(paper9_scenario(7))
    data["devices"][0]["q_max"] = 1e-10
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(data))
    argv = [command, "--scenario", str(path)]
    if command == "solve":
        argv += ["--out", str(tmp_path / "run")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "q_max must be >= the price floor 8.39055e-05" in err and "Traceback" not in err


def test_sweep_relay_fee_zero_drops_relay_terms(tmp_path):
    _, path = relayable_scenario_file(tmp_path)
    out = tmp_path / "sweep"
    code = main(["sweep", "--scenario", str(path), "--out", str(out),
                 "--param", "c_a", "--values", "0"])
    assert code == 0
    rows = read_csv(out / "sweep.csv")
    assert rows[0] == ["param", "value", "converged",
                       "device_id", "price", "demand", "rate", "power", "target", "profit"]
    # with no relay fee, profit is exactly revenue - energy - processing
    scen, _ = relayable_scenario_file(tmp_path)
    for row in rows[1:]:
        i = int(row[3]) - 1
        price, demand, rate, power, profit = map(float, (row[4], row[5], row[6], row[7], row[9]))
        d = scen.devices[i]
        energy = d.c_t * (scen.I_d / rate) * power
        want = price * demand - energy - d.c_p * demand
        assert profit == pytest.approx(want, rel=1e-9)


def test_sweep_update_size_monotone_energy(tmp_path):
    # recompute the transmission cost at a frozen profile for growing I_d
    scen, path = relayable_scenario_file(tmp_path)
    out = tmp_path / "run"
    main(["solve", "--scenario", str(path), "--out", str(out)])
    report = json.loads((out / "report.json").read_text())
    powers = np.asarray(report["report"]["powers"])
    rates = np.asarray(report["report"]["rates"])
    last = np.zeros(scen.n_devices)
    for I_d in (0.05, 0.1, 0.2, 0.4):
        frozen = dataclasses.replace(scen, I_d=I_d)
        cost = np.array([
            transmission_energy_cost(i, powers, rates, frozen)
            for i in range(scen.n_devices)
        ])
        assert np.all(cost >= last)
        last = cost


def test_sweep_empty_range(tmp_path):
    _, path = relayable_scenario_file(tmp_path)
    out = tmp_path / "sweep"
    code = main(["sweep", "--scenario", str(path), "--out", str(out),
                 "--param", "c_a", "--values", ""])
    assert code == 0
    rows = read_csv(out / "sweep.csv")
    assert rows == [["param", "value", "converged",
                     "device_id", "price", "demand", "rate", "power", "target", "profit"]]


def test_sweep_rejects_unknown_parameter(tmp_path, capsys):
    _, path = relayable_scenario_file(tmp_path)
    assert main(["sweep", "--scenario", str(path), "--out", str(tmp_path / "s"),
                 "--param", "bogus", "--values", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("invalid config:") and err.count("\n") == 1 and "bogus" in err


def test_sweep_deterministic(tmp_path):
    _, path = relayable_scenario_file(tmp_path)
    out1, out2 = tmp_path / "s1", tmp_path / "s2"
    args = ["--param", "I_d", "--values", "0.05,0.1,0.2"]
    assert main(["sweep", "--scenario", str(path), "--out", str(out1)] + args) == 0
    assert main(["sweep", "--scenario", str(path), "--out", str(out2)] + args) == 0
    assert (out1 / "sweep.csv").read_bytes() == (out2 / "sweep.csv").read_bytes()


def test_sweep_alpha_matches_fresh_solves(tmp_path):
    # alpha is the sweepable parameter that changes the channel matrix
    out = tmp_path / "sweep"
    assert main(["sweep", "--preset", "paper9", "--seed", "7", "--out", str(out),
                 "--param", "alpha", "--values", "2,3"]) == 0
    header, *rows = read_csv(out / "sweep.csv")
    by_alpha = {}
    for alpha in (2.0, 3.0):
        path = tmp_path / f"alpha{alpha}.json"
        save_scenario(dataclasses.replace(paper9_scenario(7), alpha=alpha), path)
        run = tmp_path / f"solve{alpha}"
        assert main(["solve", "--scenario", str(path), "--out", str(run)]) == 0
        by_alpha[alpha] = [r[3:] for r in rows if float(r[1]) == alpha]
        assert by_alpha[alpha] == read_csv(run / "equilibrium.csv")[1:]
    assert by_alpha[2.0] != by_alpha[3.0]


def test_custom_m_schedule_flag(tmp_path):
    out = tmp_path / "run"
    code = main(["solve", "--preset", "paper9", "--seed", "7", "--out", str(out),
                 "--m-schedule", "100,10000,1000000"])
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["config"]["m_schedule"] == [100.0, 10000.0, 1000000.0]


def test_sweep_jobs_is_ignored(tmp_path):
    _, path = relayable_scenario_file(tmp_path)
    args = ["--param", "I_d", "--values", "0.05,0.1,0.2,0.4"]
    outs = []
    for jobs in ("1", "3"):
        out = tmp_path / f"jobs{jobs}"
        assert main(["sweep", "--scenario", str(path), "--out", str(out), "--jobs", jobs] + args) == 0
        outs.append((out / "sweep.csv").read_bytes())
    assert outs[0] == outs[1]


def _write_json(tmp_path, name, data):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


# the names of Python's exception classes and of the library's own
EXCEPTION_NAMES = [
    name for name, obj in vars(builtins).items()
    if isinstance(obj, type) and issubclass(obj, BaseException) and not issubclass(obj, Warning)
] + ["ScenarioError", "PowerLimitError"]


@pytest.mark.parametrize(
    "profile, message",
    [
        ({"prices": [50.0, 5.0], "powers": [1.0, 1.0]}, "targets"),
        ({"prices": [50.0, 5.0], "targets": [2], "powers": [1.0, 1.0]}, "equal length"),
        ({"prices": [50.0, 5.0], "targets": [0, 2], "powers": [1.0, 1.0]}, "itself"),
        ({"prices": [50.0], "targets": [2], "powers": [1.0]}, "scenario has 2"),
        ({"prices": [50.0, 5.0], "targets": [7, 2], "powers": [1.0, 1.0]}, "targets must lie"),
        ({"prices": [50.0, 5.0], "targets": [2, 2], "powers": [-1.0, 1.0]}, "powers must be positive"),
        ({"prices": [50.0, 5.0], "targets": [1.7, 2], "powers": [1.0, 1.0]}, "integers"),
        ({"prices": [float("nan"), 5.0], "targets": [1, 2], "powers": [1.0, 1.0]}, "prices must be finite"),
        ({"prices": [50.0, 5.0], "targets": [1, 2], "powers": [float("inf"), 1.0]}, "powers must be finite"),
        ({"prices": [50.0, 5.0], "targets": [1, 2], "powers": [float("nan"), 1.0]}, "powers must be finite"),
        ({"prices": [50.0, 5.0], "targets": [2, 2], "powers": [11.0, 1.0]}, "device 0 power 11 exceeds p_max 10"),
        ({"prices": [50.0, 5.0], "targets": [2, 2], "powers": [1e308, 1.0]}, "device 0 power 1e+308 exceeds"),
        ({"prices": [1e9, 5.0], "targets": [2, 2], "powers": [1.0, 1.0]}, "device 0 price 1e+09 lies outside [1e-05, 120]"),
        ({"prices": [50.0, 1e-300], "targets": [2, 2], "powers": [1.0, 1.0]}, "device 1 price 1e-300 lies outside [1e-05, 10]"),
        ({"prices": [50.0, 5.0], "targets": [1, 2], "powers": [1e-300, 1.0]}, "no positive transmission rate"),
        # numpy reads these as numbers; a profile holds JSON numbers only
        ({"prices": ["50", "5"], "targets": [2, 2], "powers": [1.0, 1.0]}, 'prices must be a list of numbers, got "50"'),
        ({"prices": [50.0, 5.0], "targets": [2, 2], "powers": [1.0, "1"]}, 'powers must be a list of numbers, got "1"'),
        ({"prices": [50.0, 5.0], "targets": [2, 2], "powers": [True, 1.0]}, "powers must be a list of numbers, got true"),
        ({"prices": [50.0, False], "targets": [2, 2], "powers": [1.0, 1.0]}, "prices must be a list of numbers, got false"),
        ({"prices": [50.0, 5.0], "targets": [True, 2], "powers": [1.0, 1.0]}, "targets must be a list of numbers, got true"),
        ({"prices": [50.0, 5.0], "targets": [2, 2], "powers": [None, 1.0]}, "powers must be a list of numbers, got null"),
        ({"prices": 50.0, "targets": [2, 2], "powers": [1.0, 1.0]}, "prices must be a list of numbers"),
        ({"prices": [10**400, 5.0], "targets": [2, 2], "powers": [1.0, 1.0]}, "prices[0] is an integer too large"),
        ({"targets": [2, 2], "powers": [1.0, 1.0]}, 'missing field "prices"'),
    ],
)
def test_validate_rejects_malformed_profile(tmp_path, capsys, profile, message):
    _, scen_path = relayable_scenario_file(tmp_path)
    prof_path = _write_json(tmp_path, "profile.json", profile)
    assert main(["validate", "--scenario", str(scen_path), "--profile", prof_path]) == 2
    err = capsys.readouterr().err
    assert "invalid config" in err and message in err
    assert [name for name in EXCEPTION_NAMES if name in err] == []


ALL_DIRECT = {str(k): "N_D" for k in range(1, 10)}


@pytest.mark.parametrize(
    "adj, message",
    [
        ({"12": "N_D"}, "device id 12"),
        ({"1": "12"}, "target 12"),
        ({"1": "0"}, "target 0"),
        ({"one": "N_D"}, 'device id "one" is not an integer'),
        ({"1": "two"}, "target 'two' of device 1"),
        ({"1": None}, "target None of device 1"),
        (["N_D"], "the file must hold a JSON object"),
        ({"2": "N_D"}, "devices [1, 3, 4, 5, 6, 7, 8, 9] have no target"),
        ({**ALL_DIRECT, "1": 2.7}, "target 2.7 of device 1 is not an integer"),
        ({**ALL_DIRECT, "2": True}, "target True of device 2 is not an integer"),
    ],
)
def test_validate_rejects_malformed_routing(tmp_path, capsys, adj, message):
    path = _write_json(tmp_path, "routing.json", adj)
    assert main(["validate", "--preset", "paper9", "--seed", "3", "--routing", path]) == 2
    err = capsys.readouterr().err
    assert "invalid config" in err and message in err


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--m-schedule", "1,abc"], "--m-schedule"),
        (["--m-schedule", "10,1"], "strictly increasing"),
        (["--m-schedule", "10,nan"], "finite"),
        (["--m-schedule", "10,inf"], "finite"),
        (["--m-schedule", ","], "nonempty"),
        (["--max-iter", "0"], "--max-iter"),
        (["--max-iter", "-3"], "--max-iter"),
    ],
)
def test_solve_rejects_bad_solver_settings(tmp_path, capsys, flags, message):
    out = tmp_path / "run"
    assert main(["solve", "--preset", "paper9", "--seed", "7", "--out", str(out)] + flags) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


PAPER9 = ["--preset", "paper9", "--seed", "7"]


@pytest.mark.parametrize(
    "argv",
    [
        ["validate", *PAPER9, "--eps-nash", "1e-6"],
        ["validate", *PAPER9, "--m-schedule", "10,100"],
        ["validate", *PAPER9, "--max-iter", "5"],
        ["validate", *PAPER9, "--power-grid", "50"],
        ["solve", *PAPER9, "--eps-nash", "1e-6"],
        ["sweep", *PAPER9, "--param", "I_d", "--values", "0.1", "--format", "csv"],
        ["sweep", *PAPER9, "--param", "I_d", "--values", "0.1", "--eps-nash", "1e-6"],
    ],
    ids=["validate_eps_nash", "validate_m_schedule", "validate_max_iter", "validate_power_grid",
         "solve_eps_nash", "sweep_format", "sweep_eps_nash"],
)
def test_parser_rejects_flags_the_subcommand_does_not_read(tmp_path, capsys, argv):
    unread = " ".join(argv[-2:])
    out = tmp_path / "run"
    if argv[0] != "validate":
        argv = argv + ["--out", str(out)]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    usage, error = capsys.readouterr().err.splitlines()
    assert usage.startswith("usage: fedrelay")
    assert error == f"fedrelay: error: unrecognized arguments: {unread}"
    assert not out.exists()


def test_frozen_benchmark_copies_of_the_defaults():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "checks.py"
    spec = importlib.util.spec_from_file_location("perfbench_checks", path)
    checks = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(checks)
    assert checks.EPS_NASH == PenaltyConfig.eps_nash
    assert checks.POWER_GRID == RunConfig.power_grid


@pytest.mark.parametrize(
    "flag, content, message",
    [
        ("--scenario", b"not json", "Expecting value: line 1 column 1 (char 0)"),
        ("--routing", b"not json", "Expecting value: line 1 column 1 (char 0)"),
        ("--profile", b"not json", "Expecting value: line 1 column 1 (char 0)"),
        ("--scenario", b"\xff\xfe", "codec can't decode byte 0xff in position 0"),
    ],
    ids=["scenario", "routing", "profile", "scenario_not_text"],
)
def test_validate_unreadable_json_names_flag_and_file(tmp_path, capsys, flag, content, message):
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    source = [] if flag == "--scenario" else PAPER9
    assert main(["validate", *source, flag, str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"invalid config: {flag} {path}: ") and err.count("\n") == 1
    assert message in err


@pytest.mark.parametrize("flag", ["--scenario", "--routing", "--profile"])
@pytest.mark.parametrize("content", [["N_D"], "N_D", 3, None])
def test_validate_json_that_is_not_an_object_exit_2(tmp_path, capsys, flag, content):
    path = _write_json(tmp_path, "not_an_object.json", content)
    source = [] if flag == "--scenario" else PAPER9
    assert main(["validate", *source, flag, path]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"invalid config: {flag} {path}: the file must hold a JSON object\n"


def test_validate_prints_nothing_before_exit_2(tmp_path, capsys):
    # device 1 relays to device 2 at a power whose rate rounds to 0
    stalled = {"prices": [10.0] * 9, "targets": [1] + [9] * 8, "powers": [1e-300] + [1.0] * 8}
    path = _write_json(tmp_path, "stalled.json", stalled)
    assert main(["validate", *PAPER9, "--profile", path]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("invalid config:") and "no positive transmission rate" in err


def _paper9_direct(powers):
    """A profile on paper9 seed 7: every device direct at its closed-form price, at `powers`."""
    start = default_init(paper9_scenario(7))
    return {"prices": start.prices.tolist(), "targets": start.targets.tolist(), "powers": powers}


@pytest.mark.parametrize("power", [0.0, -0.0, -1.0, -1e-320])
def test_validate_rejects_nonpositive_power(tmp_path, capsys, power):
    path = _write_json(tmp_path, "profile.json", _paper9_direct([1.0] * 8 + [power]))
    assert main(["validate", *PAPER9, "--profile", path]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"invalid config: profile {path}: powers must be positive\n"


def test_validate_rejects_direct_link_at_rate_0(tmp_path, capsys):
    # 1e-320 is a positive power, but its rate to the access point rounds to 0
    profile = _paper9_direct([1e-320] + [1.0] * 8)
    path = _write_json(tmp_path, "profile.json", profile)
    assert main(["validate", *PAPER9, "--profile", path]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (
        f"invalid config: profile {path}: device 0 sends to the access point "
        "but has no positive transmission rate\n"
    )
    # the certificate cannot score that link either
    with pytest.raises(ValueError, match="^device 0 transmits to node 9 with power .* at rate 0$"):
        unilateral_gains(cli._profile_from_json(profile), paper9_scenario(7), PenaltyConfig.m_schedule[-1])


def test_sweep_rejects_non_numeric_values(tmp_path, capsys):
    _, path = relayable_scenario_file(tmp_path)
    out = tmp_path / "sweep"
    assert main(["sweep", "--scenario", str(path), "--out", str(out),
                 "--param", "I_d", "--values", "0.1,abc"]) == 2
    assert "--values" in capsys.readouterr().err
    assert not out.exists()


def _spanning(lo, hi):
    """Floats over [lo, hi] for 0 < lo < hi, log-uniform, with both bounds."""
    exponents = st.floats(math.log10(lo), math.log10(hi))
    return st.one_of(st.sampled_from((lo, hi)), exponents.map(lambda e: 10.0**e))


_DEVICE = st.fixed_dictionaries({
    "c_p": st.one_of(st.just(0.0), _spanning(1e-6, 1e3)),
    "c_t": _spanning(1e-6, 1e6),
    "r_p": _spanning(R_P_MIN, 1e6),
    "T_a": _spanning(1e-9, T_A_MAX),
    "w": _spanning(W_MIN, 1e6),
    "accuracy": st.fixed_dictionaries({
        "a": _spanning(1e-3, 1e6), "b": _spanning(1e-3, 1e6), "c": _spanning(1e-3, 1e3),
    }),
    "s_max": _spanning(1e-6, S_MAX_MAX),
    "q_max": _spanning(1e-6, 1e6),
    "p_max": _spanning(P_MAX_MIN, 1e3),
})


@st.composite
def scenario_dicts(draw):
    """Scenario config dicts of 1-4 devices, each parameter across its checked range."""
    devices = draw(st.lists(_DEVICE, min_size=1, max_size=4))
    coordinate = st.floats(-100.0, 100.0)
    positions = [[draw(coordinate), draw(coordinate)] for _ in range(len(devices) + 1)]
    return {
        "devices": devices,
        "positions": positions,
        "global": {
            "alpha": draw(st.floats(ALPHA_MIN, ALPHA_MAX)),
            "sigma2": draw(_spanning(SIGMA2_MIN, SIGMA2_MAX)),
            "I_d": draw(_spanning(1e-6, I_D_MAX)),
            "c_a": draw(st.one_of(st.just(0.0), _spanning(1e-6, 1e3))),
            "h": draw(_spanning(1e-6, 1e6)),
        },
    }


# a failure hypothesis found: with the largest noise and update size, a relay
# deadline asks `radio.min_power_for_rate` for a power that overflows to inf
_SMALL_DEVICE = {
    "c_p": 0.0, "c_t": 1e-6, "r_p": 1e-6, "T_a": 1e-9, "w": 1e-6,
    "accuracy": {"a": 1e-3, "b": 1e-3, "c": 1e-3}, "s_max": 1e-6, "q_max": 1e-6, "p_max": 1e-6,
}
OVERFLOWING_RELAY_POWER = {
    "devices": [
        _SMALL_DEVICE,
        _SMALL_DEVICE,
        {**_SMALL_DEVICE, "w": 1.0227409023942737},
        {**_SMALL_DEVICE, "c_p": 1.0, "accuracy": {"a": 1e-3, "b": 10.0**-0.875, "c": 1e3},
         "s_max": 1e6, "q_max": 1e6},
    ],
    "positions": [[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [0.0, 2.0], [1.0, 1.0]],
    "global": {"alpha": 5.0, "sigma2": 1e6, "I_d": 1e6, "c_a": 0.0, "h": 1.0},
}


@settings(max_examples=100, deadline=None)
@given(data=scenario_dicts())
@example(data=OVERFLOWING_RELAY_POWER)
def test_every_scenario_solves_to_finite_report_or_exits_2(data):
    try:
        scenario_from_dict(data)
    except ScenarioError:
        return
    with tempfile.TemporaryDirectory() as name:
        path, out = Path(name) / "scenario.json", Path(name) / "run"
        path.write_text(json.dumps(data))
        stderr = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
            rc = main(["solve", "--scenario", str(path), "--max-iter", "5", "--out", str(out)])
        if rc == 2:
            assert "invalid config" in stderr.getvalue()
            return
        assert rc in (0, 3)

        def reject(constant):
            raise AssertionError(f"report.json holds {constant}")

        json.loads((out / "report.json").read_text(), parse_constant=reject)
