import csv
import dataclasses
import json

import numpy as np
import pytest

from fedrelay.cli import main, reverify_unilateral_gain
from fedrelay.radio import transmission_energy_cost
from fedrelay.scenario import (
    RandomSpec,
    paper9_scenario,
    random_scenario,
    save_scenario,
    scenario_to_dict,
)
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


def test_validate_preset_ok(capsys):
    assert main(["validate", "--preset", "paper9", "--seed", "3"]) == 0
    assert "scenario OK" in capsys.readouterr().out


def test_validate_rejects_zero_noise(tmp_path, capsys):
    data = scenario_to_dict(paper9_scenario(3))
    data["global"]["sigma2"] = 0.0
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    assert main(["validate", "--scenario", str(path)]) == 2
    assert "sigma2" in capsys.readouterr().err


def _nan_position(data):
    data["positions"][0][1] = float("nan")


def _infinite_update_size(data):
    data["global"]["I_d"] = float("inf")


def _nan_relay_fee(data):
    data["global"]["c_a"] = float("nan")


@pytest.mark.parametrize(
    "corrupt, message",
    [(_nan_position, "positions"), (_infinite_update_size, "I_d"), (_nan_relay_fee, "c_a")],
)
def test_solve_rejects_non_finite_scenario(tmp_path, capsys, corrupt, message):
    data = scenario_to_dict(paper9_scenario(3))
    corrupt(data)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    assert main(["solve", "--scenario", str(path), "--out", str(tmp_path / "run")]) == 2
    err = capsys.readouterr().err
    assert "invalid config" in err and message in err


def test_solve_rejects_power_grid_below_one(tmp_path, capsys):
    code = main(["solve", "--preset", "paper9", "--seed", "7", "--out", str(tmp_path / "run"),
                 "--power-grid", "0"])
    assert code == 2
    assert "--power-grid" in capsys.readouterr().err


def test_validate_requires_exactly_one_source(capsys):
    assert main(["validate", "--preset", "paper9", "--random", "4", "--seed", "1"]) == 2
    assert main(["validate", "--preset", "paper9"]) == 2  # missing seed
    assert main(["validate"]) == 2


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


def test_solve_deterministic_bytes(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["solve", "--preset", "paper9", "--seed", "11", "--out", str(out1)]) == 0
    assert main(["solve", "--preset", "paper9", "--seed", "11", "--out", str(out2)]) == 0
    for name in ("routing.txt", "prices.csv", "demands.csv", "rates.csv",
                 "profits.csv", "equilibrium.csv", "report.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_solve_scenario_file_relay_topology(tmp_path):
    _, path = relayable_scenario_file(tmp_path)
    out = tmp_path / "run"
    assert main(["solve", "--scenario", str(path), "--out", str(out)]) == 0
    lines = (out / "routing.txt").read_text().splitlines()
    assert lines == ["1 -> 2 -> N_D", "2 -> N_D"]


def test_solve_nonconverged_exit_code(tmp_path):
    # one round per penalty stage leaves this relay instance short of an
    # equilibrium (its certificate gain is about 8.5e-4)
    scen = dataclasses.replace(random_scenario(9, 1, RandomSpec(r_p=(5.0, 4.0))), I_d=0.1)
    path = tmp_path / "scenario.json"
    save_scenario(scen, path)
    out = tmp_path / "run"
    code = main(["solve", "--scenario", str(path), "--out", str(out), "--max-iter", "1"])
    assert code == 3
    assert (out / "report.json").exists()  # artifacts written anyway
    report = json.loads((out / "report.json").read_text())
    assert report["report"]["converged"] is False


def test_solve_format_json_and_csv(tmp_path, capsys):
    out = tmp_path / "run"
    main(["solve", "--preset", "paper9", "--seed", "7", "--out", str(out),
          "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert payload["converged"] is True
    main(["solve", "--preset", "paper9", "--seed", "7", "--out", str(out),
          "--format", "csv"])
    first = capsys.readouterr().out.splitlines()[0]
    assert first == "device_id,price,demand,rate,power,target,profit"


def test_report_roundtrip_reproduces_gain(tmp_path):
    out = tmp_path / "run"
    main(["solve", "--preset", "paper9", "--seed", "7", "--out", str(out)])
    stored, recomputed = reverify_unilateral_gain(out / "report.json")
    assert abs(stored - recomputed) <= 1e-12


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
    assert "bogus" in capsys.readouterr().err


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


@pytest.mark.parametrize(
    "profile, message",
    [
        ({"prices": [50.0, 5.0], "powers": [1.0, 1.0]}, "targets"),
        ({"prices": [50.0, 5.0], "targets": [2], "powers": [1.0, 1.0]}, "equal length"),
        ({"prices": [50.0, 5.0], "targets": [0, 2], "powers": [1.0, 1.0]}, "itself"),
        ({"prices": [50.0], "targets": [2], "powers": [1.0]}, "scenario has 2"),
        ({"prices": [50.0, 5.0], "targets": [7, 2], "powers": [1.0, 1.0]}, "targets must lie"),
        ({"prices": [50.0, 5.0], "targets": [2, 2], "powers": [-1.0, 1.0]}, "nonnegative"),
        ({"prices": [50.0, 5.0], "targets": [1.7, 2], "powers": [1.0, 1.0]}, "integers"),
        ({"prices": [float("nan"), 5.0], "targets": [1, 2], "powers": [1.0, 1.0]}, "prices must be finite"),
        ({"prices": [50.0, 5.0], "targets": [1, 2], "powers": [float("inf"), 1.0]}, "powers must be finite"),
        ({"prices": [50.0, 5.0], "targets": [1, 2], "powers": [float("nan"), 1.0]}, "powers must be finite"),
    ],
)
def test_validate_rejects_malformed_profile(tmp_path, capsys, profile, message):
    _, scen_path = relayable_scenario_file(tmp_path)
    prof_path = _write_json(tmp_path, "profile.json", profile)
    assert main(["validate", "--scenario", str(scen_path), "--profile", prof_path]) == 2
    err = capsys.readouterr().err
    assert "invalid config" in err and message in err


@pytest.mark.parametrize(
    "adj, message",
    [
        ({"12": "N_D"}, "device id 12"),
        ({"1": "12"}, "target 12"),
        ({"1": "0"}, "target 0"),
        ({"one": "N_D"}, "ValueError"),
        ({"1": "two"}, "ValueError"),
        ({"1": None}, "TypeError"),
        (["N_D"], "AttributeError"),
        ({"2": "N_D"}, "devices [1, 3, 4, 5, 6, 7, 8, 9] have no target"),
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
        (["--eps-nash", "nan"], "--eps-nash"),
        (["--eps-nash=-1e-6"], "--eps-nash"),
        (["--eps-nash", "inf"], "--eps-nash"),
    ],
)
def test_solve_rejects_bad_solver_settings(tmp_path, capsys, flags, message):
    out = tmp_path / "run"
    assert main(["solve", "--preset", "paper9", "--seed", "7", "--out", str(out)] + flags) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_sweep_rejects_non_numeric_values(tmp_path, capsys):
    _, path = relayable_scenario_file(tmp_path)
    out = tmp_path / "sweep"
    assert main(["sweep", "--scenario", str(path), "--out", str(out),
                 "--param", "I_d", "--values", "0.1,abc"]) == 2
    assert "--values" in capsys.readouterr().err
    assert not out.exists()
