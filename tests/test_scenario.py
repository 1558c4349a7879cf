import dataclasses
import math

import numpy as np
import pytest

from fedrelay.scenario import (
    RandomSpec,
    ScenarioError,
    build_channel_matrix,
    load_scenario,
    paper9_scenario,
    random_scenario,
    save_scenario,
    scenario_from_dict,
    scenario_to_dict,
)
from support import make_device, make_scenario


def test_channel_gain_unit_distance():
    scen = make_scenario([[0.0, 0.0], [1.0, 0.0]], h=10.0, alpha=2.0)
    H = build_channel_matrix(scen)
    assert H[0, 1] == 10.0
    assert H[1, 0] == 10.0
    assert H[0, 0] == 0.0


def test_channel_gain_distance_sqrt_ten():
    scen = make_scenario([[0.0, 0.0], [math.sqrt(10.0), 0.0]], h=10.0, alpha=2.0)
    H = build_channel_matrix(scen)
    assert H[0, 1] == pytest.approx(1.0, rel=1e-14)


def test_channel_matrix_matches_elementwise_oracle():
    scen = paper9_scenario(123)
    H = build_channel_matrix(scen)
    for i in range(scen.n_nodes):
        for j in range(scen.n_nodes):
            if i == j:
                assert H[i, j] == 0.0
                continue
            d = math.dist(scen.positions[i], scen.positions[j])
            assert H[i, j] == pytest.approx(scen.h[i, j] / d**scen.alpha, rel=1e-13)


def test_coincident_positions_rejected():
    with pytest.raises(ScenarioError):
        make_scenario([[1.0, 1.0], [1.0, 1.0]])


def test_paper9_values():
    scen = paper9_scenario(0)
    assert scen.c_a == 0.0096
    assert scen.I_d == 0.1
    assert scen.sigma2 == 1.0
    assert scen.alpha == 2.0
    assert scen.devices[3].r_p == 61.65
    assert scen.devices[0].accuracy.c == 15.28
    assert scen.devices[0].accuracy.a == 9.78
    assert scen.devices[0].accuracy.b == 9.78
    assert scen.devices[6].c_t == 175.0
    assert scen.devices[2].T_a == 0.0053
    assert all(d.w == 1.0 for d in scen.devices)
    assert np.all(scen.h[~np.eye(10, dtype=bool)] == 10.0)


def test_paper9_positions_seeded():
    a, b = paper9_scenario(42), paper9_scenario(42)
    assert np.array_equal(a.positions, b.positions)
    c = paper9_scenario(43)
    assert not np.array_equal(a.positions, c.positions)
    assert np.all((a.positions >= 0.0) & (a.positions <= 10.0))


def test_random_scenario_deterministic():
    spec = RandomSpec()
    a = random_scenario(5, seed=9, spec=spec)
    b = random_scenario(5, seed=9, spec=spec)
    assert scenario_to_dict(a) == scenario_to_dict(b)


def test_random_scenario_std_zero_gives_identical_devices():
    spec = RandomSpec(
        c_t=(50.0, 0.0), c_p=(0.01, 0.0), r_p=(60.0, 0.0),
        T_a=(0.01, 0.0), acc_a=(10.0, 0.0), acc_c=(12.0, 0.0),
    )
    scen = random_scenario(4, seed=1, spec=spec)
    assert len(set(scen.devices)) == 1
    assert scen.devices[0].c_t == 50.0


def test_random_scenario_positions_in_area():
    scen = random_scenario(9, seed=77)
    assert np.all((scen.positions >= 0.0) & (scen.positions <= 10.0))


def test_random_scenario_rejects_bad_args():
    with pytest.raises(ScenarioError):
        random_scenario(0, seed=1)
    with pytest.raises(ScenarioError):
        RandomSpec(c_t=(50.0, -1.0))


def test_generated_scenarios_pass_invariants():
    # construction re-runs every invariant, so surviving it is the check
    for seed in range(25):
        random_scenario(1 + seed % 6, seed=seed)
        paper9_scenario(seed)


def test_scenario_channel_matrix_is_cached_and_read_only():
    scen = paper9_scenario(7)
    H = scen.H
    assert scen.H is H
    assert np.array_equal(H, build_channel_matrix(scen))
    with pytest.raises(ValueError):
        H[0, 1] = 1.0
    steeper = dataclasses.replace(scen, alpha=3.0)
    assert np.array_equal(steeper.H, build_channel_matrix(steeper))
    assert not np.array_equal(steeper.H, H)
    assert np.array_equal(scen.H, build_channel_matrix(scen))


def test_channel_symmetry_iff_h_symmetric():
    positions = np.array([[0.0, 0.0], [3.0, 1.0], [1.0, 4.0]])
    sym = make_scenario(positions, h=10.0)
    H = build_channel_matrix(sym)
    assert np.allclose(H, H.T)

    h = np.full((3, 3), 10.0)
    h[0, 1] = 20.0  # asymmetric raw gain
    asym = make_scenario(positions, h=h)
    Ha = build_channel_matrix(asym)
    assert not np.allclose(Ha, Ha.T)
    assert Ha[0, 1] == pytest.approx(2.0 * Ha[1, 0])


def test_channel_monotone_in_distance():
    rng = np.random.default_rng(5)
    positions = rng.uniform(0.0, 10.0, size=(5, 2))
    scen = make_scenario(positions)
    H = build_channel_matrix(scen)
    moved = positions.copy()
    moved[2] = positions[2] + 50.0 * (positions[2] - positions.mean(axis=0))
    d_old = np.linalg.norm(positions - positions[2], axis=1)
    d_new = np.linalg.norm(moved - moved[2], axis=1)
    keep = np.arange(5) != 2
    assert np.all(d_new[keep] > d_old[keep])
    H2 = build_channel_matrix(make_scenario(moved))
    assert np.all(H2[2, keep] < H[2, keep])
    assert np.all(H2[keep, 2] < H[keep, 2])


def test_serialization_round_trip(tmp_path):
    scen = paper9_scenario(11)
    path = tmp_path / "scenario.json"
    save_scenario(scen, path)
    loaded = load_scenario(path)
    assert scenario_to_dict(loaded) == scenario_to_dict(scen)
    assert loaded.devices == scen.devices
    assert np.array_equal(loaded.positions, scen.positions)


def test_serialization_round_trip_full_h_matrix(tmp_path):
    h = np.full((3, 3), 10.0)
    h[0, 1] = 3.5
    scen = make_scenario([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0]], h=h)
    path = tmp_path / "scenario.json"
    save_scenario(scen, path)
    loaded = load_scenario(path)
    assert np.array_equal(loaded.h, scen.h)


def test_invalid_parameters_named():
    good = scenario_to_dict(paper9_scenario(1))
    bad = {**good, "global": {**good["global"], "sigma2": 0.0}}
    with pytest.raises(ScenarioError, match="sigma2"):
        scenario_from_dict(bad)
    bad = {**good, "global": {**good["global"], "alpha": 1.5}}
    with pytest.raises(ScenarioError, match="alpha"):
        scenario_from_dict(bad)
    for key in ("alpha", "sigma2"):
        bad = {**good, "global": {**good["global"], key: math.inf}}
        with pytest.raises(ScenarioError, match=key):
            scenario_from_dict(bad)
    with pytest.raises(ScenarioError, match="malformed"):
        scenario_from_dict({"devices": []})


def test_device_params_validated():
    with pytest.raises(ScenarioError):
        make_device(r_p=0.0)
    with pytest.raises(ScenarioError):
        make_device(c=-1.0)
    with pytest.raises(ScenarioError):
        make_device(s_max=math.inf)


def test_scalar_h_broadcast():
    scen = make_scenario([[0.0, 0.0], [1.0, 0.0]], h=7.0)
    assert scen.h.shape == (2, 2)
    assert scen.h[0, 1] == 7.0
