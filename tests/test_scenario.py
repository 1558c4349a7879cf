import copy
import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedrelay import scenario as sc
from fedrelay._ziggurat import R
from fedrelay.scenario import (
    RELAY_SPEC,
    AccuracyModel,
    RandomSpec,
    ScenarioError,
    build_channel_matrix,
    load_scenario,
    paper9_scenario,
    price_floor,
    random_scenario,
    save_scenario,
    scenario_from_dict,
    scenario_to_dict,
)
from support import (
    default_rng_positions,
    default_rng_scenario,
    make_device,
    make_scenario,
    paper9_per_call,
)

# paper9 seed 7's node positions, numpy's default_rng(7) stream, pinned so
# that the acceptance data cannot drift with the numpy installed
PAPER9_SEED7_POSITIONS = [
    ("0x1.900fa428dcbd3p+2", "0x1.1f1bc12bdaf00p+3"),
    ("0x1.f07057eef21b7p+2", "0x1.2043e45b2b12ap+1"),
    ("0x1.80367cfd47149p+1", "0x1.17897f8d1b38ap+3"),
    ("0x1.af5570a40a120p-5", "0x1.06cb08335fee8p+3"),
    ("0x1.fe1fdaeed41f4p+2", "0x1.2b7a7671cc369p+2"),
    ("0x1.83e1aa6615134p+1", "0x1.6462812bb5409p+1"),
    ("0x1.463baa9e98ec2p+1", "0x1.1cd94d4cf9e4ep+2"),
    ("0x1.42e92fceb203ep+2", "0x1.623d0193f4d3dp+2"),
    ("0x1.3e8f621aa305ep+3", "0x1.fb4dba9584e79p+2"),
    ("0x1.8e31d84ec02cep+2", "0x1.3c779d842d20dp+3"),
]


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
    with pytest.raises(ScenarioError, match="^node positions must be pairwise distinct$"):
        make_scenario([[1.0, 1.0], [1.0, 1.0]])


_FAR = "node positions are too far apart"
_CLOSE = (
    "node positions are too close for path-loss exponent alpha = 2: "
    "a channel gain h_ij / d_ij ** alpha is not finite"
)
_SINR = (
    "received power overflows at node 0: "
    "the sum over the devices k of H_kj * p_max_k, over sigma2, is not finite"
)
_TRIANGLE = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]


# each check of a scenario's construction, with its whole message
@pytest.mark.parametrize(
    "kwargs, message",
    [
        (dict(positions=[[0.0, 0.0]], devices=()), "scenario needs at least one device"),
        (
            dict(positions=[[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], devices=(make_device(),)),
            "positions must have shape (2, 2) for 1 devices plus the access point",
        ),
        (dict(positions=[[0.0, 0.0], [math.nan, 0.0], [5.0, 5.0]]), "node positions must be finite"),
        (dict(positions=[[0.0, 0.0], [0.0, -math.inf]]), "node positions must be finite"),
        (dict(positions=_TRIANGLE, h=np.ones((2, 2))), "h must be scalar or (3, 3), got (2, 2)"),
        (
            dict(positions=_TRIANGLE, h=0.0),
            "off-diagonal channel gains h_ij must be positive and finite",
        ),
        (
            dict(positions=_TRIANGLE, alpha=7.0),
            "path-loss exponent alpha must be finite and >= 2 and <= 6, got 7.0",
        ),
        (
            dict(positions=_TRIANGLE, a=1e308, b=1.0),
            "accuracy coefficients overflow: the sum of a + b is not finite",
        ),
        (
            dict(positions=_TRIANGLE, devices=(make_device(q_max=1e-9), make_device())),
            "device parameter q_max must be >= the price floor 0.00012",
        ),
        (dict(positions=[[1.0, 1.0], [1.0, 1.0]]), "node positions must be pairwise distinct"),
        # distinct coordinates, though 1e-170 squared underflows to a zero distance
        (dict(positions=[[0.0, 0.0], [1e-170, 0.0], [5.0, 5.0]]), _CLOSE),
        (dict(positions=[[0.0, 0.0], [1e200, 0.0]]), f"{_FAR}: a squared distance overflows"),
        (
            dict(positions=[[0.0, 0.0], [1e60, 0.0]], alpha=6.0),
            f"{_FAR} for path-loss exponent alpha = 6: a distance ** alpha overflows",
        ),
        (dict(positions=[[0.0, 0.0], [1e-160, 0.0], [5.0, 5.0]]), _CLOSE),
        (dict(positions=_TRIANGLE, p_max=1e308), _SINR),
    ],
    ids=[
        "no_devices", "shape", "nan_position", "infinite_position", "h_shape", "zero_gain",
        "alpha", "accuracy_sum", "q_max", "coincident", "squared_underflow", "squared_overflow",
        "path_loss_overflow", "too_close", "received_power",
    ],
)
def test_build_rejection_message(kwargs, message):
    with pytest.raises(ScenarioError) as caught:
        make_scenario(**kwargs)
    assert str(caught.value) == message


def test_scenario_keeps_read_only_copies_of_its_arrays():
    positions = paper9_scenario(7).positions.copy()
    h = np.full((10, 10), 10.0)
    scen = dataclasses.replace(paper9_scenario(7), positions=positions, h=h)
    want = scenario_to_dict(scen)
    positions[0, 0] = 5.0
    h[0, 1] = 1.0
    assert scenario_to_dict(scen) == want
    assert np.array_equal(scen.H, build_channel_matrix(paper9_scenario(7)))
    for array in (scen.positions, scen.h):
        with pytest.raises(ValueError):
            array[0, 1] = 2.0
    assert positions.flags.writeable and h.flags.writeable  # the caller's arrays stay writable


@pytest.mark.parametrize("gain", [0.0, -1.0, math.inf, math.nan])
def test_off_diagonal_gain_must_be_positive_and_finite(gain):
    h = np.full((3, 3), 10.0)
    h[0, 2] = gain
    with pytest.raises(ScenarioError, match="off-diagonal channel gains h_ij must be positive and finite"):
        make_scenario([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], h=h)


@pytest.mark.parametrize("gain", [math.inf, -math.inf, math.nan])
def test_diagonal_gain_must_be_finite(gain):
    h = np.full((3, 3), 10.0)
    h[1, 1] = gain
    with pytest.raises(ScenarioError, match="^diagonal channel gains h_ii must be finite$"):
        make_scenario([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], h=h)
    h[1, 1] = 0.0  # never a link: any finite value passes
    make_scenario([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], h=h)


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
    assert all(d.p_max == 10.0 for d in scen.devices)
    assert np.all(scen.h[~np.eye(10, dtype=bool)] == 10.0)


def test_paper9_devices_are_one_shared_table():
    assert paper9_scenario(7).devices is paper9_scenario(0).devices
    assert paper9_scenario(7).devices is sc._P9_DEVICES


@pytest.mark.parametrize("seed", [*range(64), 2**64 + 5])
def test_paper9_equals_per_call_reference(seed):
    want, q_floor = paper9_per_call(seed)
    scen = paper9_scenario(seed)
    assert scenario_to_dict(scen) == scenario_to_dict(want)
    assert scen.q_floor == q_floor


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
    with pytest.raises(ScenarioError, match="mean of c_t"):
        RandomSpec(c_t=(math.inf, 1.0))
    with pytest.raises(ScenarioError, match="seed"):
        paper9_scenario(-1)
    with pytest.raises(ScenarioError, match="seed"):
        random_scenario(3, seed=-1)


@pytest.mark.parametrize("seed", [0, 1, 7, 2**32 - 1, 2**32, 2**64 + 5, 10**40])
def test_positions_are_default_rng_stream(seed):
    assert np.array_equal(paper9_scenario(seed).positions, default_rng_positions(9, seed))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**256), n=st.integers(1, 40))
def test_positions_are_default_rng_stream_property(seed, n):
    assert np.array_equal(random_scenario(n, seed).positions, default_rng_positions(n, seed))


@pytest.mark.parametrize("spec", [RandomSpec(), RELAY_SPEC], ids=["default", "relay"])
@pytest.mark.parametrize("n", [1, 6, 16, 20, 80])
def test_random_scenario_equals_default_rng_oracle(n, spec):
    for seed in (1, 2**64 + 5):
        assert scenario_to_dict(random_scenario(n, seed, spec)) == scenario_to_dict(
            default_rng_scenario(n, seed, spec)
        )


@pytest.mark.parametrize("seed", [0, 1, 7, 2**32 - 1, 2**32, 2**64 + 5, 10**40])
def test_normal_is_default_rng_stream(seed):
    # 30 000 draws a seed, 2.1e5 in all; each seed's stream reaches the tail
    # beyond R, and the equal states show that the rejections and the tail
    # consumed the same words as numpy's
    mine, ref = sc._PCG64(seed), np.random.default_rng(seed)
    draws = mine.normal(0.0, 1.0, 30_000)
    assert draws == ref.normal(0.0, 1.0, 30_000).tolist()
    assert max(map(abs, draws)) > R
    assert mine.state == ref.bit_generator.state["state"]["state"]


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**128),
    mean=st.floats(-1e100, 1e100),
    std=st.floats(0.0, 1e100),
    count=st.integers(0, 50),
)
def test_normal_is_default_rng_stream_property(seed, mean, std, count):
    mine, ref = sc._PCG64(seed), np.random.default_rng(seed)
    assert [x.hex() for x in mine.normal(mean, std, count)] == [
        x.hex() for x in ref.normal(mean, std, count).tolist()
    ]
    assert mine.state == ref.bit_generator.state["state"]["state"]


def test_paper9_seed7_positions_pinned():
    want = [[float.fromhex(x) for x in row] for row in PAPER9_SEED7_POSITIONS]
    assert paper9_scenario(7).positions.tolist() == want


@pytest.mark.parametrize("seed", [-1, 1.5, "7", [1, 2], None, np.float64(7.0)])
def test_seed_must_be_a_non_negative_integer(seed):
    with pytest.raises(ScenarioError, match="seed"):
        paper9_scenario(seed)
    with pytest.raises(ScenarioError, match="seed"):
        random_scenario(3, seed)


def test_numpy_integer_seed_is_its_value():
    assert scenario_to_dict(paper9_scenario(np.int64(7))) == scenario_to_dict(paper9_scenario(7))
    assert scenario_to_dict(random_scenario(6, np.uint64(3))) == scenario_to_dict(random_scenario(6, 3))


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
    copy = build_channel_matrix(scen)
    copy[0, 1] = -1.0  # a writable copy
    assert scen.H[0, 1] > 0


def _floor_oracle(scen):
    """1e-6 * min_i(c_i * b_i), from the device parameters in plain floats."""
    return 1e-6 * min(d.accuracy.c * d.accuracy.b for d in scen.devices)


def test_price_floor_is_stored_at_construction():
    scens = [paper9_scenario(7), paper9_scenario(0)]
    scens += [random_scenario(n, seed) for n, seed in ((1, 0), (6, 3), (20, 1), (80, 2))]
    scens += [random_scenario(9, seed, RELAY_SPEC) for seed in range(3)]
    for scen in scens:
        assert scen.q_floor == _floor_oracle(scen)
        assert price_floor(scen) == scen.q_floor


def test_price_floor_follows_a_rebuilt_scenario():
    scen = paper9_scenario(7)
    dev = scen.devices[4]
    cheaper = dataclasses.replace(
        dev, accuracy=AccuracyModel(a=dev.accuracy.a, b=dev.accuracy.b, c=dev.accuracy.c / 8)
    )
    replaced = dataclasses.replace(scen, devices=scen.devices[:4] + (cheaper,) + scen.devices[5:])
    assert replaced.q_floor == _floor_oracle(replaced) < scen.q_floor
    data = scenario_to_dict(scen)
    data["devices"][4]["accuracy"]["c"] /= 8
    loaded = scenario_from_dict(data)
    assert loaded.q_floor == replaced.q_floor
    assert scen.q_floor == _floor_oracle(scen)  # the original keeps its own


def test_scenario_to_dict_devices_equal_asdict():
    for scen in (paper9_scenario(7), random_scenario(12, 1), random_scenario(9, 0, RELAY_SPEC)):
        assert scenario_to_dict(scen)["devices"] == [dataclasses.asdict(d) for d in scen.devices]
    # values keep their Python type, as asdict keeps it: an int parameter stays an int
    devices = (make_device(c_p=0, p_max=10), make_device())
    scen = make_scenario([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], devices=devices)
    got = scenario_to_dict(scen)["devices"]
    assert got == [dataclasses.asdict(d) for d in devices]
    assert type(got[0]["c_p"]) is int and type(got[0]["p_max"]) is int


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
    want = json.dumps(scenario_to_dict(scen), indent=2, sort_keys=True) + "\n"
    assert path.read_bytes() == want.encode()
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
    want = json.dumps(scenario_to_dict(scen), indent=2, sort_keys=True) + "\n"
    assert path.read_bytes() == want.encode()
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
    bad = {**good, "global": {**good["global"], "alpha": 10**400}}  # too large for a float
    with pytest.raises(ScenarioError, match="malformed"):
        scenario_from_dict(bad)
    ragged = [[0.0, 0.0]] * (len(good["positions"]) - 1) + [[0.0]]
    for positions in (ragged, [["east", 0.0]] * len(good["positions"])):
        with pytest.raises(ScenarioError, match="malformed"):
            scenario_from_dict({**good, "positions": positions})
    for h in ([[10.0, 10.0], [10.0]], "ten"):
        with pytest.raises(ScenarioError, match="malformed"):
            scenario_from_dict({**good, "global": {**good["global"], "h": h}})


def _leaf_paths(node, path=()):
    """Key/index path of every non-container value in a scenario dict."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return [path]
    return [leaf for key, child in items for leaf in _leaf_paths(child, (*path, key))]


_PAPER9 = scenario_to_dict(paper9_scenario(7))
_REPLACEMENTS = (None, True, False, 10**400, math.nan, "text", [[1.0, 2.0], [3.0]], {"x": 1.0})


@settings(max_examples=300, deadline=None)
@given(
    path=st.sampled_from(_leaf_paths(_PAPER9)),
    replacement=st.sampled_from(_REPLACEMENTS),
)
def test_scenario_from_dict_raises_only_scenario_error(path, replacement):
    data = copy.deepcopy(_PAPER9)
    node = data
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = replacement
    try:
        scen = scenario_from_dict(data)
    except ScenarioError:
        return
    assert scen.n_devices == len(_PAPER9["devices"])


def test_device_params_validated():
    with pytest.raises(ScenarioError):
        make_device(r_p=0.0)
    with pytest.raises(ScenarioError):
        make_device(c=-1.0)
    with pytest.raises(ScenarioError):
        make_device(s_max=math.inf)
    with pytest.raises(ScenarioError, match="accuracy coefficient c"):
        make_device(c=math.inf)


def test_scalar_h_broadcast():
    scen = make_scenario([[0.0, 0.0], [1.0, 0.0]], h=7.0)
    assert scen.h.shape == (2, 2)
    assert scen.h[0, 1] == 7.0
