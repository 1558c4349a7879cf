"""Problem instances for the pricing / cooperative-relay game.

A scenario bundles the per-device economics (costs, processing rate,
averaging delay, accuracy-vs-data curve, strategy bounds), the node
geometry, and the wireless constants. Node indexing convention used by
the whole package: devices are 0..n-1, the access point is index n, so
positions and gain matrices have n+1 rows/columns.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from functools import cached_property

import numpy as np

# Relative floor for the price domain: q_min = PRICE_FLOOR_SCALE * min_i(c_i * b_i).
# A strictly positive floor keeps the follower's log response finite.
PRICE_FLOOR_SCALE = 1e-6


class ScenarioError(ValueError):
    """Raised when scenario parameters violate their invariants."""


@dataclass(frozen=True)
class AccuracyModel:
    """Saturating accuracy curve a - b*exp(-c*s) of training-data size s."""

    a: float
    b: float
    c: float

    def __post_init__(self):
        if not (self.a > 0 and self.b > 0 and self.c > 0):
            raise ScenarioError(f"accuracy coefficients must be positive, got {self}")


@dataclass(frozen=True)
class DeviceParams:
    """Cost, timing and bound parameters of one mobile device.

    c_p: energy cost per data unit processed
    c_t: cost per power unit per time unit of transmission
    r_p: local processing rate (data units / time)
    T_a: averaging delay per received update
    w: channel bandwidth
    accuracy: data-to-accuracy curve for this device's updates
    s_max, q_max, p_max: upper bounds on demand, price, transmit power
    """

    c_p: float
    c_t: float
    r_p: float
    T_a: float
    w: float
    accuracy: AccuracyModel
    s_max: float
    q_max: float
    p_max: float

    def __post_init__(self):
        if not (self.c_p >= 0 and math.isfinite(self.c_p)):
            raise ScenarioError(f"device parameter c_p must be >= 0 and finite, got {self.c_p}")
        for name in ("c_t", "r_p", "T_a", "w", "s_max", "q_max", "p_max"):
            v = getattr(self, name)
            if not (v > 0 and math.isfinite(v)):
                raise ScenarioError(f"device parameter {name} must be positive and finite, got {v}")


@dataclass(frozen=True, eq=False)
class Scenario:
    """Full problem instance: devices, geometry, and wireless constants."""

    devices: tuple[DeviceParams, ...]
    positions: np.ndarray  # (n+1, 2); row n is the access point
    h: np.ndarray  # raw channel gains, (n+1, n+1)
    alpha: float
    sigma2: float
    I_d: float
    c_a: float

    def __post_init__(self):
        object.__setattr__(self, "devices", tuple(self.devices))
        object.__setattr__(self, "positions", np.asarray(self.positions, dtype=float))
        n = len(self.devices)
        if n < 1:
            raise ScenarioError("scenario needs at least one device")
        if self.positions.shape != (n + 1, 2):
            raise ScenarioError(
                f"positions must have shape ({n + 1}, 2) for {n} devices plus the access point"
            )
        if not np.all(np.isfinite(self.positions)):
            raise ScenarioError("node positions must be finite")
        h = np.asarray(self.h, dtype=float)
        if h.ndim == 0:
            full = np.full((n + 1, n + 1), float(h))
            object.__setattr__(self, "h", full)
            h = full
        else:
            object.__setattr__(self, "h", h)
        if h.shape != (n + 1, n + 1):
            raise ScenarioError(f"h must be scalar or ({n + 1}, {n + 1}), got {h.shape}")
        off = ~np.eye(n + 1, dtype=bool)
        if not np.all(h[off] > 0) or not np.all(np.isfinite(h)):
            raise ScenarioError("off-diagonal channel gains h_ij must be positive and finite")
        if not (self.alpha >= 2 and math.isfinite(self.alpha)):
            raise ScenarioError(
                f"path-loss exponent alpha must be >= 2 and finite, got {self.alpha}"
            )
        if not (self.sigma2 > 0 and math.isfinite(self.sigma2)):
            raise ScenarioError(f"noise power sigma2 must be > 0 and finite, got {self.sigma2}")
        if not (self.I_d > 0 and math.isfinite(self.I_d)):
            raise ScenarioError(f"update size I_d must be > 0 and finite, got {self.I_d}")
        if not (self.c_a >= 0 and math.isfinite(self.c_a)):
            raise ScenarioError(f"relay fee c_a must be >= 0 and finite, got {self.c_a}")
        d = _distance_matrix(self.positions)
        if np.any(d[off] == 0.0):
            raise ScenarioError("node positions must be pairwise distinct")

    @cached_property
    def H(self) -> np.ndarray:
        """Effective gain matrix, built on first use and read-only."""
        H = build_channel_matrix(self)
        H.setflags(write=False)
        return H

    @property
    def n_devices(self) -> int:
        return len(self.devices)

    @property
    def ap(self) -> int:
        """Index of the access point node."""
        return len(self.devices)

    @property
    def n_nodes(self) -> int:
        return len(self.devices) + 1

    # convenience parameter vectors over devices
    def param(self, name: str) -> np.ndarray:
        return np.array([getattr(d, name) for d in self.devices], dtype=float)

    def accuracy_coeffs(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        a = np.array([d.accuracy.a for d in self.devices])
        b = np.array([d.accuracy.b for d in self.devices])
        c = np.array([d.accuracy.c for d in self.devices])
        return a, b, c


def _distance_matrix(positions: np.ndarray) -> np.ndarray:
    diff = positions[:, None, :] - positions[None, :, :]
    return np.sqrt((diff**2).sum(axis=2))


def price_floor(scen: Scenario) -> float:
    """Smallest admissible price: a fixed fraction of the cheapest c_i*b_i."""
    _, b, c = scen.accuracy_coeffs()
    return PRICE_FLOOR_SCALE * float(np.min(c * b))


def build_channel_matrix(scen: Scenario) -> np.ndarray:
    """Effective gain matrix H_ij = h_ij / d_ij**alpha with zero diagonal."""
    d = _distance_matrix(scen.positions)
    off = ~np.eye(scen.n_nodes, dtype=bool)
    if np.any(d[off] == 0.0):
        raise ScenarioError("coincident node positions give an undefined channel gain")
    H = np.zeros_like(d)
    H[off] = scen.h[off] / d[off] ** scen.alpha
    return H


def _default_bounds(b: np.ndarray, c: np.ndarray, p_max: float):
    """Demand caps that bind only at the price floor, price caps at c*b."""
    cb = c * b
    q_min = PRICE_FLOOR_SCALE * float(np.min(cb))
    s_max = np.log(cb / q_min) / c
    return s_max, cb, np.full(len(b), p_max)


# 9-device benchmark instance; positions are drawn from the caller's seed.
_P9_C_T = [58.0, 61.0, 51.5, 58.5, 95.0, 46.0, 175.0, 124.5, 31.0]
_P9_C_P = [0.0043, 0.0085, 0.0136, 0.0095, 0.0098, 0.0067, 0.0081, 0.0055, 0.0112]
_P9_R_P = [88.1, 89.3, 97.25, 61.65, 41.5, 41.95, 65.25, 82.15, 51.05]
_P9_T_A = [0.0121, 0.0129, 0.0053, 0.0107, 0.0107, 0.0095, 0.013, 0.0088, 0.0072]
_P9_ACC_C = [15.28, 9.17, 14.31, 11.21, 9.12, 13.61, 13.27, 9.63, 14.32]
_P9_ACC_AB = [9.78, 9.15, 11.35, 11.17, 12.7, 9.15, 12.38, 13.5, 10.59]

PAPER9_AREA = 10.0
PAPER9_P_MAX = 10.0


def paper9_scenario(seed: int) -> Scenario:
    """The bundled 9-device benchmark scenario.

    All device parameters are fixed; node positions are uniform on
    [0, 10]^2 and depend only on `seed`.
    """
    n = 9
    rng = np.random.default_rng(seed)
    positions = rng.uniform(0.0, PAPER9_AREA, size=(n + 1, 2))
    a = np.array(_P9_ACC_AB)
    c = np.array(_P9_ACC_C)
    s_max, q_max, p_max = _default_bounds(a, c, PAPER9_P_MAX)
    devices = tuple(
        DeviceParams(
            c_p=_P9_C_P[i],
            c_t=_P9_C_T[i],
            r_p=_P9_R_P[i],
            T_a=_P9_T_A[i],
            w=1.0,
            accuracy=AccuracyModel(a=_P9_ACC_AB[i], b=_P9_ACC_AB[i], c=_P9_ACC_C[i]),
            s_max=float(s_max[i]),
            q_max=float(q_max[i]),
            p_max=float(p_max[i]),
        )
        for i in range(n)
    )
    return Scenario(
        devices=devices,
        positions=positions,
        h=np.full((n + 1, n + 1), 10.0),
        alpha=2.0,
        sigma2=1.0,
        I_d=0.1,
        c_a=0.0096,
    )


@dataclass(frozen=True)
class RandomSpec:
    """Gaussian (mean, std) generators for random device parameters.

    Stds may be zero (all devices identical to the mean) but not negative.
    Draws are truncated below at `floor` to keep every parameter positive.
    """

    c_t: tuple[float, float] = (75.0, 40.0)
    c_p: tuple[float, float] = (0.009, 0.003)
    r_p: tuple[float, float] = (65.0, 18.0)
    T_a: tuple[float, float] = (0.010, 0.003)
    acc_a: tuple[float, float] = (11.0, 1.5)
    acc_c: tuple[float, float] = (12.5, 2.3)
    w: float = 1.0
    h: float = 10.0
    alpha: float = 2.0
    sigma2: float = 1.0
    I_d: float = 0.1
    c_a: float = 0.0096
    p_max: float = 10.0
    area: float = 10.0
    floor: float = 1e-6

    def __post_init__(self):
        for name in ("c_t", "c_p", "r_p", "T_a", "acc_a", "acc_c"):
            mean, std = getattr(self, name)
            if std < 0:
                raise ScenarioError(f"std of {name} must be >= 0, got {std}")
            if mean <= 0:
                raise ScenarioError(f"mean of {name} must be > 0, got {mean}")


def random_scenario(n: int, seed: int, spec: RandomSpec = RandomSpec()) -> Scenario:
    """Seeded random instance: uniform positions, Gaussian device parameters."""
    if n < 1:
        raise ScenarioError(f"need at least one device, got n={n}")
    rng = np.random.default_rng(seed)
    positions = rng.uniform(0.0, spec.area, size=(n + 1, 2))

    def draw(dist: tuple[float, float]) -> np.ndarray:
        mean, std = dist
        return np.maximum(rng.normal(mean, std, size=n), spec.floor)

    c_t = draw(spec.c_t)
    c_p = draw(spec.c_p)
    r_p = draw(spec.r_p)
    T_a = draw(spec.T_a)
    acc_a = draw(spec.acc_a)
    acc_c = draw(spec.acc_c)
    s_max, q_max, p_max = _default_bounds(acc_a, acc_c, spec.p_max)
    devices = tuple(
        DeviceParams(
            c_p=float(c_p[i]),
            c_t=float(c_t[i]),
            r_p=float(r_p[i]),
            T_a=float(T_a[i]),
            w=spec.w,
            accuracy=AccuracyModel(a=float(acc_a[i]), b=float(acc_a[i]), c=float(acc_c[i])),
            s_max=float(s_max[i]),
            q_max=float(q_max[i]),
            p_max=float(p_max[i]),
        )
        for i in range(n)
    )
    return Scenario(
        devices=devices,
        positions=positions,
        h=np.full((n + 1, n + 1), spec.h),
        alpha=spec.alpha,
        sigma2=spec.sigma2,
        I_d=spec.I_d,
        c_a=spec.c_a,
    )


def scenario_to_dict(scen: Scenario) -> dict:
    """Plain-dict form used by the JSON config file."""
    off = ~np.eye(scen.n_nodes, dtype=bool)
    vals = scen.h[off]
    h: float | list = float(vals[0]) if np.all(vals == vals[0]) else scen.h.tolist()
    return {
        "devices": [
            {
                "c_p": d.c_p,
                "c_t": d.c_t,
                "r_p": d.r_p,
                "T_a": d.T_a,
                "w": d.w,
                "accuracy": {"a": d.accuracy.a, "b": d.accuracy.b, "c": d.accuracy.c},
                "s_max": d.s_max,
                "q_max": d.q_max,
                "p_max": d.p_max,
            }
            for d in scen.devices
        ],
        "positions": scen.positions.tolist(),
        "global": {
            "alpha": scen.alpha,
            "sigma2": scen.sigma2,
            "I_d": scen.I_d,
            "c_a": scen.c_a,
            "h": h,
        },
    }


def scenario_from_dict(data: dict) -> Scenario:
    try:
        devices = tuple(
            DeviceParams(
                c_p=d["c_p"],
                c_t=d["c_t"],
                r_p=d["r_p"],
                T_a=d["T_a"],
                w=d["w"],
                accuracy=AccuracyModel(**d["accuracy"]),
                s_max=d["s_max"],
                q_max=d["q_max"],
                p_max=d["p_max"],
            )
            for d in data["devices"]
        )
        g = data["global"]
        return Scenario(
            devices=devices,
            positions=np.asarray(data["positions"], dtype=float),
            h=np.asarray(g["h"], dtype=float),
            alpha=g["alpha"],
            sigma2=g["sigma2"],
            I_d=g["I_d"],
            c_a=g["c_a"],
        )
    except (KeyError, TypeError) as exc:
        raise ScenarioError(f"malformed scenario config: {exc}") from exc


def save_scenario(scen: Scenario, path: str | os.PathLike) -> None:
    with open(path, "w") as fh:
        json.dump(scenario_to_dict(scen), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_scenario(path: str | os.PathLike) -> Scenario:
    with open(path) as fh:
        return scenario_from_dict(json.load(fh))
