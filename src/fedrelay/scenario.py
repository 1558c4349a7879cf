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
import numbers
import os
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass, fields

import numpy as np

from ._ziggurat import FI, KI, R, R_INV, WI

# Relative floor for the price domain: q_min = PRICE_FLOOR_SCALE * min_i(c_i * b_i).
# A strictly positive floor keeps the follower's log response finite.
PRICE_FLOOR_SCALE = 1e-6


class ScenarioError(ValueError):
    """Raised when scenario parameters violate their invariants."""


# Ranges of the parameters that otherwise take a solve out of floating point
# at the paper's scale (unit noise and bandwidth, powers up to 10 on a
# 10 x 10 area): past them a rate rounds to 0 or a squared deadline term
# overflows. Every bound is inclusive.
ALPHA_MIN, ALPHA_MAX = 2.0, 6.0
SIGMA2_MIN, SIGMA2_MAX = 1e-6, 1e6
I_D_MAX = 1e6
T_A_MAX = 1e6
S_MAX_MAX = 1e6  # with R_P_MIN, bounds every processing time s / r_p by 1e12
R_P_MIN = 1e-6
W_MIN = 1e-6
P_MAX_MIN = 1e-6


def _check(
    name: str, value: float, bound: float, at_least: bool = False, at_most: float = math.inf
) -> None:
    """Raise ScenarioError naming `name` unless `value` is finite, above
    `bound` (or at least `bound`) and at most `at_most`."""
    above = value >= bound if at_least else value > bound
    if not (math.isfinite(value) and above and value <= at_most):
        op = ">=" if at_least else ">"
        upper = f" and <= {at_most:g}" if at_most < math.inf else ""
        raise ScenarioError(f"{name} must be finite and {op} {bound:g}{upper}, got {value}")


@dataclass(frozen=True)
class AccuracyModel:
    """Saturating accuracy curve a - b*exp(-c*s) of training-data size s."""

    a: float
    b: float
    c: float

    def __post_init__(self):
        for name in ("a", "b", "c"):
            _check(f"accuracy coefficient {name}", getattr(self, name), 0.0)
        if not math.isfinite(float(self.c) * float(self.b)):  # the demand response's c * b
            raise ScenarioError(
                f"accuracy coefficients c * b overflow (c = {self.c:g}, b = {self.b:g})"
            )


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
        _check("device parameter c_p", self.c_p, 0.0, at_least=True)
        for name, most in (("c_t", math.inf), ("s_max", S_MAX_MAX), ("q_max", math.inf)):
            _check(f"device parameter {name}", getattr(self, name), 0.0, at_most=most)
        _check("device parameter T_a", self.T_a, 0.0, at_most=T_A_MAX)
        for name, least in (("r_p", R_P_MIN), ("w", W_MIN), ("p_max", P_MAX_MIN)):
            _check(f"device parameter {name}", getattr(self, name), least, at_least=True)


@dataclass(frozen=True, eq=False)
class Scenario:
    """Full problem instance: devices, geometry, and wireless constants.

    `H`, the effective gain matrix, and `q_floor`, the price floor, are
    built and checked at construction. `positions` and `h` are kept as
    copies of the arrays passed; they and `H` are read-only.
    """

    devices: tuple[DeviceParams, ...]
    positions: np.ndarray  # (n+1, 2); row n is the access point
    h: np.ndarray  # raw channel gains, (n+1, n+1)
    alpha: float
    sigma2: float
    I_d: float
    c_a: float

    def __post_init__(self):
        try:
            self._build()
        except MemoryError as exc:  # an (n+1) x (n+1) matrix past memory
            raise ScenarioError(f"too many devices for one scenario: n={len(self.devices)}") from exc

    def _build(self):
        object.__setattr__(self, "devices", tuple(self.devices))
        positions = np.array(self.positions, dtype=float)
        positions.setflags(write=False)
        object.__setattr__(self, "positions", positions)
        n = len(self.devices)
        if n < 1:
            raise ScenarioError("scenario needs at least one device")
        if positions.shape != (n + 1, 2):
            raise ScenarioError(
                f"positions must have shape ({n + 1}, 2) for {n} devices plus the access point"
            )
        if not np.isfinite(positions).all():
            raise ScenarioError("node positions must be finite")
        h = np.array(self.h, dtype=float)
        if h.ndim == 0:
            h = np.full((n + 1, n + 1), float(h))
        h.setflags(write=False)
        object.__setattr__(self, "h", h)
        if h.shape != (n + 1, n + 1):
            raise ScenarioError(f"h must be scalar or ({n + 1}, {n + 1}), got {h.shape}")
        off = ~np.eye(n + 1, dtype=bool)
        h_off = h[off]
        if not ((h_off > 0) & (h_off < math.inf)).all():
            raise ScenarioError("off-diagonal channel gains h_ij must be positive and finite")
        if not np.isfinite(h.diagonal()).all():  # never a link, but written to report.json
            raise ScenarioError("diagonal channel gains h_ii must be finite")
        _check("path-loss exponent alpha", self.alpha, ALPHA_MIN, at_least=True, at_most=ALPHA_MAX)
        _check("noise power sigma2", self.sigma2, SIGMA2_MIN, at_least=True, at_most=SIGMA2_MAX)
        _check("update size I_d", self.I_d, 0.0, at_most=I_D_MAX)
        _check("relay fee c_a", self.c_a, 0.0, at_least=True)
        # bounds the owner's utility, a sum of terms within [a_i - b_i, a_i]
        if not math.isfinite(sum(d.accuracy.a + d.accuracy.b for d in self.devices)):
            raise ScenarioError("accuracy coefficients overflow: the sum of a + b is not finite")
        # every device's price domain [q_lo, q_max] must not be empty
        q_lo = _price_floor(float(d.accuracy.c) * float(d.accuracy.b) for d in self.devices)
        if any(dev.q_max < q_lo for dev in self.devices):
            raise ScenarioError(f"device parameter q_max must be >= the price floor {q_lo:g}")
        object.__setattr__(self, "q_floor", q_lo)
        d = _distance_matrix(positions)
        d_off = d[off]
        try:
            with np.errstate(over="raise"):
                loss = d_off ** self.alpha
        except FloatingPointError:
            raise ScenarioError(
                f"node positions are too far apart for path-loss exponent alpha = "
                f"{self.alpha:g}: a distance ** alpha overflows"
            ) from None
        H = d  # H_ij = h_ij / d_ij ** alpha off the diagonal; d's diagonal is 0
        with np.errstate(all="ignore"):
            H[off] = h_off / loss
            # received power at full power over the noise, without interference; no
            # matmul, since a solve calls BLAS nowhere else and its first call costs memory
            sinr = (self.param("p_max")[:, None] * H[:n]).sum(axis=0) / self.sigma2
        if not np.isfinite(H).all():
            raise ScenarioError(
                f"node positions are too close for path-loss exponent alpha = {self.alpha:g}: "
                "a channel gain h_ij / d_ij ** alpha is not finite"
            )
        if not np.isfinite(sinr).all():
            raise ScenarioError(
                f"received power overflows at node {int(np.argmin(np.isfinite(sinr)))}: "
                "the sum over the devices k of H_kj * p_max_k, over sigma2, is not finite"
            )
        H.setflags(write=False)
        object.__setattr__(self, "H", H)

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
    """Pairwise node distances; ScenarioError when a squared distance
    overflows, which takes coordinates about 1e154 apart, or when two
    nodes share their coordinates."""
    try:
        with np.errstate(over="raise"):
            diff = positions[:, None, :] - positions[None, :, :]
            squared = (diff**2).sum(axis=2)
    except FloatingPointError:
        raise ScenarioError(
            "node positions are too far apart: a squared distance overflows"
        ) from None
    # beyond the diagonal's zeros, a zero squared distance is two coincident
    # nodes, or distinct ones under about 1e-162 apart, whose square underflows
    n = len(positions)
    if np.count_nonzero(squared == 0.0) > n and np.count_nonzero((diff == 0.0).all(axis=2)) > n:
        raise ScenarioError("node positions must be pairwise distinct")
    return np.sqrt(squared)


def _price_floor(cb: Iterable[float]) -> float:
    """The price floor of devices whose accuracy products c * b are `cb`."""
    return PRICE_FLOOR_SCALE * min(cb)


def price_floor(scen: Scenario) -> float:
    """Smallest admissible price: a fixed fraction of the cheapest c_i*b_i,
    computed once when `scen` is built."""
    return scen.q_floor


def build_channel_matrix(scen: Scenario) -> np.ndarray:
    """Effective gain matrix H_ij = h_ij / d_ij**alpha with zero diagonal,
    as a writable copy of `scen.H`."""
    return scen.H.copy()


# The wireless constants and geometry of every generated instance, paper9 and
# random alike: bandwidth w, raw gain h, path-loss exponent alpha, noise
# sigma2, update size I_d, relay fee c_a, power cap p_max, the side of the
# square area, and the truncation floor of the Gaussian draws.
W, H_GAIN, ALPHA, SIGMA2, I_D, C_A, P_MAX, AREA, DRAW_FLOOR = (
    1.0, 10.0, 2.0, 1.0, 0.1, 0.0096, 10.0, 10.0, 1e-6
)


@dataclass(frozen=True)
class RandomSpec:
    """Gaussian (mean, std) generators for the six random device parameters.

    Stds may be zero (all devices identical to the mean) but not negative.
    Draws are truncated below at DRAW_FLOOR to keep every parameter
    positive; the wireless constants are the module's, shared with paper9.
    """

    c_t: tuple[float, float] = (75.0, 40.0)
    c_p: tuple[float, float] = (0.009, 0.003)
    r_p: tuple[float, float] = (65.0, 18.0)
    T_a: tuple[float, float] = (0.010, 0.003)
    acc_a: tuple[float, float] = (11.0, 1.5)
    acc_c: tuple[float, float] = (12.5, 2.3)

    def __post_init__(self):
        for f in fields(self):
            mean, std = getattr(self, f.name)
            _check(f"std of {f.name}", std, 0.0, at_least=True)
            _check(f"mean of {f.name}", mean, 0.0)


# Slow, heterogeneous processing rates: they open arrival windows, so relays
# pay. The relay regime of the tests, the digest runs and the benchmark.
RELAY_SPEC = RandomSpec(r_p=(5.0, 4.0))


_M32, _M52, _M64, _M128 = ((1 << b) - 1 for b in (32, 52, 64, 128))
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_POOL_STEPS = [(k, d) for k in range(4) for d in range(4) if k != d]


class _PCG64:
    """The stream of `np.random.default_rng(seed)` for an integer seed, in
    pure Python, so that no scenario build imports `numpy.random`: numpy's
    SeedSequence hashing (a pool of 4 words, `generate_state(4, uint64)`)
    seeds a 128-bit PCG64 with XSL-RR output (O'Neill, 2014), and `normal`
    is numpy's ziggurat (Marsaglia and Tsang, 2000)."""

    def __init__(self, seed: int):
        words = [seed >> k & _M32 for k in range(0, max(seed.bit_length(), 1), 32)]
        # mix_entropy: hash the first 4 words (0 past the seed's) into the pool, then
        # each pool word into every other, then each further word into all of them
        h, pool = 0x43B0D7E5, []
        for v in (words + [0] * 3)[:4]:
            v ^= h
            h = h * 0x931E8875 & _M32
            v = v * h & _M32
            pool.append(v ^ v >> 16)
        for k, dst in _POOL_STEPS + [(k, d) for k in range(4, len(words)) for d in range(4)]:
            v = (pool[k] if k < 4 else words[k]) ^ h
            h = h * 0x931E8875 & _M32
            v = v * h & _M32
            r = 0xCA01F9DD * pool[dst] - 0x4973F715 * (v ^ v >> 16) & _M32
            pool[dst] = r ^ r >> 16
        h, out = 0x8B51F9DD, []  # generate_state: 8 words, read as 4 little-endian ones
        for k in range(8):
            v = pool[k % 4] ^ h
            h = h * 0x58F38DED & _M32
            v = v * h & _M32
            out.append(v ^ v >> 16)
        u = [out[k] | out[k + 1] << 32 for k in range(0, 8, 2)]
        # pcg64_set_seed: inc from words 2-3, then two steps around adding words 0-1
        self.inc = (u[2] << 64 | u[3]) << 1 & _M128 | 1
        self.state = ((self.inc + (u[0] << 64 | u[1])) * _PCG_MULT + self.inc) & _M128

    def _next64(self) -> int:
        """Step the generator; its XSL-RR output word."""
        s = self.state = (self.state * _PCG_MULT + self.inc) & _M128
        x = (s >> 64 ^ s) & _M64  # XSL; then rotate right by s >> 122
        return (x | x << 64) >> (s >> 122) & _M64

    def _double(self) -> float:
        """One draw on [0, 1), as numpy's `next_double`."""
        return (self._next64() >> 11) * 2.0**-53

    def uniform(self, low: float, high: float, count: int) -> list[float]:
        """`count` draws of `Generator.uniform(low, high)`, bit for bit."""
        scale = (high - low) * 2.0**-53
        return [low + scale * (self._next64() >> 11) for _ in range(count)]

    def normal(self, mean: float, std: float, count: int) -> list[float]:
        """`count` draws of `Generator.normal(mean, std)`, bit for bit: numpy's
        ziggurat on its own tables (`_ziggurat`), one 64-bit word a try."""
        out: list[float] = []
        while len(out) < count:
            r = self._next64()
            idx, rabs = r & 0xFF, r >> 9 & _M52  # a layer, a sign bit, then 52 bits
            x = rabs * WI[idx]
            if r & 0x100:
                x = -x
            if rabs < KI[idx]:  # inside the layer's rectangle: 99% of draws
                out.append(mean + std * x)
            elif idx == 0:  # the base layer's tail beyond R
                xx = yy = 0.0
                while yy + yy <= xx * xx:
                    xx = -R_INV * math.log1p(-self._double())
                    yy = -math.log1p(-self._double())
                out.append(mean + std * (-(R + xx) if rabs >> 8 & 1 else R + xx))
            elif (FI[idx - 1] - FI[idx]) * self._double() + FI[idx] < math.exp(-0.5 * x * x):
                out.append(mean + std * x)  # under the density in the layer's wedge
        return out


def _devices(columns: Sequence[Sequence[float]]) -> tuple[DeviceParams, ...]:
    """Devices from the columns (c_t, c_p, r_p, T_a, acc_a, acc_c), one
    entry per device, with the module's bandwidth and power cap.

    Accuracy b equals a; price caps sit at c*b and demand caps bind only at
    the price floor.
    """
    c_t, c_p, r_p, T_a, acc_a, acc_c = ([float(x) for x in col] for col in columns)
    cb = [c * a for a, c in zip(acc_a, acc_c)]
    q_lo = _price_floor(cb)
    return tuple(
        DeviceParams(
            c_p=cp,
            c_t=ct,
            r_p=rp,
            T_a=ta,
            w=W,
            accuracy=AccuracyModel(a=a, b=a, c=c),
            # math.log, not np.log, so that the caps are the same on every CPU
            s_max=math.log(x / q_lo) / c,
            q_max=x,
            p_max=P_MAX,
        )
        for ct, cp, rp, ta, a, c, x in zip(c_t, c_p, r_p, T_a, acc_a, acc_c, cb)
    )


def _seeded_scenario(
    n: int, seed: int, devices: Callable[[_PCG64], tuple[DeviceParams, ...]]
) -> Scenario:
    """Instance of the `n` devices that `devices` returns from the stream of
    `seed`, after the node positions, uniform on [0, AREA]^2, are drawn
    from it as `np.random.default_rng(seed)` draws them; with the module's
    wireless constants."""
    if n < 1:
        raise ScenarioError(f"need at least one device, got n={n}")
    if not isinstance(seed, numbers.Integral) or seed < 0:
        raise ScenarioError(f"seed must be a non-negative integer, got {seed!r}")
    try:  # can the (n+1) x (n+1) gain matrix be allocated? Asked before any draw
        np.empty((n + 1, n + 1))
    except (ValueError, MemoryError) as exc:  # past numpy's array limits, or past memory
        raise ScenarioError(f"too many devices for one scenario: n={n}") from exc
    rng = _PCG64(int(seed))
    positions = np.array(rng.uniform(0.0, AREA, 2 * (n + 1))).reshape(n + 1, 2)
    return Scenario(
        devices=devices(rng), positions=positions, h=H_GAIN, alpha=ALPHA, sigma2=SIGMA2,
        I_d=I_D, c_a=C_A,
    )


# 9-device benchmark instance: one tuple per parameter, in the builder's column
# order (c_t, c_p, r_p, T_a, acc_a, acc_c), one entry per device.
_P9_COLUMNS = (
    (58.0, 61.0, 51.5, 58.5, 95.0, 46.0, 175.0, 124.5, 31.0),
    (0.0043, 0.0085, 0.0136, 0.0095, 0.0098, 0.0067, 0.0081, 0.0055, 0.0112),
    (88.1, 89.3, 97.25, 61.65, 41.5, 41.95, 65.25, 82.15, 51.05),
    (0.0121, 0.0129, 0.0053, 0.0107, 0.0107, 0.0095, 0.013, 0.0088, 0.0072),
    (9.78, 9.15, 11.35, 11.17, 12.7, 9.15, 12.38, 13.5, 10.59),
    (15.28, 9.17, 14.31, 11.21, 9.12, 13.61, 13.27, 9.63, 14.32),
)
# built once: paper9 scenarios differ only in their positions, and the devices are frozen
_P9_DEVICES = _devices(_P9_COLUMNS)


def paper9_scenario(seed: int) -> Scenario:
    """The bundled 9-device benchmark scenario.

    All device parameters are fixed, one device tuple shared by every
    paper9 scenario; node positions are uniform on [0, 10]^2 and depend
    only on `seed`.
    """
    return _seeded_scenario(len(_P9_DEVICES), seed, lambda rng: _P9_DEVICES)


def random_scenario(n: int, seed: int, spec: RandomSpec = RandomSpec()) -> Scenario:
    """Seeded random instance: uniform positions, Gaussian device parameters."""

    def draw(stream: _PCG64) -> list[list[float]]:
        dists = (spec.c_t, spec.c_p, spec.r_p, spec.T_a, spec.acc_a, spec.acc_c)
        return [[max(x, DRAW_FLOOR) for x in stream.normal(mean, std, n)] for mean, std in dists]

    return _seeded_scenario(n, seed, lambda rng: _devices(draw(rng)))


# the scalar wireless constants of the config file's "global" section, beside "h"
_GLOBAL_KEYS = ("alpha", "sigma2", "I_d", "c_a")
_DEVICE_KEYS = tuple(f.name for f in fields(DeviceParams) if f.name != "accuracy")


def _device_to_dict(d: DeviceParams) -> dict:
    """`dataclasses.asdict(d)`, without its recursive deep copy."""
    data = {key: getattr(d, key) for key in _DEVICE_KEYS}
    data["accuracy"] = {"a": d.accuracy.a, "b": d.accuracy.b, "c": d.accuracy.c}
    return data


def scenario_to_dict(scen: Scenario) -> dict:
    """Plain-dict form used by the JSON config file."""
    off = ~np.eye(scen.n_nodes, dtype=bool)
    vals = scen.h[off]
    h: float | list = float(vals[0]) if np.all(vals == vals[0]) else scen.h.tolist()
    return {
        "devices": [_device_to_dict(d) for d in scen.devices],
        "positions": scen.positions.tolist(),
        "global": {**{key: getattr(scen, key) for key in _GLOBAL_KEYS}, "h": h},
    }


def scenario_from_dict(data: dict) -> Scenario:
    try:
        devices = tuple(
            DeviceParams(**{
                f.name: AccuracyModel(**d[f.name]) if f.name == "accuracy" else d[f.name]
                for f in fields(DeviceParams)
            })
            for d in data["devices"]
        )
        g = data["global"]
        try:
            positions = np.asarray(data["positions"], dtype=float)
            h = np.asarray(g["h"], dtype=float)
        except ValueError as exc:  # ragged or non-numeric
            raise ScenarioError(f"malformed scenario config: {exc}") from exc
        return Scenario(
            devices=devices, positions=positions, h=h, **{key: g[key] for key in _GLOBAL_KEYS}
        )
    except (KeyError, TypeError, OverflowError) as exc:
        raise ScenarioError(f"malformed scenario config: {exc}") from exc


def json_text(data: dict) -> str:
    """The JSON text of scenario files and run artifacts: indented, keys sorted."""
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


def save_scenario(scen: Scenario, path: str | os.PathLike) -> None:
    with open(path, "w") as fh:
        fh.write(json_text(scenario_to_dict(scen)))


def load_scenario(path: str | os.PathLike) -> Scenario:
    with open(path) as fh:
        return scenario_from_dict(json.load(fh))
