"""The model owner's side of the game: accuracy value, utility, and the
closed-form demand response to posted prices.

The owner buys training data from each device at the posted per-unit
price. Its utility is the summed accuracy value of the purchased data
minus the payments; both are separable across devices, so the optimal
demand decouples into one scalar problem per device with a log-form
solution.
"""

from __future__ import annotations

import numpy as np

from .scenario import Scenario, price_floor

__all__ = [
    "accuracy_vector",
    "owner_utility",
    "best_response_demand",
    "price_floor",
]


def accuracy_vector(s: np.ndarray, scen: Scenario) -> np.ndarray:
    """Accuracy of each device's update trained on s[i] data units."""
    a, b, c = scen.accuracy_coeffs()
    return a - b * np.exp(-c * np.asarray(s, dtype=float))


def owner_utility(s: np.ndarray, q: np.ndarray, scen: Scenario) -> float:
    """Total accuracy value minus total payment, sum_i [f_i(s_i) - q_i s_i]."""
    s = np.asarray(s, dtype=float)
    q = np.asarray(q, dtype=float)
    if s.shape != q.shape:
        raise ValueError(f"shape mismatch: demand {s.shape} vs prices {q.shape}")
    return float(np.sum(accuracy_vector(s, scen) - q * s))


def best_response_demand(q: np.ndarray, scen: Scenario) -> np.ndarray:
    """Owner's optimal demand for posted prices, clamped to [0, s_max].

    Interior values satisfy the stationarity condition
    q_i = c_i * b_i * exp(-c_i * s_i); prices at or above c_i * b_i shut
    the purchase off entirely.
    """
    q = np.asarray(q, dtype=float)
    if np.any(q <= 0):
        raise ValueError("prices must be strictly positive")
    _, b, c = scen.accuracy_coeffs()
    s_max = scen.param("s_max")
    s = np.log(c * b / q) / c
    return np.clip(s, 0.0, s_max)

