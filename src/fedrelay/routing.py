"""Relay topology: indicator matrices, structural checks, arrival deadlines.

The transmission graph is encoded two ways: as a target vector
(``targets[i]`` = node device i transmits to, access point = index n) and
as a 0/1 indicator matrix over all n+1 nodes. Structural feasibility
means every device has exactly one outgoing link, no self-loops, at
least one device reaches the access point directly, and every forwarding
chain terminates at the access point.
"""

from __future__ import annotations

import numpy as np

from .scenario import Scenario


def power_matrix(targets: np.ndarray, powers: np.ndarray, n_nodes: int) -> np.ndarray:
    """Sparse power matrix with one entry per device row."""
    targets = np.asarray(targets, dtype=int)
    powers = np.asarray(powers, dtype=float)
    P = np.zeros((n_nodes, n_nodes))
    P[np.arange(len(targets)), targets] = powers
    return P


def indicator_from_powers(P: np.ndarray) -> np.ndarray:
    """0/1 indicator of strictly positive power entries."""
    P = np.asarray(P, dtype=float)
    if np.any(P < 0):
        raise ValueError("power entries must be nonnegative")
    return (P > 0).astype(np.int64)


def plan_to_indicator(targets: np.ndarray, n_nodes: int) -> np.ndarray:
    """Indicator of a target vector (unit power on each chosen link)."""
    return indicator_from_powers(power_matrix(targets, np.ones(len(targets)), n_nodes))


def link_faults(I: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    """Out-degree and diagonal entry of each device row, and the access-
    point shortfall: 1 minus the number of direct links to it."""
    I = np.asarray(I)
    n = I.shape[0] - 1
    return I[:n].sum(axis=1), np.diagonal(I)[:n], 1 - int(I[:n, n].sum())


def check_single_link(I: np.ndarray) -> bool:
    """Every device row has exactly one outgoing link and no self-loop."""
    degrees, loops, _ = link_faults(I)
    return bool(np.all(degrees == 1) and np.all(loops == 0))


def check_ap_connected(I: np.ndarray) -> bool:
    """At least one device transmits directly to the access point."""
    return link_faults(I)[2] <= 0


def _absorbing(I: np.ndarray) -> np.ndarray:
    """Copy of I with a self-loop at the access point, so chains that
    arrive there stay there under repeated squaring."""
    J = np.asarray(I, dtype=np.int64).copy()
    J[-1, -1] = 1
    return J


def bool_matrix_power(I: np.ndarray, k: int) -> np.ndarray:
    """k-step reachability matrix over the boolean (OR/AND) semiring."""
    if k < 1:
        raise ValueError("exponent must be >= 1")
    result = np.asarray(I, dtype=np.int64).copy()
    base = np.asarray(I, dtype=np.int64)
    for _ in range(k - 1):
        result = (result @ base > 0).astype(np.int64)
    return result


def all_at_ap_matrix(n_nodes: int) -> np.ndarray:
    """Matrix every feasible plan's reachability power must equal: each
    row's single 1 sits in the access-point column."""
    M = np.zeros((n_nodes, n_nodes), dtype=np.int64)
    M[:, -1] = 1
    return M


def reach_defect(I: np.ndarray) -> float:
    """Squared Frobenius distance of the reachability power from the
    all-chains-at-access-point matrix; 0 iff every chain terminates.

    The power is the boolean n-th power of the indicator with the
    absorbing access-point convention; n single-link devices can form a
    chain of depth at most n, so exponent n covers every case.
    """
    I = np.asarray(I)
    n = I.shape[0] - 1
    reach = bool_matrix_power(_absorbing(I), n)
    return float(((reach - all_at_ap_matrix(I.shape[0])) ** 2).sum())


def check_acyclic_reach(I: np.ndarray) -> bool:
    """True iff every forwarding chain ends at the access point."""
    return reach_defect(I) == 0.0


def processing_times(s: np.ndarray, scen: Scenario) -> np.ndarray:
    """Per-device local computation time for demand s."""
    return np.asarray(s, dtype=float) / scen.param("r_p")


def timing_violation(i: int, I: np.ndarray, s: np.ndarray, rates: np.ndarray, scen: Scenario) -> float:
    """Arrival-deadline violation of device i at demand s (0 when met or
    transmitting direct).

    A device forwarding through relay j must finish computing, averaging
    its received updates, and transferring before j finishes computing:

        T_s[i] + T_a[i] * inflow(i) + I_d / rates[i] <= T_s[j]

    Only a device whose single outgoing link points at another device is
    subject to the deadline. A row that is not single-link (zero or
    multiple outgoing links) carries no timing term; it is already
    structurally infeasible. O(n): reads row i and column i of I.
    """
    row = I[i]
    if row.sum() != 1 or row[scen.ap] == 1 or row[i] == 1:
        return 0.0
    j = int(np.argmax(row))
    if not rates[i] > 0:
        raise ZeroDivisionError(
            f"device {i} forwards through a relay but has no positive transmission rate"
        )
    T_s = processing_times(s, scen)
    inflow = I[: scen.n_devices, i].sum()
    return float(T_s[i] + scen.devices[i].T_a * inflow + scen.I_d / rates[i] - T_s[j])


def timing_violations(I: np.ndarray, s: np.ndarray, rates: np.ndarray, scen: Scenario) -> np.ndarray:
    """`timing_violation` of every device."""
    I = np.asarray(I)
    rates = np.asarray(rates, dtype=float)
    return np.array([timing_violation(i, I, s, rates, scen) for i in range(scen.n_devices)])


def check_timing(I: np.ndarray, s: np.ndarray, rates: np.ndarray, scen: Scenario, tol: float = 0.0) -> np.ndarray:
    """Per-device deadline flags; direct transmitters pass vacuously."""
    return timing_violations(I, s, rates, scen) <= tol


def feasible(
    I: np.ndarray,
    s: np.ndarray,
    rates: np.ndarray,
    scen: Scenario,
    tol: float = 0.0,
) -> tuple[bool, list[dict]]:
    """All routing and deadline constraints at once, with a violation report."""
    I = np.asarray(I)
    violations: list[dict] = []
    degrees, loops, shortfall = link_faults(I)
    for i in range(scen.n_devices):
        if degrees[i] != 1:
            violations.append({"constraint": "single_link", "device": i, "out_degree": int(degrees[i])})
        if loops[i] != 0:
            violations.append({"constraint": "self_loop", "device": i})
    if shortfall > 0:
        violations.append({"constraint": "ap_connected", "shortfall": shortfall})
    defect = reach_defect(I)
    if defect > 0:
        violations.append({"constraint": "reachability", "defect": defect})
    v = timing_violations(I, s, rates, scen)
    for i in np.nonzero(v > tol)[0]:
        violations.append({"constraint": "timing", "device": int(i), "violation": float(v[i])})
    return (not violations), violations


def routing_lines(targets: np.ndarray, n_devices: int) -> list[str]:
    """Forwarding chains as text rows, one per device: "3 -> 7 -> N_D".

    Device ids are 1-based; a chain that fails to reach the access point
    within n hops is marked with a trailing "!".
    """
    ap = n_devices
    lines = []
    for i in range(n_devices):
        chain = [i]
        node = i
        for _ in range(n_devices):
            node = int(targets[node]) if node < ap else ap
            chain.append(node)
            if node == ap:
                break
        label = " -> ".join("N_D" if k == ap else str(k + 1) for k in chain)
        if chain[-1] != ap:
            label += " !"
        lines.append(label)
    return lines


def routing_adjacency(targets: np.ndarray, n_devices: int) -> dict[str, str]:
    """JSON-friendly next-hop map with 1-based ids and "N_D" for the access point."""
    ap = n_devices
    return {
        str(i + 1): ("N_D" if int(targets[i]) == ap else str(int(targets[i]) + 1))
        for i in range(n_devices)
    }


def adjacency_to_targets(adj: dict, n_devices: int) -> np.ndarray:
    """Inverse of routing_adjacency; every device must be named."""
    targets = np.full(n_devices, -1, dtype=int)
    for key, value in adj.items():
        i = int(key) - 1
        if not 0 <= i < n_devices:
            raise ValueError(f"device id {key} out of range")
        t = n_devices if value == "N_D" else int(value) - 1
        if not 0 <= t <= n_devices:
            raise ValueError(f"target {value} of device {key} out of range")
        targets[i] = t
    missing = np.flatnonzero(targets < 0) + 1
    if len(missing):
        raise ValueError(f"devices {missing.tolist()} have no target")
    return targets
