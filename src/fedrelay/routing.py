"""Relay topology: indicator matrices, structural checks, arrival deadlines.

The transmission graph is encoded two ways: as a target vector
(``targets[i]`` = node device i transmits to, access point = index n) and
as a 0/1 indicator matrix over all n+1 nodes, which `plan_to_indicator`
builds from it. Structural feasibility
means every device has exactly one outgoing link, no self-loops, at
least one device reaches the access point directly, and every forwarding
chain terminates at the access point. Every check reads the indicator's
rows as next-hop sets: out-degrees and diagonal entries per row, chain
termination by stepping each node's next hops, and every device's
deadline from its row and column, for the whole profile at once.
"""

from __future__ import annotations

import numpy as np

from .scenario import Scenario


def plan_to_indicator(targets: np.ndarray, n_nodes: int) -> np.ndarray:
    """0/1 indicator of a next-hop vector: row i holds one 1, at targets[i]."""
    I = np.zeros((n_nodes, n_nodes), dtype=np.int64)
    I[np.arange(len(targets)), np.asarray(targets, dtype=int)] = 1
    return I


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


def reach_defect(I: np.ndarray) -> float:
    """Chain-termination defect of an indicator over all n+1 nodes; 0 iff
    every forwarding chain ends at the access point.

    From every node, the set of nodes reached in exactly k hops is
    stepped through the next-hop sets of I for k = 1..n, with the access
    point absorbing (it always steps to itself as well). n single-link
    devices form chains of depth at most n, so n hops cover every case.
    Each start node adds one per device in its n-hop set, and one more
    if the access point is missing from it. A set that steps to itself
    stays fixed, so its walk stops early.
    """
    I = np.asarray(I)
    ap = I.shape[0] - 1
    next_hops: list[set[int]] = [set() for _ in range(ap + 1)]
    for v, w in zip(*np.nonzero(I)):
        next_hops[v].add(int(w))
    next_hops[ap].add(ap)
    defect = 0
    for u in range(ap + 1):
        reached = {u}
        for _ in range(ap):
            stepped = set().union(*(next_hops[v] for v in reached))
            if stepped == reached:
                break
            reached = stepped
        defect += len(reached - {ap}) + (ap not in reached)
    return float(defect)


def check_acyclic_reach(I: np.ndarray) -> bool:
    """True iff every forwarding chain ends at the access point."""
    return reach_defect(I) == 0.0


def processing_times(s: np.ndarray, scen: Scenario) -> np.ndarray:
    """Per-device local computation time for demand s."""
    return np.asarray(s, dtype=float) / scen.param("r_p")


def timing_violations(I: np.ndarray, s: np.ndarray, rates: np.ndarray, scen: Scenario) -> np.ndarray:
    """Arrival-deadline violation of every device at demand s (0 when met
    or transmitting direct).

    A device forwarding through relay j must finish computing, averaging
    its received updates, and transferring before j finishes computing:

        T_s[i] + T_a[i] * inflow(i) + I_d / rates[i] <= T_s[j]

    Only a device whose single outgoing link points at another device is
    subject to the deadline. A row that is not single-link (zero or
    multiple outgoing links) carries no timing term; it is already
    structurally infeasible. A relayed device without a positive rate
    raises ZeroDivisionError.
    """
    I = np.asarray(I)
    rates = np.asarray(rates, dtype=float)
    n = scen.n_devices
    degrees, loops, _ = link_faults(I)
    k = np.flatnonzero((degrees == 1) & (loops == 0) & (I[:n, n] == 0))  # the relayed devices
    stalled = k[~(rates[k] > 0)]
    if len(stalled):
        raise ZeroDivisionError(
            f"device {stalled[0]} forwards through a relay but has no positive transmission rate"
        )
    T_s = processing_times(s, scen)
    inflow, relay = I[:n, k].sum(axis=0), np.argmax(I[k], axis=1)
    v = np.zeros(n)
    v[k] = T_s[k] + scen.param("T_a")[k] * inflow + scen.I_d / rates[k] - T_s[relay]
    return v


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


def node_label(k: int, n_devices: int) -> str:
    """Node k's label: its 1-based device id, or "N_D" for the access point."""
    return "N_D" if k == n_devices else str(k + 1)


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
        label = " -> ".join(node_label(k, n_devices) for k in chain)
        if chain[-1] != ap:
            label += " !"
        lines.append(label)
    return lines


def routing_adjacency(targets: np.ndarray, n_devices: int) -> dict[str, str]:
    """JSON-friendly next-hop map with 1-based ids and "N_D" for the access point."""
    return {str(i + 1): node_label(int(targets[i]), n_devices) for i in range(n_devices)}


def _node_number(value) -> int | None:
    """The integer of a JSON integer or of its text, else None; a float or a
    bool is not one, though int() would truncate it."""
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        return None
    try:
        return int(value)
    except ValueError:
        return None


def adjacency_to_targets(adj: dict, n_devices: int) -> np.ndarray:
    """Inverse of routing_adjacency; every device must be named, and each
    next hop is "N_D" or a 1-based device id, as an integer or its text."""
    targets = np.full(n_devices, -1, dtype=int)
    for key, value in adj.items():
        device = _node_number(key)
        if device is None:
            raise ValueError(f'device id "{key}" is not an integer')
        if not 1 <= device <= n_devices:
            raise ValueError(f"device id {key} out of range")
        # 1-based, the access point numbered n_devices + 1
        hop = n_devices + 1 if value == "N_D" else _node_number(value)
        if hop is None:
            raise ValueError(f"target {value!r} of device {key} is not an integer")
        if not 1 <= hop <= n_devices + 1:
            raise ValueError(f"target {value} of device {key} out of range")
        targets[device - 1] = hop - 1
    missing = np.flatnonzero(targets < 0) + 1
    if len(missing):
        raise ValueError(f"devices {missing.tolist()} have no target")
    return targets
