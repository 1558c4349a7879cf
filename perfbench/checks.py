"""Output checks, run after the timed region.

Every solve and every sweep grid point is checked: the exit code is 0
or 3, every artifact is present and finite, the demand is the owner's
best response to the prices, every forwarding chain reaches the access
point (found by walking the targets, not through `routing`), and the
feasibility claim agrees with `routing.feasible`. A converged result
must also pass the unilateral-gain certificate. A problem list that is
empty means the check passed.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import math
from pathlib import Path

import numpy as np

from fedrelay import cli, lower_level, radio, routing, upper_level
from fedrelay.scenario import load_scenario, scenario_from_dict

SOLVE_ARTIFACTS = (
    "routing.txt", "prices.csv", "demands.csv", "rates.csv", "profits.csv", "equilibrium.csv", "report.json",
)
EPS_NASH = 1e-6  # the CLI default, which every operation uses
EPS_FEAS = upper_level.PenaltyConfig().eps_feas
M_FINAL = upper_level.DEFAULT_M_SCHEDULE[-1]
POWER_GRID = 50


def chains_reach_ap(targets, n: int) -> bool:
    """Walk each device's next hops; every chain must hit node n within n hops."""
    for i in range(n):
        node = i
        for _ in range(n):
            node = int(targets[node])
            if node == n or not 0 <= node < n:
                break
        if node != n:
            return False
    return True


def _finite_json(value) -> bool:
    if isinstance(value, float):
        return math.isfinite(value)
    if isinstance(value, dict):
        return all(_finite_json(v) for v in value.values())
    if isinstance(value, list):
        return all(_finite_json(v) for v in value)
    return True


def _csv_rows(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _finite_row(row: dict, skip=("target", "param", "converged")) -> bool:
    return all(math.isfinite(float(v)) for k, v in row.items() if k not in skip)


def _target(label: str, n: int) -> int:
    return n if label == "N_D" else int(label) - 1


def _equilibrium_problems(scen, prices, targets, powers, demand, rates, feasible_claim) -> list[str]:
    problems = []
    if not np.array_equal(demand, lower_level.best_response_demand(prices, scen)):
        problems.append("demand is not best_response_demand(prices)")
    if not chains_reach_ap(targets, scen.n_devices):
        problems.append("a forwarding chain does not reach the access point")
    I = routing.plan_to_indicator(targets, scen.n_nodes)
    feas, _ = routing.feasible(I, demand, rates, scen, EPS_FEAS)
    if feasible_claim is not None and feas != feasible_claim:
        problems.append(f"feasible flag {feasible_claim} but routing.feasible says {feas}")
    return problems


def check_solve(out_dir: Path, rc: int | None) -> list[str]:
    """Problems with one `fedrelay solve`; empty when it passes."""
    if rc not in (0, 3):
        return [f"exit code {rc}"]
    missing = [a for a in SOLVE_ARTIFACTS if not (out_dir / a).is_file()]
    if missing:
        return [f"missing artifacts {missing}"]
    problems = []
    for name in SOLVE_ARTIFACTS[1:-1]:
        if not all(_finite_row(r) for r in _csv_rows(out_dir / name)):
            problems.append(f"non-finite value in {name}")
    if any(line.endswith("!") for line in (out_dir / "routing.txt").read_text().splitlines()):
        problems.append("routing.txt marks a chain that does not terminate")
    payload = json.loads((out_dir / "report.json").read_text())
    if not _finite_json(payload):
        problems.append("non-finite value in report.json")
    report = payload["report"]
    scen = scenario_from_dict(payload["scenario"])
    arr = {k: np.asarray(report[k], dtype=float) for k in ("prices", "powers", "demand", "rates")}
    problems += _equilibrium_problems(
        scen, arr["prices"], np.asarray(report["targets"], dtype=int), arr["powers"],
        arr["demand"], arr["rates"], report["feasible"],
    )
    if rc == 0:
        _, recomputed = cli.reverify_unilateral_gain(out_dir / "report.json")
        if not recomputed <= EPS_NASH:
            problems.append(f"re-verified unilateral gain {recomputed:.3g} > eps_nash")
    return problems


def check_sweep(out_dir: Path, rc: int | None, scenario_path: str, param: str, values) -> list[tuple[bool, list[str]]]:
    """(solved, problems) for each grid point of one `fedrelay sweep`.

    The sweep writes no feasibility flag, so a converged point, whose
    flag is true by definition, must pass `routing.feasible`.
    """
    if rc not in (0, 3):
        return [(False, [f"exit code {rc}"])] * len(values)
    path = out_dir / "sweep.csv"
    if not path.is_file():
        return [(False, ["missing sweep.csv"])] * len(values)
    rows = _csv_rows(path)
    base = load_scenario(scenario_path)
    n = base.n_devices
    out = []
    for k, value in enumerate(values):
        group = rows[k * n:(k + 1) * n]
        if len(group) != n or any(float(r["value"]) != value or r["param"] != param for r in group):
            out.append((False, ["grid point rows missing or out of order"]))
            continue
        if not all(_finite_row(r) for r in group):
            out.append((False, ["non-finite value in sweep.csv"]))
            continue
        scen = dataclasses.replace(base, **{param: value})
        col = {c: np.array([float(r[c]) for r in group]) for c in ("price", "demand", "rate", "power")}
        targets = np.array([_target(r["target"], n) for r in group])
        converged = group[0]["converged"] == "True"
        problems = _equilibrium_problems(
            scen, col["price"], targets, col["power"], col["demand"], col["rate"],
            True if converged else None,
        )
        if converged:
            profile = upper_level.StrategyProfile(col["price"], targets, col["power"])
            gains = upper_level.unilateral_gains(profile, scen, M_FINAL, power_grid=POWER_GRID)
            if not np.max(np.maximum(gains, 0.0), initial=0.0) <= EPS_NASH:
                problems.append("unilateral gain above eps_nash at a converged point")
        out.append((converged and not problems, problems))
    return out


def relayed_devices(out_dir: Path) -> int:
    """Device rows of a sweep.csv that forward through another device."""
    path = out_dir / "sweep.csv"
    return sum(r["target"] != "N_D" for r in _csv_rows(path)) if path.is_file() else 0


def same_bytes(a: Path, b: Path) -> bool:
    """Both directories hold the same file names with identical bytes."""
    names_a = sorted(p.name for p in a.iterdir())
    names_b = sorted(p.name for p in b.iterdir())
    return names_a == names_b and all((a / n).read_bytes() == (b / n).read_bytes() for n in names_a)


class MinPowerSuccess:
    """Whether `radio.min_power_for_rate` has returned a power since install().

    Used by the relay precondition. The wrapper sets a flag on the first
    success and puts the original function back, so later calls in the
    timed region run unwrapped. Both writes are idempotent, so the sweep's
    pool threads need no lock.
    """

    def __init__(self):
        self.seen = False
        self._original = None

    def install(self) -> None:
        original = self._original = radio.min_power_for_rate

        def watched(*args, **kwargs):
            result = original(*args, **kwargs)
            self.seen = True
            if radio.min_power_for_rate is watched:  # not while a tracer wraps it
                radio.min_power_for_rate = original
            return result

        radio.min_power_for_rate = watched

    def uninstall(self) -> None:
        if self._original is not None:
            radio.min_power_for_rate = self._original
            self._original = None
