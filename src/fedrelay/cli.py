"""Command-line front end: scenario validation, equilibrium solves, and
parameter sweeps with plot-ready CSV output.

Subcommands:
    validate  check a scenario config (and optionally a routing/profile)
    solve     compute the equilibrium and write artifacts to a directory
    sweep     re-solve over a grid of one global parameter

Exit codes: 0 success/converged, 2 invalid config, 3 non-converged
(artifacts are still written).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import logging
import math
import os
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import lower_level, radio, routing
from .scenario import (
    Scenario,
    ScenarioError,
    load_scenario,
    paper9_scenario,
    random_scenario,
    scenario_from_dict,
    scenario_to_dict,
)
from .upper_level import (
    EquilibriumReport,
    PenaltyConfig,
    StrategyProfile,
    solve_stackelberg,
    unilateral_gains,
)

logger = logging.getLogger(__name__)

PRESETS = ("paper9",)
SWEEPABLE = ("c_a", "I_d", "sigma2", "alpha")
EQUILIBRIUM_COLUMNS = ("device_id", "price", "demand", "rate", "power", "target", "profit")


@dataclass(frozen=True)
class RunConfig:
    """One resolved invocation: scenario source plus solver settings."""

    scenario_path: str | None = None
    preset: str | None = None
    random_n: int | None = None
    seed: int | None = None
    out_dir: str | None = None
    fmt: str = "table"
    eps_nash: float = 1e-6
    m_schedule: tuple[float, ...] = PenaltyConfig.m_schedule
    max_iter: int = 100
    power_grid: int = 50

    def __post_init__(self):
        sources = [s for s in (self.scenario_path, self.preset, self.random_n) if s is not None]
        if len(sources) != 1:
            raise ScenarioError("exactly one of --scenario, --preset, --random is required")
        if self.scenario_path is None and self.seed is None:
            raise ScenarioError("--seed is required with --preset and --random")
        if self.power_grid < 1:
            raise ScenarioError(f"--power-grid must be >= 1, got {self.power_grid}")
        if self.max_iter < 1:
            raise ScenarioError(f"--max-iter must be >= 1, got {self.max_iter}")
        if not (math.isfinite(self.eps_nash) and self.eps_nash >= 0):
            raise ScenarioError(f"--eps-nash must be finite and >= 0, got {self.eps_nash}")
        try:
            self.penalty()
        except ValueError as exc:
            raise ScenarioError(f"--m-schedule: {exc}") from None

    def scenario(self) -> Scenario:
        if self.scenario_path is not None:
            return load_scenario(self.scenario_path)
        if self.preset is not None:
            if self.preset not in PRESETS:
                raise ScenarioError(f"unknown preset {self.preset!r}; available: {PRESETS}")
            return paper9_scenario(self.seed)
        return random_scenario(self.random_n, self.seed)

    def penalty(self) -> PenaltyConfig:
        return PenaltyConfig(m_schedule=self.m_schedule)

    def to_dict(self) -> dict:
        return {
            "scenario_path": self.scenario_path,
            "preset": self.preset,
            "random_n": self.random_n,
            "seed": self.seed,
            "eps_nash": self.eps_nash,
            "m_schedule": list(self.m_schedule),
            "max_iter": self.max_iter,
            "power_grid": self.power_grid,
        }


def _atomic_write(path: Path, data: str) -> None:
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "w", newline="") as fh:
        fh.write(data)
    os.replace(tmp, path)


def _csv_text(header: tuple[str, ...], rows: list[tuple]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _target_label(t: int, n: int) -> str:
    return "N_D" if t == n else str(t + 1)


def equilibrium_rows(report: EquilibriumReport) -> list[tuple]:
    n = len(report.prices)
    return [
        (
            i + 1,
            report.prices[i],
            report.demand[i],
            report.rates[i],
            report.powers[i],
            _target_label(int(report.targets[i]), n),
            report.profits[i],
        )
        for i in range(n)
    ]


def write_solve_artifacts(out_dir: Path, report: EquilibriumReport, scen: Scenario, cfg: RunConfig) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    n = len(report.prices)
    lines = routing.routing_lines(report.targets, n)
    _atomic_write(out_dir / "routing.txt", "\n".join(lines) + "\n")
    per_device = {
        "prices.csv": ("price", report.prices),
        "demands.csv": ("demand", report.demand),
        "rates.csv": ("rate", report.rates),
        "profits.csv": ("profit", report.profits),
    }
    for name, (col, values) in per_device.items():
        rows = [(i + 1, values[i]) for i in range(n)]
        _atomic_write(out_dir / name, _csv_text(("device_id", col), rows))
    _atomic_write(
        out_dir / "equilibrium.csv", _csv_text(EQUILIBRIUM_COLUMNS, equilibrium_rows(report))
    )
    payload = {
        "scenario": scenario_to_dict(scen),
        "config": cfg.to_dict(),
        "report": report.to_dict(),
    }
    _atomic_write(out_dir / "report.json", json.dumps(payload, indent=2, sort_keys=True) + "\n")


def reverify_unilateral_gain(path: str | os.PathLike) -> tuple[float, float]:
    """Reload a report.json and re-measure the best-response gap at its
    profile; returns (stored, recomputed)."""
    with open(path) as fh:
        payload = json.load(fh)
    scen = scenario_from_dict(payload["scenario"])
    report = EquilibriumReport.from_dict(payload["report"])
    m_schedule = tuple(payload["config"]["m_schedule"])
    power_grid = int(payload["config"]["power_grid"])
    gains = unilateral_gains(
        report.profile(), scen, m_schedule[-1], power_grid=power_grid
    )
    recomputed = float(np.max(np.maximum(gains, 0.0), initial=0.0))
    return float(payload["report"]["max_unilateral_gain"]), recomputed


def _print_table(report: EquilibriumReport) -> None:
    n = len(report.prices)
    print(f"{'dev':>4} {'price':>12} {'demand':>12} {'rate':>12} {'power':>12} {'target':>7} {'profit':>12}")
    for i in range(n):
        print(
            f"{i + 1:>4} {report.prices[i]:>12.6f} {report.demand[i]:>12.6f}"
            f" {report.rates[i]:>12.6f} {report.powers[i]:>12.6f}"
            f" {_target_label(int(report.targets[i]), n):>7} {report.profits[i]:>12.6f}"
        )
    print(
        f"owner_utility={report.owner_utility:.6f} converged={report.converged}"
        f" iterations={report.iterations} max_unilateral_gain={report.max_unilateral_gain:.3g}"
        f" feasible={report.feasible} order_robust={report.order_robust}"
    )


def cmd_validate(cfg: RunConfig, routing_path: str | None, profile_path: str | None) -> int:
    try:
        scen = cfg.scenario()
    except (ScenarioError, OSError, json.JSONDecodeError) as exc:
        print(f"invalid scenario: {exc}", file=sys.stderr)
        return 2
    print(f"scenario OK: {scen.n_devices} devices")
    ok = True
    if routing_path is not None:
        with open(routing_path) as fh:
            adj = json.load(fh)
        try:
            targets = routing.adjacency_to_targets(adj, scen.n_devices)
        except (AttributeError, TypeError, ValueError) as exc:
            raise ScenarioError(f"routing {routing_path}: {type(exc).__name__}: {exc}") from None
        I = routing.plan_to_indicator(targets, scen.n_nodes)
        checks = {
            "single_link": routing.check_single_link(I),
            "ap_connected": routing.check_ap_connected(I),
            "chains_terminate": routing.check_acyclic_reach(I),
        }
        for name, passed in checks.items():
            print(f"routing {name}: {'ok' if passed else 'VIOLATED'}")
        ok = ok and all(checks.values())
    if profile_path is not None:
        with open(profile_path) as fh:
            raw = json.load(fh)
        n = scen.n_devices
        try:
            profile = StrategyProfile(raw["prices"], raw["targets"], raw["powers"])
            if len(profile.prices) != n:
                raise ValueError(f"{len(profile.prices)} devices, the scenario has {n}")
            if np.any((profile.targets < 0) | (profile.targets > n)):
                raise ValueError(f"targets must lie in 0..{n}")
            demand = lower_level.best_response_demand(profile.prices, scen)
            rates = radio.transmission_rates(profile.targets, profile.powers, scen)
            I = profile.indicator(scen.n_nodes)
        except (KeyError, TypeError, ValueError) as exc:
            raise ScenarioError(f"profile {profile_path}: {type(exc).__name__}: {exc}") from None
        feas, violations = routing.feasible(I, demand, rates, scen, PenaltyConfig().eps_feas)
        print(f"profile feasible: {feas}")
        for v in violations:
            print(f"  violation: {v}")
        ok = ok and feas
    return 0 if ok else 2


def cmd_solve(cfg: RunConfig) -> int:
    scen = cfg.scenario()
    report = solve_stackelberg(
        scen,
        cfg.penalty(),
        eps_nash=cfg.eps_nash,
        max_iter=cfg.max_iter,
        power_grid=cfg.power_grid,
    )
    out_dir = Path(cfg.out_dir)
    write_solve_artifacts(out_dir, report, scen, cfg)
    if cfg.fmt == "json":
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    elif cfg.fmt == "csv":
        print(_csv_text(EQUILIBRIUM_COLUMNS, equilibrium_rows(report)), end="")
    else:
        _print_table(report)
    return 0 if report.converged else 3


def sweep_rows(scen: Scenario, param: str, value: float, cfg: RunConfig) -> list[tuple]:
    modified = dataclasses.replace(scen, **{param: value})
    report = solve_stackelberg(
        modified,
        cfg.penalty(),
        eps_nash=cfg.eps_nash,
        max_iter=cfg.max_iter,
        power_grid=cfg.power_grid,
        order_check=False,
    )
    return [
        (param, value, report.converged) + row for row in equilibrium_rows(report)
    ]


def cmd_sweep(cfg: RunConfig, param: str, values: tuple[float, ...]) -> int:
    if param not in SWEEPABLE:
        print(f"unsupported sweep parameter {param!r}; choose from {SWEEPABLE}", file=sys.stderr)
        return 2
    scen = cfg.scenario()
    header = ("param", "value", "converged") + EQUILIBRIUM_COLUMNS
    rows: list[tuple] = []
    for value in values:
        rows.extend(sweep_rows(scen, param, value, cfg))
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    _atomic_write(out_dir / "sweep.csv", _csv_text(header, rows))
    all_converged = all(r[2] for r in rows) if rows else True
    return 0 if all_converged else 3


def _add_common(parser: argparse.ArgumentParser, with_out: bool) -> None:
    parser.add_argument("--scenario", help="path to a scenario config file")
    parser.add_argument("--preset", choices=PRESETS, help="bundled scenario preset")
    parser.add_argument("--random", type=int, metavar="N", help="random scenario with N devices")
    parser.add_argument("--seed", type=int, help="seed for preset/random positions")
    parser.add_argument("--eps-nash", type=float, default=1e-6)
    parser.add_argument("--m-schedule", default=None, help="comma-separated penalty coefficients")
    parser.add_argument("--max-iter", type=int, default=100)
    parser.add_argument(
        "--power-grid", type=int, default=50, metavar="N",
        help="direct-link transmit power floor is p_max / N (default 50)",
    )
    if with_out:
        parser.add_argument("--out", required=True, help="output directory")
        parser.add_argument("--format", choices=("csv", "json", "table"), default="table")


def _floats(text: str, flag: str) -> tuple[float, ...]:
    """Comma-separated numbers; empty items are skipped."""
    try:
        return tuple(float(x) for x in text.split(",") if x.strip())
    except ValueError:
        raise ScenarioError(f"{flag} must be comma-separated numbers, got {text!r}") from None


def _run_config(args: argparse.Namespace, with_out: bool) -> RunConfig:
    m_schedule = PenaltyConfig.m_schedule
    if args.m_schedule:
        m_schedule = _floats(args.m_schedule, "--m-schedule")
    return RunConfig(
        scenario_path=args.scenario,
        preset=args.preset,
        random_n=args.random,
        seed=args.seed,
        out_dir=args.out if with_out else None,
        fmt=args.format if with_out else "table",
        eps_nash=args.eps_nash,
        m_schedule=m_schedule,
        max_iter=args.max_iter,
        power_grid=args.power_grid,
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="fedrelay",
        description="Equilibrium solver for the joint pricing / cooperative-relay game",
    )
    parser.add_argument("--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)

    p_validate = sub.add_parser("validate", help="check a scenario (and optional routing/profile)")
    _add_common(p_validate, with_out=False)
    p_validate.add_argument("--routing", help="JSON next-hop map to check structurally")
    p_validate.add_argument("--profile", help="JSON strategy profile to check fully")

    p_solve = sub.add_parser("solve", help="solve for the equilibrium and write artifacts")
    _add_common(p_solve, with_out=True)

    p_sweep = sub.add_parser("sweep", help="solve across a grid of one global parameter")
    _add_common(p_sweep, with_out=True)
    p_sweep.add_argument("--param", required=True, help=f"one of {SWEEPABLE}")
    p_sweep.add_argument("--values", required=True, help="comma-separated grid (may be empty)")
    p_sweep.add_argument(
        "--jobs", type=int, metavar="N",
        help="ignored; grid points are solved one after another",
    )

    args = parser.parse_args(argv)
    logging.basicConfig(level=logging.DEBUG if args.verbose else logging.WARNING)

    try:
        cfg = _run_config(args, with_out=args.command in ("solve", "sweep"))
    except ScenarioError as exc:
        print(f"invalid config: {exc}", file=sys.stderr)
        return 2

    try:
        if args.command == "validate":
            return cmd_validate(cfg, args.routing, args.profile)
        if args.command == "solve":
            return cmd_solve(cfg)
        return cmd_sweep(cfg, args.param, _floats(args.values, "--values"))
    except (ScenarioError, OSError, json.JSONDecodeError) as exc:
        print(f"invalid config: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
