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
import functools
import io
import json
import logging
import os
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import lower_level, radio, routing
from .scenario import (
    Scenario,
    ScenarioError,
    json_text,
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

PRESETS = {"paper9": paper9_scenario}
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
    m_schedule: tuple[float, ...] = PenaltyConfig.m_schedule
    max_iter: int = 100
    power_grid: int = 50

    def __post_init__(self):
        sources = [s for s in (self.scenario_path, self.preset, self.random_n) if s is not None]
        if len(sources) != 1:
            raise ScenarioError("exactly one of --scenario, --preset, --random is required")
        if self.scenario_path is None and self.seed is None:
            raise ScenarioError("--seed is required with --preset and --random")
        if self.preset is not None and self.preset not in PRESETS:
            raise ScenarioError(f"unknown preset {self.preset!r}; choose from {tuple(PRESETS)}")
        if self.power_grid < 1:
            raise ScenarioError(f"--power-grid must be >= 1, got {self.power_grid}")
        if self.power_grid > sys.float_info.max:  # p_max / N would overflow
            raise ScenarioError(f"--power-grid must be at most {sys.float_info.max:g}")
        if self.max_iter < 1:
            raise ScenarioError(f"--max-iter must be >= 1, got {self.max_iter}")
        try:
            self.penalty()
        except ValueError as exc:
            raise ScenarioError(f"--m-schedule: {exc}") from None

    def scenario(self) -> Scenario:
        if self.scenario_path is not None:
            return scenario_from_dict(_read_json("--scenario", self.scenario_path))
        if self.preset is not None:
            return PRESETS[self.preset](self.seed)
        return random_scenario(self.random_n, self.seed)

    def penalty(self) -> PenaltyConfig:
        return PenaltyConfig(m_schedule=self.m_schedule)

    def solve(self, scen: Scenario) -> EquilibriumReport:
        """`solve_stackelberg` of `scen` with these settings."""
        return solve_stackelberg(scen, self.penalty(), max_iter=self.max_iter, power_grid=self.power_grid)

    def to_dict(self) -> dict:
        """The settings a report depends on: all but the output fields, and the Nash tolerance."""
        data = {f.name: getattr(self, f.name) for f in dataclasses.fields(self)}
        del data["out_dir"], data["fmt"]
        return data | {"eps_nash": PenaltyConfig.eps_nash}


def _read_json(flag: str, path: str) -> dict:
    """The JSON object in the file passed as `flag`; an unreadable file, or
    one that does not hold a JSON object, is a ScenarioError."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, ValueError) as exc:  # ValueError: a JSON syntax error, or bytes that are not text
        raise ScenarioError(f"{flag} {path}: {getattr(exc, 'strerror', None) or exc}") from None
    if not isinstance(data, dict):
        raise ScenarioError(f"{flag} {path}: the file must hold a JSON object")
    return data


def _profile_from_json(raw: dict) -> StrategyProfile:
    """The profile of a --profile file: JSON numbers under "prices",
    "targets" and "powers". Strings and booleans are rejected; numpy
    would read them as numbers."""
    columns = []
    for key in ("prices", "targets", "powers"):
        if key not in raw:
            raise ValueError(f'missing field "{key}"')
        values = raw[key]
        if not isinstance(values, list):
            raise ValueError(f"{key} must be a list of numbers")
        for k, v in enumerate(values):
            if isinstance(v, bool) or not isinstance(v, (int, float)):
                raise ValueError(f"{key} must be a list of numbers, got {json.dumps(v)}")
            try:
                float(v)
            except OverflowError:  # an integer; its digits could run to thousands
                raise ValueError(f"{key}[{k}] is an integer too large for a float") from None
        columns.append(values)
    return StrategyProfile(*columns)


def _atomic_write(path: Path, text: str) -> None:
    """Write `text` as UTF-8 to a `.tmp` sibling of `path`, then rename it
    onto `path`, so that no reader sees a partial artifact."""
    tmp = f"{path}.tmp"
    data = memoryview(text.encode())
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o666)
    try:
        while data:
            data = data[os.write(fd, data):]
    finally:
        os.close(fd)
    os.replace(tmp, path)


def _csv_text(header: tuple[str, ...], rows: list[tuple]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def equilibrium_rows(report: EquilibriumReport) -> list[tuple]:
    """One row per device, in the order of EQUILIBRIUM_COLUMNS."""
    n = len(report.prices)
    # Python numbers: the CSV writer's str() of a float is faster than of a numpy scalar
    columns = zip(report.prices.tolist(), report.demand.tolist(), report.rates.tolist(),
                  report.powers.tolist(), report.targets.tolist(), report.profits.tolist())
    return [
        (i + 1, q, s, r, p, routing.node_label(t, n), profit)
        for i, (q, s, r, p, t, profit) in enumerate(columns)
    ]


def write_solve_artifacts(out_dir: Path, report: EquilibriumReport, scen: Scenario, cfg: RunConfig) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    lines = routing.routing_lines(report.targets, len(report.prices))
    _atomic_write(out_dir / "routing.txt", "\n".join(lines) + "\n")
    rows = equilibrium_rows(report)
    for col in ("price", "demand", "rate", "profit"):
        k = EQUILIBRIUM_COLUMNS.index(col)
        column = [(row[0], row[k]) for row in rows]
        _atomic_write(out_dir / f"{col}s.csv", _csv_text(("device_id", col), column))
    _atomic_write(out_dir / "equilibrium.csv", _csv_text(EQUILIBRIUM_COLUMNS, rows))
    payload = {
        "scenario": scenario_to_dict(scen),
        "config": cfg.to_dict(),
        "report": report.to_dict(),
    }
    _atomic_write(out_dir / "report.json", json_text(payload))


def reverify_unilateral_gain(path: str | os.PathLike) -> tuple[float, float]:
    """Reload a report.json and re-measure the best-response gap at its
    profile; returns (stored, recomputed)."""
    with open(path) as fh:
        payload = json.load(fh)
    scen = scenario_from_dict(payload["scenario"])
    r = payload["report"]
    profile = _profile_from_json(r)
    m_schedule = tuple(payload["config"]["m_schedule"])
    power_grid = int(payload["config"]["power_grid"])
    gains = unilateral_gains(profile, scen, m_schedule[-1], power_grid=power_grid)
    recomputed = float(np.max(gains, initial=0.0))
    return float(r["max_unilateral_gain"]), recomputed


def _print_table(report: EquilibriumReport) -> None:
    print(f"{'dev':>4} {'price':>12} {'demand':>12} {'rate':>12} {'power':>12} {'target':>7} {'profit':>12}")
    for dev, price, demand, rate, power, target, profit in equilibrium_rows(report):
        print(
            f"{dev:>4} {price:>12.6f} {demand:>12.6f} {rate:>12.6f} {power:>12.6f}"
            f" {target:>7} {profit:>12.6f}"
        )
    print(
        f"owner_utility={report.owner_utility:.6f} converged={report.converged}"
        f" iterations={report.iterations} max_unilateral_gain={report.max_unilateral_gain:.3g}"
        f" feasible={report.feasible}"
    )


def cmd_validate(cfg: RunConfig, routing_path: str | None, profile_path: str | None) -> int:
    """Check the scenario, then any routing and profile; print the report after the last check."""
    scen = cfg.scenario()
    report = [f"scenario OK: {scen.n_devices} devices"]
    ok = True
    if routing_path is not None:
        adj = _read_json("--routing", routing_path)
        try:
            targets = routing.adjacency_to_targets(adj, scen.n_devices)
        except ValueError as exc:
            raise ScenarioError(f"routing {routing_path}: {exc}") from None
        I = routing.plan_to_indicator(targets, scen.n_nodes)
        checks = {
            "single_link": routing.check_single_link(I),
            "ap_connected": routing.check_ap_connected(I),
            "chains_terminate": routing.check_acyclic_reach(I),
        }
        report += [f"routing {name}: {'ok' if passed else 'VIOLATED'}" for name, passed in checks.items()]
        ok = ok and all(checks.values())
    if profile_path is not None:
        raw = _read_json("--profile", profile_path)
        try:
            profile = _profile_from_json(raw)
        except ValueError as exc:
            raise ScenarioError(f"profile {profile_path}: {exc}") from None
        try:
            profile.check_fits(scen)
            demand = lower_level.best_response_demand(profile.prices, scen)
            rates = radio.transmission_rates(profile.targets, profile.powers, scen)
            stalled = np.flatnonzero((profile.targets == scen.ap) & ~(rates > 0))
            if len(stalled):
                raise ValueError(
                    f"device {stalled[0]} sends to the access point but has no positive transmission rate"
                )
            I = routing.plan_to_indicator(profile.targets, scen.n_nodes)
            feas, violations = routing.feasible(I, demand, rates, scen, PenaltyConfig.eps_feas)
        except (ValueError, ZeroDivisionError) as exc:
            raise ScenarioError(f"profile {profile_path}: {exc}") from None
        report += [f"profile feasible: {feas}"] + [f"  violation: {v}" for v in violations]
        ok = ok and feas
    print("\n".join(report))
    return 0 if ok else 2


def cmd_solve(cfg: RunConfig) -> int:
    scen = cfg.scenario()
    report = cfg.solve(scen)
    write_solve_artifacts(Path(cfg.out_dir), report, scen, cfg)
    if cfg.fmt == "json":
        print(json_text(report.to_dict()), end="")
    elif cfg.fmt == "csv":
        print(_csv_text(EQUILIBRIUM_COLUMNS, equilibrium_rows(report)), end="")
    else:
        _print_table(report)
    return 0 if report.converged else 3


def sweep_rows(scen: Scenario, param: str, value: float, cfg: RunConfig) -> list[tuple]:
    report = cfg.solve(dataclasses.replace(scen, **{param: value}))
    return [
        (param, value, report.converged) + row for row in equilibrium_rows(report)
    ]


def cmd_sweep(cfg: RunConfig, param: str, values: tuple[float, ...]) -> int:
    if param not in SWEEPABLE:
        raise ScenarioError(f"unsupported sweep parameter {param!r}; choose from {SWEEPABLE}")
    scen = cfg.scenario()
    header = ("param", "value", "converged") + EQUILIBRIUM_COLUMNS
    rows: list[tuple] = []
    for value in values:
        rows.extend(sweep_rows(scen, param, value, cfg))
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    _atomic_write(out_dir / "sweep.csv", _csv_text(header, rows))
    return 0 if all(r[2] for r in rows) else 3


def _add_common(parser: argparse.ArgumentParser, solves: bool) -> None:
    """The RunConfig settings a subcommand reads, the solver ones only if it
    solves; each dest is its RunConfig field, and an omitted flag leaves the
    field at its RunConfig default."""
    parser.add_argument(
        "--scenario", dest="scenario_path", metavar="SCENARIO", help="path to a scenario config file"
    )
    parser.add_argument("--preset", choices=PRESETS, help="bundled scenario preset")
    parser.add_argument(
        "--random", dest="random_n", type=int, metavar="N", help="random scenario with N devices"
    )
    parser.add_argument("--seed", type=int, help="seed for preset/random positions")
    if not solves:
        return
    parser.add_argument("--m-schedule", help="comma-separated penalty coefficients")
    parser.add_argument("--max-iter", type=int)
    parser.add_argument(
        "--power-grid", type=int, metavar="N",
        help=f"direct-link transmit power floor is p_max / N (default {RunConfig.power_grid})",
    )
    parser.add_argument("--out", dest="out_dir", metavar="OUT", required=True, help="output directory")


def _floats(text: str, flag: str) -> tuple[float, ...]:
    """Comma-separated numbers; empty items are skipped."""
    try:
        return tuple(float(x) for x in text.split(",") if x.strip())
    except ValueError:
        raise ScenarioError(f"{flag} must be comma-separated numbers, got {text!r}") from None


def _run_config(args: argparse.Namespace) -> RunConfig:
    settings = {f.name: getattr(args, f.name, None) for f in dataclasses.fields(RunConfig)}
    # an empty --m-schedule, like an omitted one, keeps the default
    schedule = settings["m_schedule"]
    settings["m_schedule"] = _floats(schedule, "--m-schedule") if schedule else None
    return RunConfig(**{k: v for k, v in settings.items() if v is not None})


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built at the first `main` call and shared by
    the later ones in the process: building it takes about 0.4 ms, close to
    half a paper9 solve, and `parse_args` does not change it."""
    parser = argparse.ArgumentParser(
        prog="fedrelay",
        description="Equilibrium solver for the joint pricing / cooperative-relay game",
    )
    parser.add_argument("--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)

    p_validate = sub.add_parser("validate", help="check a scenario (and optional routing/profile)")
    _add_common(p_validate, solves=False)
    p_validate.add_argument("--routing", help="JSON next-hop map to check structurally")
    p_validate.add_argument("--profile", help="JSON strategy profile to check fully")

    p_solve = sub.add_parser("solve", help="solve for the equilibrium and write artifacts")
    _add_common(p_solve, solves=True)
    p_solve.add_argument("--format", dest="fmt", choices=("csv", "json", "table"))

    p_sweep = sub.add_parser("sweep", help="solve across a grid of one global parameter")
    _add_common(p_sweep, solves=True)
    p_sweep.add_argument("--param", required=True, help=f"one of {SWEEPABLE}")
    p_sweep.add_argument("--values", required=True, help="comma-separated grid (may be empty)")
    p_sweep.add_argument(
        "--jobs", type=int, metavar="N",
        help="ignored; grid points are solved one after another",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    logging.basicConfig()  # a stderr handler, unless the process already logs somewhere
    # set at every call: basicConfig leaves an existing configuration alone
    logging.getLogger("fedrelay").setLevel(logging.DEBUG if args.verbose else logging.NOTSET)

    try:
        cfg = _run_config(args)
        if args.command == "validate":
            return cmd_validate(cfg, args.routing, args.profile)
        if args.command == "solve":
            return cmd_solve(cfg)
        return cmd_sweep(cfg, args.param, _floats(args.values, "--values"))
    except (ScenarioError, OSError) as exc:
        print(f"invalid config: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
