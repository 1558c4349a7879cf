"""Time `solve_stackelberg` end to end on the ROADMAP's solve instances.

Solves paper9 seed 7 and `random_scenario(n, 1)` for n = 20, 40, 80 and
320 with the default settings (certificate included), and runs a
4-point sweep: I_d = 0.05, 0.1, 0.2 and 0.4 on the relay-spec
`random_scenario(9, 0, RELAY_SPEC)`, each point solved by
`cli.sweep_rows` as `fedrelay sweep` solves it. It also times
`cli.write_solve_artifacts` alone, writing paper9 seed 7's artifacts
from a solve made before the timer starts. Each instance runs until it
has at least 3 samples and 2 s of CPU time (`time.process_time`) in
total, so a millisecond instance gets hundreds of samples. Prints one JSON object: per instance
the median and the minimum CPU time and the sample count, the rounds
(`iterations`, summed over a sweep's points), `converged` (all of a sweep's points) and the process's peak resident
set size after the instance (`ru_maxrss`, so it never falls from one
instance to the next), and the machine it ran on. Run it against a
checkout:

    PYTHONPATH=<checkout>/src python3 tools/bench_solve.py

Compare two checkouts on the same machine; `BENCH_solve.json` holds
such pairs.
"""

from __future__ import annotations

import json
import logging
import os
import platform
import resource
import statistics
import subprocess
import tempfile
import time
from pathlib import Path

import numpy as np

import fedrelay
from fedrelay.cli import RunConfig, sweep_rows, write_solve_artifacts
from fedrelay.scenario import RandomSpec, paper9_scenario, random_scenario
from fedrelay.upper_level import solve_stackelberg

# `scenario.RELAY_SPEC`, written out: the harness also runs against checkouts
# that predate the constant.
RELAY_SPEC = RandomSpec(r_p=(5.0, 4.0))
MIN_SAMPLES = 3
MIN_CPU_S = 2.0
SWEEP_I_D = (0.05, 0.1, 0.2, 0.4)


def solve(scen):
    """One solve with the default settings: (rounds, converged)."""
    report = solve_stackelberg(scen)
    return report.iterations, report.converged


class SweepSettings(RunConfig):
    """`fedrelay sweep`'s default solver settings, keeping the report of
    every grid point that `sweep_rows` solves with them."""

    reports: list = []

    def solve(self, scen, **kwargs):
        # kwargs: an older `sweep_rows` passes the option that skipped its reverse-order run
        report = super().solve(scen, **kwargs)
        self.reports.append(report)
        return report


def sweep(scen):
    """The I_d sweep over `scen`: (total rounds, all converged)."""
    SweepSettings.reports.clear()
    # the source fields only pass RunConfig's check: sweep_rows takes the scenario itself
    settings = SweepSettings(random_n=scen.n_devices, seed=0)
    for v in SWEEP_I_D:
        sweep_rows(scen, "I_d", v, settings)
    reports = SweepSettings.reports
    return sum(r.iterations for r in reports), all(r.converged for r in reports)


def writer(out_dir: Path):
    """A run that writes `fedrelay solve --preset paper9 --seed 7`'s
    artifacts to `out_dir`, from a solve made when it is created."""
    report = solve_stackelberg(paper9_scenario(7))
    cfg = RunConfig(preset="paper9", seed=7, out_dir=str(out_dir))

    def write(scen):
        write_solve_artifacts(out_dir, report, scen, cfg)
        return report.iterations, report.converged

    return write


def instances(tmp: Path):
    """(name, scenario, run) triples; `run` returns (rounds, converged)."""
    yield "paper9 seed 7", paper9_scenario(7), solve
    yield "paper9 seed 7 write_solve_artifacts", paper9_scenario(7), writer(tmp / "paper9-7")
    for n in (20, 40, 80, 320):
        yield f"random n={n} seed 1", random_scenario(n, 1), solve
    yield "relay n=9 seed 0 I_d sweep", random_scenario(9, 0, RELAY_SPEC), sweep


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def peak_rss_mb() -> float:
    """Peak resident set size of this process so far, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def git_commit(path: Path) -> str:
    """Commit of the checkout that holds `path`, suffixed "-dirty" when
    its tracked files differ from it, or "unknown"."""
    try:
        out = subprocess.run(
            ["git", "-C", str(path), "describe", "--always", "--dirty", "--abbrev=40"],
            capture_output=True, text=True, check=True,
        )
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return out.stdout.strip()


def main() -> None:
    logging.disable(logging.WARNING)  # non-settling stages warn; the report says so
    results = []
    with tempfile.TemporaryDirectory() as tmp:
        for name, scen, run in instances(Path(tmp)):
            samples: list[float] = []
            while len(samples) < MIN_SAMPLES or sum(samples) < MIN_CPU_S:
                start = time.process_time()
                iterations, converged = run(scen)
                samples.append(time.process_time() - start)
            results.append({
                "instance": name,
                "n": scen.n_devices,
                "cpu_s_median": statistics.median(samples),
                "cpu_s_min": min(samples),
                "samples": len(samples),
                "iterations": iterations,
                "converged": converged,
                "peak_rss_mb": peak_rss_mb(),
            })
    package = Path(fedrelay.__file__).resolve().parent
    machine = {
        "cpu_model": cpu_model(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": git_commit(package),
    }
    print(json.dumps({"machine": machine, "instances": results}, indent=2))


if __name__ == "__main__":
    main()
