"""Time `solve_stackelberg` end to end on the ROADMAP's solve instances.

Solves paper9 seed 7 and `random_scenario(n, 1)` for n = 20, 40 and 80
with the default settings (order check and certificate included), three
times each, and prints one JSON object: per instance the median CPU time
(`time.process_time`) with the three samples, the rounds (`iterations`)
and `converged`, and the machine it ran on. Run it against a checkout:

    PYTHONPATH=<checkout>/src python3 tools/bench_solve.py

Compare two checkouts on the same machine; `BENCH_solve.json` holds
such a pair.
"""

from __future__ import annotations

import json
import logging
import os
import platform
import statistics
import subprocess
import time
from pathlib import Path

import numpy as np

import fedrelay
from fedrelay.scenario import paper9_scenario, random_scenario
from fedrelay.upper_level import solve_stackelberg

REPEATS = 3


def instances():
    yield "paper9 seed 7", paper9_scenario(7)
    for n in (20, 40, 80):
        yield f"random n={n} seed 1", random_scenario(n, 1)


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


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
    for name, scen in instances():
        samples = []
        for _ in range(REPEATS):
            start = time.process_time()
            report = solve_stackelberg(scen)
            samples.append(time.process_time() - start)
        results.append({
            "instance": name,
            "n": scen.n_devices,
            "cpu_s_median": statistics.median(samples),
            "cpu_s": samples,
            "iterations": report.iterations,
            "converged": report.converged,
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
