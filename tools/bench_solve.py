"""Time `fedrelay solve` and its parts on the ROADMAP's solve instances.

The instances:
- one whole `fedrelay solve --preset paper9 --seed 7 --out <fresh dir>`
  operation, `cli.main` in process with its stdout discarded, as
  perfbench's paper9 workload times it. The samples are repeated calls
  in one interpreter, so they leave out what only the first call does,
  such as building the command-line parser;
- the same operation as the first `cli.main` call of a fresh interpreter
  (`fedrelay.cli` imported before the timer starts), as in a one-shot
  shell run: one sample per interpreter, in 30 interpreters;
- `fedrelay solve --random 16 --seed 1 --max-iter 8 --out <fresh dir>`,
  perfbench's scale operation, in process like the paper9 one;
- `solve_stackelberg` with the default settings (certificate included)
  on paper9 seed 7, on `random_scenario(n, 1)` for n = 20, 40, 80 and
  320, and in the relay regime, `random_scenario(n, seed, RELAY_SPEC)`,
  on n = 9 seed 2, n = 20 seeds 0-2, and n = 40 and 80 seed 0;
- `cli.write_solve_artifacts` alone, writing paper9 seed 7's artifacts
  into a fresh directory per sample, from a solve made before the
  timer starts;
- a 4-point sweep, I_d = 0.05, 0.1, 0.2 and 0.4 on the relay-spec
  `random_scenario(9, 0, RELAY_SPEC)`, each point solved by
  `cli.sweep_rows` as `fedrelay sweep` solves it;
- three scenario builds, `paper9_scenario(7)`, `random_scenario(16, 1)`
  and `dataclasses.replace(paper9_scenario(7), I_d=0.2)` (the rebuild a
  sweep point makes), each timed as CPU time per build over batches of
  BUILDS_PER_SAMPLE builds.

Each instance runs in a fresh interpreter, so no instance's heap or
caches shape the timing of the next. It runs until it has at least 3
samples and 2 s of CPU time (`time.process_time`) in total, so a
millisecond instance gets hundreds of samples; the first-call instance
takes its one sample per interpreter. Per instance the output gives the
median and the minimum CPU time, the sample count, the rounds
(`iterations`, summed over a sweep's points; null for the whole
operation and a build), `converged` (all of a sweep's points; exit code
0 for the whole operation; null for a build), the relay links of the
final profile (`relays`, summed over a sweep's points; null for the
whole operation and a build), and the
instance process's peak resident set size
(`ru_maxrss`; the largest of the first-call interpreters). It also
names the machine. Run it against one checkout:

    PYTHONPATH=<checkout>/src python3 tools/bench_solve.py

or compare two on the same machine in N pairs:

    python3 tools/bench_solve.py --pairs N <parent>/src <change>/src

Each pair runs every instance on both checkouts, one right after the
other, the parent first in odd pairs and the change first in even
ones. The output holds the pairs and, per instance, a summary: each
side's median and range of `cpu_s_median`, the median of the per-pair
ratios change / parent, in how many pairs the change read lower, and
each side's distinct outcomes `[iterations, converged, relays]`, so that
a row whose solve ends elsewhere is seen.
`BENCH_solve.json` holds such a comparison.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import importlib.util
import io
import itertools
import json
import logging
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

MIN_SAMPLES = 3
MIN_CPU_S = 2.0
SWEEP_I_D = (0.05, 0.1, 0.2, 0.4)
CLI_SOLVES = {  # name: (n, argv up to its fresh --out directory)
    "paper9 seed 7 cli solve": (9, ["solve", "--preset", "paper9", "--seed", "7", "--out"]),
    "random n=16 seed 1 cli solve": (16, ["solve", "--random", "16", "--seed", "1", "--max-iter", "8", "--out"]),
}
BUILDS = {  # name: n
    "paper9_scenario(7)": 9,
    "random_scenario(16, 1)": 16,
    "dataclasses.replace(paper9_scenario(7), I_d=0.2)": 9,
}
BUILDS_PER_SAMPLE = 100
FIRST_CALL = "paper9 seed 7 cli solve, first call"
FIRST_CALL_INTERPRETERS = 30
INSTANCES = (
    "paper9 seed 7 cli solve",
    FIRST_CALL,
    "random n=16 seed 1 cli solve",
    "paper9 seed 7",
    "paper9 seed 7 write_solve_artifacts",
    "random n=20 seed 1",
    "random n=40 seed 1",
    "random n=80 seed 1",
    "random n=320 seed 1",
    "relay n=9 seed 0 I_d sweep",
    "relay n=9 seed 2",
    "relay n=20 seed 0",
    "relay n=20 seed 1",
    "relay n=20 seed 2",
    "relay n=40 seed 0",
    "relay n=80 seed 0",
    *BUILDS,
)


def relays(report) -> int:
    """Relay links of a report's final profile: targets other than the
    access point, whose index is the device count."""
    return int(np.count_nonzero(np.asarray(report.targets) != len(report.targets)))


def build(name: str, tmp: Path):
    """(n, run) of the instance `name`, from the fedrelay on this process's
    path; `run()` makes one sample and returns (rounds, converged, relays)."""
    from fedrelay import cli
    from fedrelay.scenario import RELAY_SPEC, RandomSpec, paper9_scenario, random_scenario
    from fedrelay.upper_level import solve_stackelberg

    fresh_dirs = (tmp / f"out{k}" for k in itertools.count())
    if name in CLI_SOLVES or name == FIRST_CALL:
        n, argv = CLI_SOLVES["paper9 seed 7 cli solve" if name == FIRST_CALL else name]

        def run():
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(argv + [str(next(fresh_dirs))])
            return None, code == 0, None

        return n, run
    if name in BUILDS:
        paper9 = paper9_scenario(7)
        make = {
            "paper9_scenario(7)": lambda: paper9_scenario(7),
            "random_scenario(16, 1)": lambda: random_scenario(16, 1),
            "dataclasses.replace(paper9_scenario(7), I_d=0.2)": lambda: dataclasses.replace(paper9, I_d=0.2),
        }[name]

        def run():
            for _ in range(BUILDS_PER_SAMPLE):
                make()
            return None, None, None

        return BUILDS[name], run
    if name == "paper9 seed 7 write_solve_artifacts":
        scen = paper9_scenario(7)
        report = solve_stackelberg(scen)
        cfg = cli.RunConfig(preset="paper9", seed=7)

        def run():
            cli.write_solve_artifacts(next(fresh_dirs), report, scen, cfg)
            return report.iterations, report.converged, relays(report)

        return 9, run
    if name == "relay n=9 seed 0 I_d sweep":
        scen = random_scenario(9, 0, RELAY_SPEC)
        reports = []

        class SweepSettings(cli.RunConfig):
            """`fedrelay sweep`'s default settings, keeping every report."""

            def solve(self, scen):
                report = super().solve(scen)
                reports.append(report)
                return report

        # the source fields only pass RunConfig's check: sweep_rows takes the scenario itself
        settings = SweepSettings(random_n=scen.n_devices, seed=0)

        def run():
            reports.clear()
            for v in SWEEP_I_D:
                cli.sweep_rows(scen, "I_d", v, settings)
            return (
                sum(r.iterations for r in reports), all(r.converged for r in reports), sum(map(relays, reports))
            )

        return 9, run
    if name == "paper9 seed 7":
        scen = paper9_scenario(7)
    else:
        kind, n, _, seed = name.split()
        spec = RELAY_SPEC if kind == "relay" else RandomSpec()
        scen = random_scenario(int(n.removeprefix("n=")), int(seed), spec)

    def run():
        report = solve_stackelberg(scen)
        return report.iterations, report.converged, relays(report)

    return scen.n_devices, run


def measure(name: str) -> dict:
    """Sample the instance `name` in this process; the first-call instance
    takes one sample, and a build's CPU time is per build."""
    logging.disable(logging.WARNING)  # non-settling stages warn; the report says so
    with tempfile.TemporaryDirectory() as tmp:
        n, run = build(name, Path(tmp))
        samples: list[float] = []
        while not samples or name != FIRST_CALL and (len(samples) < MIN_SAMPLES or sum(samples) < MIN_CPU_S):
            start = time.process_time()
            iterations, converged, relay_links = run()
            samples.append(time.process_time() - start)
    per = BUILDS_PER_SAMPLE if name in BUILDS else 1
    return {
        "instance": name,
        "n": n,
        "cpu_s_median": statistics.median(samples) / per,
        "cpu_s_min": min(samples) / per,
        "samples": len(samples),
        "iterations": iterations,
        "converged": converged,
        "relays": relay_links,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def measure_in_child(name: str, src: str | None) -> dict:
    """`measure(name)` in a fresh interpreter, with `src` as its
    PYTHONPATH, or this process's PYTHONPATH when `src` is None; the
    first-call instance in FIRST_CALL_INTERPRETERS of them, merged."""
    env = os.environ if src is None else {**os.environ, "PYTHONPATH": src}

    def child() -> dict:
        out = subprocess.run(
            [sys.executable, __file__, "--instance", name], env=env, stdout=subprocess.PIPE, text=True, check=True
        )
        return json.loads(out.stdout)

    if name != FIRST_CALL:
        return child()
    runs = [child() for _ in range(FIRST_CALL_INTERPRETERS)]
    samples = [r["cpu_s_median"] for r in runs]
    return runs[0] | {
        "cpu_s_median": statistics.median(samples),
        "cpu_s_min": min(samples),
        "samples": len(samples),
        "converged": all(r["converged"] for r in runs),
        "peak_rss_mb": max(r["peak_rss_mb"] for r in runs),
    }


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


def machine(package: Path) -> dict:
    return {
        "cpu_model": cpu_model(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": git_commit(package),
    }


def summary(pairs: list[dict]) -> dict:
    """Per instance: each side's median and range of cpu_s_median over the
    pairs, the median change / parent ratio, and the pairs the change won."""
    out = {}
    for k, name in enumerate(INSTANCES):
        runs = {side: [p[side]["instances"][k] for p in pairs] for side in ("parent", "change")}
        cpu = {side: [r["cpu_s_median"] for r in rs] for side, rs in runs.items()}
        rss = {side: [r["peak_rss_mb"] for r in rs] for side, rs in runs.items()}
        out[name] = {
            **{f"{side}_cpu_s_median_of_{len(pairs)}": statistics.median(v) for side, v in cpu.items()},
            **{f"{side}_range": [min(v), max(v)] for side, v in cpu.items()},
            "median_pair_ratio": statistics.median(c / p for p, c in zip(cpu["parent"], cpu["change"])),
            "change_lower_in_pairs": sum(c < p for p, c in zip(cpu["parent"], cpu["change"])),
            **{f"{side}_peak_rss_mb_range": [min(v), max(v)] for side, v in rss.items()},
            **{
                f"{side}_outcomes": sorted({(r["iterations"], r["converged"], r["relays"]) for r in rs}, key=str)
                for side, rs in runs.items()
            },
        }
    return out


def compare(n_pairs: int, parent: str, change: str) -> dict:
    srcs = {"parent": parent, "change": change}
    pairs = []
    for k in range(n_pairs):
        order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
        results = {side: [] for side in order}
        for name in INSTANCES:
            for side in order:
                results[side].append(measure_in_child(name, srcs[side]))
        pairs.append({
            "first": order[0],
            **{side: {"machine": machine(Path(srcs[side])), "instances": results[side]} for side in srcs},
        })
    return {"pairs": pairs, "summary": summary(pairs)}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--instance", choices=INSTANCES, help="sample one instance in this process")
    parser.add_argument("--pairs", type=int, metavar="N", help="compare PARENT and CHANGE in N pairs")
    parser.add_argument("srcs", nargs="*", metavar="SRC", help="PARENT and CHANGE src directories, with --pairs")
    args = parser.parse_args()
    if args.instance is not None:
        result = measure(args.instance)
    elif args.pairs is not None:
        if len(args.srcs) != 2 or args.pairs < 1:
            parser.error("--pairs takes N >= 1 and two src directories")
        result = compare(args.pairs, *(str(Path(s).resolve()) for s in args.srcs))
    else:
        spec = importlib.util.find_spec("fedrelay")
        if spec is None or spec.origin is None:
            parser.error("fedrelay is not importable; set PYTHONPATH to a checkout's src")
        instances = [measure_in_child(name, None) for name in INSTANCES]
        result = {"machine": machine(Path(spec.origin).parent), "instances": instances}
    print(json.dumps(result, indent=2))


if __name__ == "__main__":
    main()
