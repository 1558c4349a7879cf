"""Benchmark of the fedrelay solver through its command line, run in process.

    python3 perfbench/run.py --workload paper9 --seed 0 --seconds 25 --trace 0

Workloads (see workloads.py and README.md):
    paper9  `fedrelay solve --preset paper9` at seed-derived positions, seed 7 first
    scale   `fedrelay solve --random 16` at seed-derived instances
    relay   `fedrelay sweep --param I_d` on seed-derived relay-regime scenario files

A run builds the workload's inputs in one untimed fresh interpreter,
makes one untimed warm-up operation, then runs operations on the seed's
instances until --seconds of operations have passed. Between operations
it times the set-up again in fresh interpreters, spread over the run
(main-thread CPU time, see setup_child.py).
It then checks every output and prints the metrics. Each operation is
timed twice: wall time (`solve_s`) and the process's CPU time over all its
threads (`solve_cpu_s`, the gated one: on a shared VM it leaves out the
time the host gives the vCPU to others). The last line of
stdout is one JSON object with `correct`, `attempted`, `failed` and
`metrics`: the metrics listed under `end_to_end` in BENCHMARK.json with
--trace 0, those under `per_layer` with --trace 1. The line before it is
a JSON report with every end-to-end metric, the machine and the settings.

With --trace 1 each instance runs twice, traced and untraced in
alternating order, so the run also measures the tracing overhead.
--smoke runs tiny sizes and asserts that every metric is emitted.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import logging
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
# Timed set-ups per run (3 in smoke mode), after one untimed priming set-up.
SETUP_SAMPLES = 11
SETUP_TIMEOUT_S = 120

# Units of the end-to-end metrics printed in the report line only; the
# units of every metric on the result line come from BENCHMARK.json.
REPORT_ONLY_UNITS = {"solve_s": "s", "solve_s_max": "s", "sweep_points_per_s": "1/s", "solved_frac": "ratio", "fail_frac": "ratio"}


@dataclass
class Op:
    entry: dict
    out_dir: Path
    traced: bool
    rc: int | None = None
    seconds: float = 0.0
    cpu_seconds: float = 0.0
    error: str | None = None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def setup_once(workload: str, seed: int, smoke: bool, out: Path) -> dict:
    """Import fedrelay and build the workload's inputs into `out` in a fresh
    interpreter; its set-up, import and build times in seconds."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "setup_child.py"), workload, str(seed),
         "1" if smoke else "0", str(out), str(SRC)],
        capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up process failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_op(cli, op: Op, argv: list[str]) -> None:
    """One `fedrelay` invocation through cli.main, timed; stdout is discarded."""
    t0, c0 = time.perf_counter(), time.process_time()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            op.rc = cli.main(argv)
    except SystemExit as exc:  # argparse rejects a command line this way
        op.rc = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # a crash is a failed operation, not a crashed benchmark
        op.error = traceback.format_exc()
    op.seconds = time.perf_counter() - t0
    op.cpu_seconds = time.process_time() - c0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("paper9", "scale", "relay"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes (see smoke.py)")
    args = parser.parse_args(argv)

    if not (SRC / "fedrelay" / "__init__.py").is_file():
        print(f"perfbench: no fedrelay package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    wl = workloads.get(args.workload, args.smoke)
    jobs = len(os.sched_getaffinity(0))
    work = ROOT / ".perfbench_work" / f"{wl.name}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    root_logger = logging.getLogger()
    log_handler = logging.FileHandler(work / "solver.log")
    root_logger.addHandler(log_handler)  # the CLI's basicConfig then leaves logging alone
    try:
        return _run(args, wl, jobs, work)
    finally:
        root_logger.removeHandler(log_handler)
        log_handler.close()
        shutil.rmtree(work, ignore_errors=True)


def _run(args, wl, jobs: int, work: Path) -> int:
    import numpy as np

    import checks
    import tracing
    import workloads
    from fedrelay import cli

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    # The priming set-up builds the inputs the run uses and warms the
    # bytecode and file caches; it is not one of the samples.
    setup_once(wl.name, args.seed, args.smoke, work / "setup")
    pool = json.loads((work / "setup" / "pool.json").read_text())
    setups: list[dict] = []
    setup_target = 3 if args.smoke else SETUP_SAMPLES

    def sample_setups(upto: int) -> float:
        t0 = time.perf_counter()
        while len(setups) < upto:
            setups.append(setup_once(wl.name, args.seed, args.smoke, work / "setup-sample"))
        return time.perf_counter() - t0

    build_s = None
    if args.trace:
        build_tracer = tracing.Tracer()
        build_tracer.install()
        try:
            wl.build(args.seed, work / "traced-build")
        finally:
            build_tracer.uninstall()
        build_s = tracing.build_seconds(build_tracer.spans())

    min_power = checks.MinPowerSuccess() if wl.command == "sweep" else None
    if min_power:
        min_power.install()
    tracer = tracing.Tracer()
    ops: list[Op] = []

    def do(entry: dict, traced: bool) -> Op:
        op = Op(entry, work / "ops" / str(len(ops)), traced)
        ops.append(op)
        if traced:
            tracer.install()
        try:
            run_op(cli, op, wl.argv(entry, op.out_dir, jobs))
        finally:
            tracer.uninstall()
        return op

    warmup = do(pool[0], traced=False)
    timed: list[Op] = []
    # Set-up samples are spread over the run, so that they see the same
    # machine as the operations; the time they take is not counted.
    start = time.perf_counter()
    paused = 0.0
    for k, entry in enumerate(pool):
        elapsed = time.perf_counter() - start - paused
        if timed and elapsed >= args.seconds:
            break
        paused += sample_setups(1 + int((setup_target - 1) * elapsed / args.seconds))
        if args.trace:
            order = (True, False) if k % 2 == 0 else (False, True)
            timed += [do(entry, traced) for traced in order]
        else:
            timed.append(do(entry, traced=False))
    pool_exhausted = time.perf_counter() - start - paused < args.seconds
    sample_setups(setup_target)
    if min_power:
        min_power.uninstall()

    # ---- output checks, outside the timed region ----
    first_by_instance: dict[int, Op] = {}
    point_status: list[tuple[bool, list[str]]] = []
    relayed = 0
    for op in [warmup] + timed:
        if op.error is not None:
            status = [(False, ["raised: " + op.error.strip().splitlines()[-1]])] * wl.points_per_op
        elif wl.command == "sweep":
            status = checks.check_sweep(op.out_dir, op.rc, op.entry["scenario"],
                                        workloads.SWEEP_PARAM, workloads.SWEEP_VALUES)
            relayed += checks.relayed_devices(op.out_dir)
        else:
            problems = checks.check_solve(op.out_dir, op.rc)
            status = [(op.rc == 0 and not problems, problems)]
        inst = op.entry["instance"]
        if op.error is None:
            first = first_by_instance.setdefault(inst, op)
            if first is not op and not checks.same_bytes(first.out_dir, op.out_dir):
                status = [(False, p + ["artifacts differ from an earlier run of the instance"])
                          for _, p in status]
        if op is not warmup:
            point_status += status

    precondition = None
    if wl.command == "sweep":
        precondition = {
            "relayed_devices": relayed,
            "min_power_succeeded": min_power.seen,
            "met": relayed > 0 and min_power.seen,
        }

    attempted = len(point_status)
    solved = sum(ok for ok, _ in point_status)
    failed = sum(bool(p) for _, p in point_status)
    problems = sorted({p for _, ps in point_status for p in ps})
    correct = attempted > 0 and failed == 0 and (precondition is None or precondition["met"])

    untraced = [op for op in timed if not op.traced]
    seconds = [op.seconds for op in untraced]
    e2e = {
        "solve_s": statistics.median(seconds),
        "solve_cpu_s": statistics.median(op.cpu_seconds for op in untraced),
        "solve_s_max": max(seconds),
        "sweep_points_per_s": statistics.median(wl.points_per_op / x for x in seconds),
        "setup_s": statistics.median(x["setup_s"] for x in setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "solved_frac": solved / attempted,
        "fail_frac": failed / attempted,
    }
    units = dict(REPORT_ONLY_UNITS, **{m["name"]: m["unit"] for m in bench["end_to_end"]})
    report = {
        "workload": wl.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "solve_count": len(untraced),
        "operations": len(timed),
        "points_per_operation": wl.points_per_op,
        "devices": wl.n,
        "instances": [op.entry["instance"] for op in timed],
        "pool_exhausted": pool_exhausted,
        "jobs": jobs if wl.command == "sweep" else None,
        "max_iter": wl.max_iter,
        "exit_codes": [op.rc for op in timed],
        "operation_s": [round(op.seconds, 4) for op in timed],
        "operation_cpu_s": [round(op.cpu_seconds, 4) for op in timed],
        "setup_samples_s": [round(x["setup_s"], 4) for x in setups],
        "setup_import_s": statistics.median(x["import_s"] for x in setups),
        "setup_build_s": statistics.median(x["build_s"] for x in setups),
        "setup_wall_s": statistics.median(x["wall_s"] for x in setups),
        "precondition": precondition,
        "problems": problems[:20],
        "end_to_end": {k: {"value": v, "unit": units[k]} for k, v in e2e.items()},
        "machine": {
            "nproc": os.cpu_count(),
            "affinity": sorted(os.sched_getaffinity(0)),
            "cpu_model": _cpu_model(),
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
    }

    if args.trace:
        traced = [op for op in timed if op.traced]
        spans = tracer.spans()
        layers, absent = tracing.layer_metrics(spans, len(traced))
        layers["scenario.build_s"] = build_s
        layers["trace.overhead_frac"] = sum(op.seconds for op in traced) / sum(seconds) - 1.0
        report["absent"] = absent
        report["spans"] = int(len(spans["id"]))
        trace_dir = ROOT / ".perfbench_work" / "traces"
        trace_dir.mkdir(parents=True, exist_ok=True)
        tracer.save(trace_dir / f"{wl.name}.npz")
        metrics = {m["name"]: {"value": layers[m["name"]], "unit": m["unit"]} for m in bench["per_layer"]}
        report["per_layer"] = metrics
    else:
        metrics = {m["name"]: report["end_to_end"][m["name"]] for m in bench["end_to_end"]}

    print(f"perfbench {wl.name} seed={args.seed} trace={args.trace} operations={len(timed)}"
          f" attempted={attempted} failed={failed} correct={correct}")
    for k, v in (report.get("per_layer") or report["end_to_end"]).items():
        print(f"  {k:32s} {v['value']:.6g} {v['unit']}")
    for p in problems[:5]:
        print(f"  problem: {p}")
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
