"""Smoke check of the benchmark harness at tiny sizes.

    python3 perfbench/smoke.py

Runs every workload with --smoke for one second, untraced and traced,
each in its own process, and asserts that the result line has the
four keys correct, attempted, failed and metrics, that it carries every
metric BENCHMARK.json lists with that file's unit, that the report line
carries all eight end-to-end metrics with a unit, and that the outputs
passed their checks. It also runs the harness from a directory holding
only BENCHMARK.json and perfbench/, where it must fail without printing
a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
END_TO_END = ("solve_s", "solve_cpu_s", "solve_s_max", "sweep_points_per_s", "setup_s", "peak_rss_mb", "solved_frac", "fail_frac")


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=300, check=False,
    )


def check_workload(workload: str, bench: dict) -> None:
    for trace in (0, 1):
        proc = _run(ROOT, workload, trace)
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.strip().splitlines()
        result, report = json.loads(lines[-1]), json.loads(lines[-2])["report"]
        assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
        assert result["correct"] is True and result["failed"] == 0, report["problems"]
        assert isinstance(result["attempted"], int) and result["attempted"] >= 1
        assert set(report["end_to_end"]) == set(END_TO_END), list(report["end_to_end"])
        for name in END_TO_END:
            assert report["end_to_end"][name]["unit"], name
        for key in ("nproc", "affinity", "cpu_model", "python", "numpy"):
            assert report["machine"][key] not in (None, ""), key
        for key in ("seed", "solve_count", "jobs", "max_iter"):
            assert key in report, key
        listed = bench["per_layer" if trace else "end_to_end"]
        assert list(result["metrics"]) == [m["name"] for m in listed], list(result["metrics"])
        for m in listed:
            got = result["metrics"][m["name"]]
            assert got["unit"] == m["unit"] and isinstance(got["value"], (int, float)), m["name"]
        print(f"smoke {workload} trace={trace}: ok ({result['attempted']} attempted)")


def check_bare_directory() -> None:
    bare = ROOT / ".perfbench_work" / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        proc = _run(bare, "paper9", 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0 and not proc.stdout.strip(), (proc.returncode, proc.stdout)
    print("smoke bare directory: fails without a result, as required")


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    for w in bench["workloads"]:
        check_workload(w["name"], bench)
    check_bare_directory()
    return 0


if __name__ == "__main__":
    sys.exit(main())
