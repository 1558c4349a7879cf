"""Digest the artifacts of a fixed set of CLI runs, to compare two checkouts.

Runs 51 `fedrelay` command lines in-process and hashes, per run, the exit
code, stdout, stderr with the log records in the CLI's `basicConfig`
format, and, for a run with `--out`, every file written to the output
directory. It prints one line per run and a total; two checkouts
whose totals match produce byte-identical artifacts. The temporary
directory is masked wherever it appears, so the output depends only on
the code under test:

    PYTHONPATH=<checkout>/src python3 tools/artifact_digest.py

Digests may differ across numpy builds, so compare two checkouts on the
same machine.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import logging
import sys
import tempfile
from pathlib import Path

from fedrelay.cli import main
from fedrelay.scenario import RELAY_SPEC, random_scenario, save_scenario

MASK = "<tmp>"


def command_lines(tmp: Path) -> list[list[str]]:
    """The runs: solves and sweeps, each writing to its own directory under
    `tmp`, then validations, which write nothing, a one-device solve and
    four more validations."""
    runs: list[list[str]] = []
    runs += [["solve", "--preset", "paper9", "--seed", str(s)] for s in range(12)]
    runs += [
        ["solve", "--random", str(n), "--seed", str(s)] for n in (2, 3, 4, 6) for s in range(4)
    ]
    runs += [["solve", "--random", "16", "--max-iter", "8", "--seed", str(s)] for s in range(6)]
    for s in range(4):
        path = tmp / f"relay-{s}.json"
        save_scenario(random_scenario(9, s, RELAY_SPEC), path)
        runs.append([
            "sweep", "--scenario", str(path), "--param", "I_d",
            "--values", "0.05,0.1,0.2,0.4", "--max-iter", "1",
        ])
    runs.append(["sweep", "--preset", "paper9", "--seed", "7", "--param", "alpha", "--values", "2,3"])
    # cycles through 100 rounds, revisiting the same links most often
    runs.append(["solve", "--random", "20", "--seed", "1"])
    # the csv and json printouts; every run above prints the table
    runs += [["solve", "--preset", "paper9", "--seed", "7", "--format", f] for f in ("csv", "json")]
    runs = [argv + ["--out", str(tmp / f"run-{k}")] for k, argv in enumerate(runs)]
    cyclic = tmp / "cyclic-routing.json"
    cyclic.write_text(json.dumps({"1": "2", "2": "3", "3": "1"}))
    direct = tmp / "direct-profile.json"
    direct.write_text(json.dumps({"prices": [10.0] * 9, "targets": [9] * 9, "powers": [1.0] * 9}))
    # device 1 relays to device 2 and misses its arrival deadline
    relay = tmp / "relay-profile.json"
    relay.write_text(json.dumps({"prices": [10.0] * 9, "targets": [1] + [9] * 8, "powers": [1.0] * 9}))
    # device 1 relays to device 2 at a power whose rate rounds to 0: exit 2
    stalled = tmp / "stalled-profile.json"
    stalled.write_text(
        json.dumps({"prices": [10.0] * 9, "targets": [1] + [9] * 8, "powers": [1e-300] + [1.0] * 8})
    )
    not_json = tmp / "not-json.json"
    not_json.write_text("not json")
    runs += [
        ["validate", "--preset", "paper9", "--seed", "7"],
        ["validate", "--random", "3", "--seed", "5", "--routing", str(cyclic)],
        ["validate", "--preset", "paper9", "--seed", "7", "--profile", str(direct)],
        ["validate", "--preset", "paper9", "--seed", "7", "--profile", str(relay)],
        ["solve", "--random", "1", "--seed", "0", "--out", str(tmp / f"run-{len(runs)}")],
        ["validate", "--preset", "paper9", "--seed", "7", "--profile", str(stalled)],
        # a JSON syntax error through each file flag: exit 2
        ["validate", "--scenario", str(not_json)],
        ["validate", "--preset", "paper9", "--seed", "7", "--routing", str(not_json)],
        ["validate", "--preset", "paper9", "--seed", "7", "--profile", str(not_json)],
    ]
    return runs


def run_digest(argv: list[str], tmp: Path) -> tuple[str, int]:
    """sha256 of one run's exit code, stdout, stderr and any artifacts, and
    the exit code."""
    stdout, stderr = io.StringIO(), io.StringIO()
    # a root handler of its own, so the CLI's basicConfig adds none
    handler = logging.StreamHandler(stderr)
    handler.setFormatter(logging.Formatter(logging.BASIC_FORMAT))
    root = logging.getLogger()
    root.addHandler(handler)
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            rc = main(argv)
    finally:
        root.removeHandler(handler)
    h = hashlib.sha256(f"rc={rc}\n".encode())
    h.update(stdout.getvalue().replace(str(tmp), MASK).encode())
    h.update(b"\nstderr\n")
    h.update(stderr.getvalue().replace(str(tmp), MASK).encode())
    if "--out" in argv:
        out_dir = Path(argv[argv.index("--out") + 1])
        for path in sorted(out_dir.iterdir()):
            h.update(f"\n{path.name}\n".encode())
            h.update(path.read_bytes().replace(str(tmp).encode(), MASK.encode()))
    return h.hexdigest(), rc


def main_digest() -> int:
    total = hashlib.sha256()
    with tempfile.TemporaryDirectory() as name:
        tmp = Path(name)
        for argv in command_lines(tmp):
            digest, rc = run_digest(argv, tmp)
            total.update(digest.encode())
            shown = " ".join(argv).replace(str(tmp), MASK)
            print(f"{digest[:16]}  rc={rc}  {shown}")
    print(f"total {total.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main_digest())
