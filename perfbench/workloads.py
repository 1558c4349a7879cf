"""Workload definitions: which instances a run solves and how each
operation is invoked through the `fedrelay` command line.

An operation is one `fedrelay solve` (paper9, scale) or one
`fedrelay sweep` over the four-point I_d grid (relay). Every instance is
derived from the benchmark seed; nothing is filtered for convergence.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Called through the module so that a traced build is seen by the tracer.
from fedrelay import scenario as sc

# The README's documented benchmark seed; every paper9 run solves it first.
PAPER9_DOCUMENTED_SEED = 7
SWEEP_PARAM = "I_d"
SWEEP_VALUES = (0.05, 0.1, 0.2, 0.4)
# Heterogeneous processing rates give slow relays an arrival window, so relays form.
RELAY_SPEC = sc.RandomSpec(r_p=(5.0, 4.0))


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    n: devices per instance.
    pool: instances built in set-up; a run stops early if it uses them all.
    max_iter: the --max-iter passed, or None for the CLI default.
    """

    name: str
    command: str
    n: int
    pool: int
    max_iter: int | None = None

    def instances(self, seed: int) -> list[int]:
        """Position seeds of the instances, in the order a run solves them."""
        derived = [int(x) for x in np.random.SeedSequence(seed).generate_state(self.pool)]
        if self.name == "paper9":
            return [PAPER9_DOCUMENTED_SEED] + derived[: self.pool - 1]
        return derived

    def scenario(self, inst: int):
        if self.name == "paper9":
            return sc.paper9_scenario(inst)
        if self.name == "relay":
            return sc.random_scenario(self.n, inst, RELAY_SPEC)
        return sc.random_scenario(self.n, inst)

    def build(self, seed: int, out_dir: Path) -> list[dict]:
        """Build every scenario and channel matrix the run uses, write the
        scenario files a sweep reads, and record the pool in pool.json."""
        out_dir.mkdir(parents=True, exist_ok=True)
        pool = []
        for inst in self.instances(seed):
            scen = self.scenario(inst)
            sc.build_channel_matrix(scen)
            entry = {"instance": inst}
            if self.command == "sweep":
                path = out_dir / f"scenario-{inst}.json"
                sc.save_scenario(scen, path)
                entry["scenario"] = str(path)
            pool.append(entry)
        (out_dir / "pool.json").write_text(json.dumps(pool))
        return pool

    def argv(self, entry: dict, out_dir: Path, jobs: int) -> list[str]:
        """Command-line arguments of one operation on one pool entry."""
        if self.command == "sweep":
            args = [
                "sweep", "--scenario", entry["scenario"], "--out", str(out_dir),
                "--param", SWEEP_PARAM, "--values", ",".join(str(v) for v in SWEEP_VALUES),
                "--jobs", str(jobs),
            ]
        elif self.name == "paper9":
            args = ["solve", "--preset", "paper9", "--seed", str(entry["instance"]), "--out", str(out_dir)]
        else:
            args = ["solve", "--random", str(self.n), "--seed", str(entry["instance"]), "--out", str(out_dir)]
        if self.max_iter is not None:
            args += ["--max-iter", str(self.max_iter)]
        return args

    @property
    def points_per_op(self) -> int:
        return len(SWEEP_VALUES) if self.command == "sweep" else 1


WORKLOADS = {
    "paper9": Workload("paper9", "solve", n=9, pool=64),
    "scale": Workload("scale", "solve", n=16, pool=24, max_iter=8),
    "relay": Workload("relay", "sweep", n=9, pool=32, max_iter=1),
}

# Tiny sizes for the smoke mode: the same code paths in a few seconds.
SMOKE_WORKLOADS = {
    "paper9": Workload("paper9", "solve", n=9, pool=3),
    "scale": Workload("scale", "solve", n=5, pool=3),
    "relay": Workload("relay", "sweep", n=9, pool=3, max_iter=1),
}


def get(name: str, smoke: bool = False) -> Workload:
    return (SMOKE_WORKLOADS if smoke else WORKLOADS)[name]
