"""The artifacts do not depend on which SIMD kernels numpy dispatches to.

numpy picks a kernel per CPU for its vector `log`, `log2` and `exp`, and
the kernels differ in the last bit. A solve and a sweep run once here and
once in a child process whose numpy is held to its baseline by
`NPY_DISABLE_CPU_FEATURES`; every artifact must have the same bytes.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fedrelay
from fedrelay.cli import main
from fedrelay.scenario import RELAY_SPEC, random_scenario, save_scenario

try:
    from numpy._core import _multiarray_umath
except ImportError:  # numpy 1.x
    from numpy.core import _multiarray_umath

# the dispatch targets above numpy's baseline that this CPU runs; the
# baseline itself cannot be disabled
DISPATCHED = [t for t in _multiarray_umath.__cpu_dispatch__ if _multiarray_umath.__cpu_features__.get(t)]

CHILD = """
import json, sys
try:
    from numpy._core import _multiarray_umath
except ImportError:
    from numpy.core import _multiarray_umath
from fedrelay.cli import main
disabled, runs = json.loads(sys.argv[1])
on = [t for t in disabled if _multiarray_umath.__cpu_features__[t]]
assert not on, f"numpy still dispatches to {on}"
for argv in runs:
    main(argv)
"""


def _files(out: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


@pytest.mark.skipif(not DISPATCHED, reason="numpy dispatches to no target above its baseline on this CPU")
def test_artifacts_equal_under_baseline_dispatch(tmp_path, capsys):
    relay = tmp_path / "relay-1.json"
    save_scenario(random_scenario(9, 1, RELAY_SPEC), relay)
    # the two digest runs whose rates once moved with the CPU
    runs = [
        ["solve", "--random", "16", "--max-iter", "8", "--seed", "2"],
        ["sweep", "--scenario", str(relay), "--param", "I_d", "--values", "0.05,0.1,0.2,0.4", "--max-iter", "1"],
    ]
    here = [argv + ["--out", str(tmp_path / f"here-{k}")] for k, argv in enumerate(runs)]
    child = [argv + ["--out", str(tmp_path / f"child-{k}")] for k, argv in enumerate(runs)]
    for argv in here:
        main(argv)
    capsys.readouterr()
    src = str(Path(fedrelay.__file__).resolve().parents[1])
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=" ".join(DISPATCHED))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", CHILD, json.dumps([DISPATCHED, child])],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    for k in range(len(runs)):
        want = _files(tmp_path / f"here-{k}")
        assert "report.json" in want or "sweep.csv" in want
        assert _files(tmp_path / f"child-{k}") == want, runs[k]
