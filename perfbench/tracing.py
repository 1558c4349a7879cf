"""Thread-aware span tracing of fedrelay's layers, from outside the package.

`Tracer.install()` replaces chosen module-level functions of `scenario`,
`lower_level`, `routing`, `radio`, `upper_level` and `cli` with timing
wrappers. A function is rebound wherever a fedrelay module holds it, so
`cli.solve_stackelberg` (imported by name) is traced as well as
`upper_level.solve_stackelberg`. Each call records one span: id, name,
parent span, thread, start and end, plus up to two numbers of call
detail. Parents are tracked per thread, because `fedrelay sweep` solves
its grid points in a thread pool. Spans stay in per-thread arrays until
`spans()` gathers them; `save()` writes them out with numpy.

`layer_metrics()` turns the spans of a run into the per-layer metrics.
Span ids come from one counter per tracer and every call records its
span, so sorted ids are 0, 1, 2, ... and a span's id is its row.
A span's self time is its duration minus the part its child spans
cover; children run in their parent's thread, one after another, so
that part is the sum of their durations.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from array import array

import numpy as np

from fedrelay import cli, lower_level, radio, routing, scenario, upper_level

MODULES = (scenario, lower_level, routing, radio, upper_level, cli)
NAN = float("nan")


def _arg(args, kwargs, pos, name, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


# Call detail kept per span as (a, b); a dict goes to the rarely hit `extras`.
def _bool_power_detail(args, kwargs, result, exc):
    return _arg(args, kwargs, 1, "k") - 1, np.shape(_arg(args, kwargs, 0, "I"))[0]


def _reach_defect_detail(args, kwargs, result, exc):
    return (NAN if exc else result), NAN


def _min_power_detail(args, kwargs, result, exc):
    if exc is None:
        return 1.0, NAN
    return (0.0 if isinstance(exc, radio.PowerLimitError) else -1.0), NAN


def _value_detail(args, kwargs, result, exc):
    i, targets = _arg(args, kwargs, 0, "i"), _arg(args, kwargs, 2, "targets")
    return float(targets[i] == len(targets)), NAN


def _relay_br_detail(args, kwargs, result, exc):
    i, profile = _arg(args, kwargs, 0, "i"), _arg(args, kwargs, 1, "profile")
    M = _arg(args, kwargs, 4, "M")
    if exc is not None:
        return M, NAN
    j, p = result
    changed = j != profile.targets[i] or abs(p - profile.powers[i]) > 1e-10
    return M, float(changed)


def _dynamics_detail(args, kwargs, result, exc):
    scen = _arg(args, kwargs, 0, "scen")
    return {
        "reverse": _arg(args, kwargs, 5, "order", "forward") == "reverse",
        "max_iter": _arg(args, kwargs, 3, "max_iter", 100),
        "n": scen.n_devices,
        "iterations": None if exc else result.iterations,
    }


# Detail marker: store the thread's CPU seconds in the call as `b`. Wall
# time of a pool thread includes waiting for the interpreter lock; CPU
# time does not, so summed CPU time shows how much really ran at once.
THREAD_CPU = object()


def _solve_detail(args, kwargs, result, exc):
    if exc is not None:
        return None
    n = len(result.targets)
    return {"relay_links": int((result.targets != n).sum()), "converged": bool(result.converged)}


# (module, function, detail). Every other layer boundary inside a solve is
# reached through one of these; wrapping the small helpers each candidate
# evaluation calls would multiply the span count for no metric.
TRACED = (
    (scenario, "paper9_scenario", None),
    (scenario, "random_scenario", None),
    (scenario, "build_channel_matrix", None),
    (scenario, "save_scenario", None),
    (scenario, "load_scenario", None),
    (lower_level, "best_response_demand", None),
    (routing, "reach_defect", _reach_defect_detail),
    (routing, "bool_matrix_power", _bool_power_detail),
    (routing, "feasible", None),
    (radio, "rates_from_matrix", None),
    (radio, "min_power_for_rate", _min_power_detail),
    (upper_level, "_value", _value_detail),
    (upper_level, "relay_power_best_response", _relay_br_detail),
    (upper_level, "best_response_dynamics", _dynamics_detail),
    (upper_level, "unilateral_gains", None),
    (upper_level, "solve_stackelberg", _solve_detail),
    (cli, "main", None),
    (cli, "cmd_solve", None),
    (cli, "cmd_sweep", None),
    (cli, "sweep_rows", THREAD_CPU),
    (cli, "write_solve_artifacts", None),
)
NAMES = tuple(f"{mod.__name__.rsplit('.', 1)[1]}.{fn}" for mod, fn, _ in TRACED)


class _ThreadBuffer:
    def __init__(self):
        self.stack: list[int] = []
        self.cols = {k: array("q") for k in ("id", "name", "parent", "thread")}
        self.cols.update({k: array("d") for k in ("start", "end", "a", "b")})
        self.extras: dict[int, dict] = {}
        self.thread = threading.get_ident()


class Tracer:
    """Records spans of the TRACED functions while installed."""

    def __init__(self):
        self._ids = itertools.count()
        self._local = threading.local()
        self._buffers: list[_ThreadBuffer] = []
        self._lock = threading.Lock()
        self._saved: list[tuple[object, str, object]] = []

    def _buffer(self) -> _ThreadBuffer:
        buf = getattr(self._local, "buf", None)
        if buf is None:
            buf = self._local.buf = _ThreadBuffer()
            with self._lock:
                self._buffers.append(buf)
        return buf

    def _wrap(self, fn, nid: int, detail):
        tracer = self
        cpu = detail is THREAD_CPU
        if cpu:
            detail = None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            buf = tracer._buffer()
            sid = next(tracer._ids)
            parent = buf.stack[-1] if buf.stack else -1
            buf.stack.append(sid)
            result = exc = None
            c0 = time.thread_time() if cpu else 0.0
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                exc = e
                raise
            finally:
                t1 = time.perf_counter()
                buf.stack.pop()
                a = NAN
                b = time.thread_time() - c0 if cpu else NAN
                if detail is not None:
                    d = detail(args, kwargs, result, exc)
                    if isinstance(d, tuple):
                        a, b = d
                    elif d is not None:
                        buf.extras[sid] = d
                c = buf.cols
                c["id"].append(sid)
                c["name"].append(nid)
                c["parent"].append(parent)
                c["thread"].append(buf.thread)
                c["start"].append(t0)
                c["end"].append(t1)
                c["a"].append(a)
                c["b"].append(b)

        return wrapper

    def install(self) -> None:
        if self._saved:
            return
        for nid, (mod, fname, detail) in enumerate(TRACED):
            original = getattr(mod, fname, None)
            if original is None:  # removed by a later change: its metrics read as absent
                continue
            wrapped = self._wrap(original, nid, detail)
            for holder in MODULES:
                for attr, value in list(vars(holder).items()):
                    if value is original:
                        self._saved.append((holder, attr, original))
                        setattr(holder, attr, wrapped)

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._saved):
            setattr(holder, attr, original)
        self._saved.clear()

    def spans(self) -> dict[str, np.ndarray]:
        """All recorded spans as columns sorted by span id, plus `extras`."""
        with self._lock:
            buffers = list(self._buffers)
        template = _ThreadBuffer().cols
        cols = {
            k: np.concatenate([np.frombuffer(col, dtype=col.typecode)]
                              + [np.frombuffer(b.cols[k], dtype=col.typecode) for b in buffers])
            for k, col in template.items()
        }
        order = np.argsort(cols["id"], kind="stable")
        out = {k: v[order] for k, v in cols.items()}
        out["extras"] = {k: v for b in buffers for k, v in b.extras.items()}
        return out

    def save(self, path) -> None:
        spans = self.spans()
        extras = spans.pop("extras")
        np.savez_compressed(path, names=np.array(NAMES), extras=np.array(repr(extras)), **spans)


def _ratio(num: float, den: float) -> float:
    return float(num) / float(den) if den else 0.0


_NID = {n: k for k, n in enumerate(NAMES)}


def build_seconds(spans: dict) -> float:
    """Time in the scenario layer's top-level calls: the set-up build."""
    top = (spans["parent"] < 0) & np.isin(
        spans["name"], [k for n, k in _NID.items() if n.startswith("scenario.")]
    )
    return float((spans["end"] - spans["start"])[top].sum())


def layer_metrics(spans: dict, ops: int) -> tuple[dict[str, float], list[str]]:
    """Per-layer metrics of `ops` traced operations, and the names of the
    metrics whose layer did not run. Per-op figures divide by `ops`.
    `scenario.build_s` and `trace.overhead_frac` come from other runs
    and are added by the caller."""
    name, parent, sid = spans["name"], spans["parent"], spans["id"]
    if not np.array_equal(sid, np.arange(len(sid))):
        raise ValueError("span ids are not contiguous; a span was lost")
    dur = spans["end"] - spans["start"]
    a, b, extras = spans["a"], spans["b"], spans["extras"]
    nid = _NID

    def sel(n):
        return name == nid[n]

    has_parent = parent >= 0
    child_time = np.zeros(len(sid))
    np.add.at(child_time, parent[has_parent], dur[has_parent])
    self_time = dur - child_time
    parent_name = np.where(has_parent, name[np.maximum(parent, 0)], -1)

    value = sel("upper_level._value")
    rates = sel("radio.rates_from_matrix")
    defect = sel("routing.reach_defect")
    power = sel("routing.bool_matrix_power")
    min_power = sel("radio.min_power_for_rate")
    br = sel("upper_level.relay_power_best_response")
    dyn = sel("upper_level.best_response_dynamics")
    candidates = value & (parent_name == nid["upper_level.relay_power_best_response"])
    dyn_br = br & (parent_name == nid["upper_level.best_response_dynamics"])

    dyn_info = [extras.get(int(s), {}) for s in sid[dyn]]
    iterations = sum(d.get("iterations") or 0 for d in dyn_info)
    reverse = np.array([bool(d.get("reverse")) for d in dyn_info], dtype=bool)
    unsettled = 0
    for s, d in zip(sid[dyn], dyn_info):
        ms = a[dyn_br & (parent == s)]
        if not len(ms):
            continue
        cuts = np.flatnonzero(np.diff(ms)) + 1
        for stage in np.split(ms, cuts):
            if len(stage) >= d["max_iter"] * d["n"]:
                unsettled += 1
    solves = [extras[int(s)] for s in sid[sel("upper_level.solve_stackelberg")] if int(s) in extras]
    sweep_rows = sel("cli.sweep_rows")
    sweeps = sel("cli.cmd_sweep")
    per_op = 1.0 / ops if ops else 0.0
    k_minus_1, nodes = a[power], b[power]

    m = {
        "lower_level.demand_calls": sel("lower_level.best_response_demand").sum() * per_op,
        "lower_level.demand_s": dur[sel("lower_level.best_response_demand")].sum() * per_op,
        "routing.reach_defect_calls": defect.sum() * per_op,
        "routing.reach_defect_s": dur[defect].sum() * per_op,
        "routing.reach_defect_us": _ratio(dur[defect].sum() * 1e6, defect.sum()),
        "routing.bool_matmuls": k_minus_1.sum() * per_op,
        # computed, not measured: two (n+1)^2 int64 operands read, one written
        "routing.matmul_bytes": float((k_minus_1 * 3 * nodes**2 * 8).sum()) * per_op,
        "routing.defect_nonzero_frac": _ratio((a[defect] > 0).sum(), defect.sum()),
        "radio.rates_calls": rates.sum() * per_op,
        "radio.rates_s": dur[rates].sum() * per_op,
        "radio.rates_us": _ratio(dur[rates].sum() * 1e6, rates.sum()),
        "radio.min_power_calls": min_power.sum() * per_op,
        "radio.power_limit_frac": _ratio((a[min_power] == 0).sum(), min_power.sum()),
        "upper_level.value_calls": value.sum() * per_op,
        "upper_level.value_self_s": self_time[value].sum() * per_op,
        "upper_level.value_us": _ratio(dur[value].sum() * 1e6, value.sum()),
        "upper_level.direct_grid_frac": _ratio(a[candidates].sum(), candidates.sum()),
        "upper_level.relay_br_calls": br.sum() * per_op,
        "upper_level.relay_br_s": dur[br].sum() * per_op,
        "upper_level.candidates_per_br": _ratio(candidates.sum(), br.sum()),
        "upper_level.rounds": iterations * per_op,
        "upper_level.round_s": _ratio(dur[dyn].sum(), iterations),
        "upper_level.unsettled_stages": unsettled * per_op,
        "upper_level.changed_frac": _ratio(np.nansum(b[dyn_br]), dyn_br.sum()),
        "upper_level.reverse_s": dur[dyn][reverse].sum() * per_op,
        "upper_level.certify_s": dur[sel("upper_level.unilateral_gains")].sum() * per_op,
        "upper_level.relay_links": sum(s["relay_links"] for s in solves) * per_op,
        "upper_level.converged": sum(s["converged"] for s in solves) * per_op,
        "cli.write_s": dur[sel("cli.write_solve_artifacts")].sum() * per_op,
        "cli.sweep_point_s": _ratio(dur[sweep_rows].sum(), sweep_rows.sum()),
        "cli.sweep_overlap": _ratio(b[sweep_rows].sum(), dur[sweeps].sum()),
    }
    absent = []
    if not reverse.any():
        absent.append("upper_level.reverse_s")
    if not sel("cli.write_solve_artifacts").any():
        absent.append("cli.write_s")
    if not sweep_rows.any():
        absent += ["cli.sweep_point_s", "cli.sweep_overlap"]
    if not value.any():
        absent += [k for k in m if k.startswith("upper_level.value") or k == "upper_level.direct_grid_frac"]
    return {k: float(v) for k, v in m.items()}, absent
