"""Benchmark of the ridecast radius loop: explore, decide and train.

Run from the repository root:

    python3 perfbench/run.py --workload decide --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --trace 1
    python3 perfbench/run.py --self-check

An untraced run (``--trace 0``) gives the end-to-end metrics.  A traced run
(``--trace 1``) first repeats the untraced run, then runs the same number of
operations again with timing wrappers around the program's collaborators and
gives the per-layer metrics and the tracing overhead.  Every metric is
printed by name with its unit, followed by one JSON record per workload.  The
last line is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics`` (the names listed in ``BENCHMARK.json``).  The exit code is 1 when
an output check fails, and 2 when the ridecast sources are missing.
"""
from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
ALL = ("explore", "decide", "train")
SETUP_REPEATS = 11

# Metrics named per workload: unit and the workloads each applies to.
END_TO_END = {
    "setup_s": ("s", ALL),
    "items_per_s": ("1/s", ALL),
    "orders_per_s": ("1/s", ("explore",)),
    "decide_ms_p50": ("ms", ("decide",)),
    "decide_ms_p90": ("ms", ("decide",)),
    "train_examples_per_s": ("1/s", ("train",)),
    "peak_rss_mb": ("MiB", ALL),
    "failed_frac": ("frac", ALL),
}
LAYERS = {
    "demand.synth_s": ("s", ("explore",)),
    "sim.init_s": ("s", ("explore",)),
    "sim.tick_ms_p50": ("ms", ("explore",)),
    "sim.tick_ms_p90": ("ms", ("explore",)),
    "sim.window_tick_ms_p50": ("ms", ("explore",)),
    "sim.radius_source_ms": ("ms", ("explore",)),
    "sim.broadcasts": ("count", ("explore",)),
    "sim.match_per_broadcast": ("frac", ("explore",)),
    "sim.open_mean": ("count", ("explore",)),
    "sim.idle_mean": ("count", ("explore",)),
    "sim.created": ("count", ("explore",)),
    "sim.matched": ("count", ("explore",)),
    "sim.expired": ("count", ("explore",)),
    "optimizer.features_score_ms_p50": ("ms", ("decide",)),
    "optimizer.features_score_ms_p90": ("ms", ("decide",)),
    "optimizer.predict_calls": ("count", ("decide",)),
    "optimizer.sequences": ("count", ("decide",)),
    "optimizer.history_rows": ("count", ("decide",)),
    "optimizer.dataset_s": ("s", ("decide", "train")),
    "nn.predict_ms_p50": ("ms", ("decide", "train")),
    "nn.predict_calls": ("count", ("decide", "train")),
    "nn.predict_rows": ("count", ("decide", "train")),
    "nn.forward_ms_p50": ("ms", ("train",)),
    "nn.backward_ms_p50": ("ms", ("train",)),
    "training.step_ms_p50": ("ms", ("train",)),
    "training.step_ms_p90": ("ms", ("train",)),
    "training.eval_ms_p50": ("ms", ("train",)),
    "training.eval_calls": ("count", ("train",)),
    "training.rest_ms_p50": ("ms", ("train",)),
    "training.steps": ("count", ("train",)),
    "trace_overhead_frac": ("frac", ALL),
}
# The metrics of the last line, as listed in BENCHMARK.json: each is defined
# on every workload BENCHMARK.json lists.
UNITS = {k: unit for k, (unit, _) in {**END_TO_END, **LAYERS}.items()}
CONTRACT_END_TO_END = ("setup_s", "items_per_s", "peak_rss_mb")
CONTRACT_LAYERS = ("optimizer.dataset_s", "nn.predict_ms_p50", "nn.predict_calls", "nn.predict_rows",
                   "trace_overhead_frac")


@dataclass
class Pass:
    """One measured pass over a workload: its set-ups and operations."""

    setup_s: list
    outcomes: list
    peak_rss_mb: float
    tracer: object = None

    @property
    def ok(self) -> list:
        return [o for o in self.outcomes if o.error is None and not o.problems]


@dataclass
class Report:
    workload: str
    seed: int
    trace: int
    passes: list
    metrics: dict = field(default_factory=dict)   # name -> (value, unit, samples)
    problems: list = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return sum(len(p.outcomes) for p in self.passes)

    @property
    def failed(self) -> int:
        return sum(len(p.outcomes) - len(p.ok) for p in self.passes)

    @property
    def correct(self) -> bool:
        return not self.problems


def _describe(e: BaseException) -> str:
    frame = traceback.extract_tb(e.__traceback__)[-1]
    path = Path(frame.filename).resolve()
    where = path.relative_to(ROOT) if path.is_relative_to(ROOT) else path.name
    return f"{type(e).__name__}: {e} (at {where}:{frame.lineno})"


def measure(wl, seed: int, seconds: float, tracer=None, n_ops: Optional[int] = None) -> Pass:
    """Run operations until ``seconds`` have passed (at least one), or exactly
    ``n_ops`` of them.  Half of the ``SETUP_REPEATS`` set-ups run before the
    operations (one more when the count is odd) and the rest after."""
    from workloads import Outcome

    setups = []

    def timed_setup(index: int):
        t0 = time.perf_counter()
        state = wl.setup(seed, index, tracer)
        t1 = time.perf_counter()
        setups.append(t1 - t0)
        if tracer is not None:
            tracer.add("setup", t0, t1)
        return state

    start = time.perf_counter()
    before = (SETUP_REPEATS + 1) // 2
    for _ in range(before - 1):
        timed_setup(0)
    state = timed_setup(0)
    outcomes = []
    while True:
        try:
            outcomes.append(wl.op(state, seed, tracer))
        except Exception as e:  # the program failed this operation: count it and go on
            outcomes.append(Outcome(error=_describe(e)))
        if (len(outcomes) >= n_ops) if n_ops else (time.perf_counter() - start >= seconds):
            break
        if not wl.reusable:
            state = timed_setup(len(outcomes))
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    # The machine's speed drifts over seconds, so the remaining set-ups run
    # after the operations: setup_s then samples both ends of the run.
    state = None
    for _ in range(SETUP_REPEATS - before):
        timed_setup(0)
    return Pass(setup_s=setups, outcomes=outcomes, peak_rss_mb=peak, tracer=tracer)


def _p(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q))


def end_to_end(name: str, p: Pass) -> dict:
    """Metrics from completed operations only; all null when none completed."""
    m = {k: (None, unit, None) for k, (unit, where) in END_TO_END.items() if name in where}
    m["failed_frac"] = ((len(p.outcomes) - len(p.ok)) / len(p.outcomes), "frac", len(p.outcomes))
    ok = p.ok
    if not ok:
        return m
    rate = sum(o.items for o in ok) / sum(o.measured_s for o in ok)
    m["setup_s"] = (statistics.median(p.setup_s), "s", len(p.setup_s))
    m["items_per_s"] = (rate, "1/s", len(ok))
    m["peak_rss_mb"] = (p.peak_rss_mb, "MiB", None)
    if name == "explore":
        m["orders_per_s"] = (rate, "1/s", len(ok))
    elif name == "decide":
        ms = [v for o in ok for v in o.call_ms]
        m["decide_ms_p50"] = (_p(ms, 50), "ms", len(ms))
        m["decide_ms_p90"] = (_p(ms, 90), "ms", len(ms))
    elif name == "train":
        m["train_examples_per_s"] = (rate, "1/s", len(ok))
    return m


def layer_metrics(name: str, traced: Pass, untraced: Pass) -> tuple[dict, list]:
    """Per-layer metrics from the traced pass's spans, plus decomposition checks."""
    m = {k: (None, unit, None) for k, (unit, where) in LAYERS.items() if name in where}
    if not traced.ok or len(traced.ok) != len(traced.outcomes) or not untraced.ok:
        return m, []
    t = traced.tracer
    n_ops = len(traced.ok)
    m["trace_overhead_frac"] = (sum(o.measured_s for o in traced.ok) / sum(o.measured_s for o in untraced.ok) - 1.0,
                                "frac", n_ops)
    setups = [(s, e) for s, e, _ in t.spans["setup"]]
    problems = []
    if name == "explore":
        steps = [(s, e) for s, e, _ in t.spans["sim.step"]]
        in_source, _, _ = t.within("sim.radius_source", steps)
        tick_ms = (t.durations("sim.step") - in_source) * 1e3
        closing = t.sizes("sim.step") == 1
        opens, matches = t.sizes("sim.open"), t.sizes("sim.matches")
        broadcasts = opens + matches
        counts = {k: float(np.mean([o.counts[k] for o in traced.ok])) for k in ("created", "matched", "expired")}
        m.update({
            "demand.synth_s": (statistics.median(t.durations("demand.synth")), "s", len(t.spans["demand.synth"])),
            "sim.init_s": (statistics.median(t.durations("sim.init")), "s", len(t.spans["sim.init"])),
            "sim.tick_ms_p50": (_p(tick_ms, 50), "ms", len(tick_ms)),
            "sim.tick_ms_p90": (_p(tick_ms, 90), "ms", len(tick_ms)),
            "sim.window_tick_ms_p50": (_p(tick_ms[closing], 50), "ms", int(closing.sum())),
            "sim.radius_source_ms": (_p(t.durations("sim.radius_source") * 1e3, 50), "ms",
                                     len(t.spans["sim.radius_source"])),
            "sim.broadcasts": (float(broadcasts.sum()) / n_ops, "count", n_ops),
            "sim.match_per_broadcast": (float(matches.sum() / max(broadcasts.sum(), 1.0)), "frac", n_ops),
            "sim.open_mean": (float(opens.mean()), "count", len(opens)),
            "sim.idle_mean": (float(t.sizes("sim.idle").mean()), "count", len(opens)),
            "sim.created": (counts["created"], "count", n_ops),
            "sim.matched": (counts["matched"], "count", n_ops),
            "sim.expired": (counts["expired"], "count", n_ops),
        })
        if np.any(tick_ms < 0):
            problems.append("trace: radius-source time exceeds its step")
        return m, problems

    dataset_s = t.within("optimizer.dataset", setups)[0]
    m["optimizer.dataset_s"] = (float(np.median(dataset_s)), "s", len(setups))
    if name == "decide":
        roots = [(s, e) for s, e, _ in t.spans["optimizer.radii"]]
        predict_s, predict_calls, predict_rows = t.within("nn.predict", roots)
        _, predictor_calls, sequences = t.within("optimizer.predictor", roots)
        features_ms = (t.durations("optimizer.radii") - predict_s) * 1e3
        n = len(roots)
        m.update({
            "optimizer.features_score_ms_p50": (_p(features_ms, 50), "ms", n),
            "optimizer.features_score_ms_p90": (_p(features_ms, 90), "ms", n),
            "optimizer.predict_calls": (float(predictor_calls.mean()), "count", n),
            "optimizer.sequences": (float(sequences.mean()), "count", n),
            "optimizer.history_rows": (float(t.sizes("optimizer.radii").mean()), "count", n),
            "nn.predict_ms_p50": (_p(predict_s * 1e3, 50), "ms", n),
            "nn.predict_calls": (float(predict_calls.mean()), "count", n),
            "nn.predict_rows": (float(predict_rows.mean()), "count", n),
        })
        if np.any(features_ms < 0):
            problems.append("trace: predict time exceeds its radii call")
        return m, problems

    # train: a step runs from one zero_grad to the next, the last one to the end of train()
    steps = []
    for start, end, _ in t.spans["training.train"]:
        marks = [s for s, _, _ in t.spans["nn.zero_grad"] if start <= s < end]
        steps += list(zip(marks, marks[1:] + [end]))
    forward_s = t.within("nn.task_losses", steps)[0]
    backward_s = t.within("nn.backward_weighted", steps)[0]
    eval_s, eval_calls, eval_rows = t.within("nn.predict", steps)
    step_s = np.array([e - s for s, e in steps])
    rest_s = step_s - forward_s - backward_s - eval_s
    runs = [(s, e) for s, e, _ in t.spans["training.train"]]
    n = len(steps)
    m.update({
        "training.step_ms_p50": (_p(step_s * 1e3, 50), "ms", n),
        "training.step_ms_p90": (_p(step_s * 1e3, 90), "ms", n),
        "nn.forward_ms_p50": (_p(forward_s * 1e3, 50), "ms", n),
        "nn.backward_ms_p50": (_p(backward_s * 1e3, 50), "ms", n),
        "training.eval_ms_p50": (_p(eval_s * 1e3, 50), "ms", n),
        "training.eval_calls": (float(t.within("nn.predict", runs)[1].mean()), "count", len(runs)),
        "training.rest_ms_p50": (_p(rest_s * 1e3, 50), "ms", n),
        "training.steps": (n / len(runs), "count", len(runs)),
        "nn.predict_ms_p50": (_p(eval_s * 1e3, 50), "ms", n),
        "nn.predict_calls": (float(eval_calls.mean()), "count", n),
        "nn.predict_rows": (float(eval_rows.mean()), "count", n),
    })
    if np.any(rest_s < 0):
        problems.append("trace: forward, backward and eval exceed their step")
    return m, problems


def run_workload(name: str, seed: int, seconds: float, trace: int, size) -> Report:
    import workloads
    from tracing import Tracer

    wl = workloads.WORKLOADS[name](size)
    untraced = measure(wl, seed, seconds)
    report = Report(workload=name, seed=seed, trace=trace, passes=[untraced])
    report.metrics.update(end_to_end(name, untraced))
    if trace:
        traced = measure(wl, seed, seconds, tracer=Tracer(), n_ops=len(untraced.outcomes))
        report.passes.append(traced)
        layers, problems = layer_metrics(name, traced, untraced)
        report.metrics.update(layers)
        report.problems += problems
    for i, p in enumerate(report.passes):
        for j, o in enumerate(p.outcomes):
            report.problems += [f"pass {i} op {j}: {msg}" for msg in o.problems]
    return report


def _digests(report: Report) -> dict:
    ops = [[o.digest for o in p.outcomes if o.error is None] for p in report.passes]
    # Repeated operations of decide and train see identical inputs; explore's
    # episodes differ, so it is compared only between passes.
    same = [len(set(d)) <= 1 for d in ops] if report.workload != "explore" else []
    if len(ops) == 2:
        same.append(ops[0] == ops[1])
    return {"ops": ops, "deterministic": all(same) if ops[0] else None}


def machine() -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "blas_threads": _blas_threads(),
        "commit": _commit(),
    }


def _cpu_model() -> Optional[str]:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _blas() -> Optional[str]:
    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    except (AttributeError, KeyError):
        return None
    return f"{blas.get('name')} {blas.get('version')}"


def _blas_threads() -> Optional[int]:
    """Thread count of the OpenBLAS that numpy wheels bundle, if there is one."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def _commit() -> Optional[str]:
    """The checked-out commit, read from .git without running git; None outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def record(report: Report, seconds: float, mach: dict) -> dict:
    errors: dict = {}
    for p in report.passes:
        for o in p.outcomes:
            if o.error:
                errors[o.error] = errors.get(o.error, 0) + 1
    return {
        "workload": report.workload,
        "seed": report.seed,
        "seconds": seconds,
        "trace": report.trace,
        "machine": mach,
        "correct": report.correct,
        "attempted": report.attempted,
        "failed": report.failed,
        "errors": errors,
        "problems": report.problems,
        "metrics": {k: {"value": v, "unit": u, "samples": n} for k, (v, u, n) in report.metrics.items()},
        "digests": _digests(report),
    }


def contract_line(report: Report) -> dict:
    names = CONTRACT_LAYERS if report.trace else CONTRACT_END_TO_END
    metrics = {k: {"value": report.metrics.get(k, (None,))[0], "unit": UNITS[k]} for k in names}
    return {"correct": report.correct, "attempted": report.attempted, "failed": report.failed, "metrics": metrics}


def print_report(report: Report, rec: dict) -> None:
    print(f"== {report.workload}  seed {report.seed}  trace {report.trace}  "
          f"attempted {report.attempted}  failed {report.failed}")
    for err, count in rec["errors"].items():
        print(f"  error x{count}: {err}")
    for msg in report.problems:
        print(f"  CHECK FAILED: {msg}")
    for k, (v, unit, n) in report.metrics.items():
        shown = "null" if v is None else f"{v:.6g}"
        print(f"  {k:34s} {shown:>14s} {unit:6s}" + (f" (n={n})" if n else ""))
    print(json.dumps(rec, sort_keys=True))


def self_check() -> int:
    """Tiny run of every workload in both modes; checks every metric and its unit."""
    import workloads

    missing = []
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    if [m["name"] for m in bench["end_to_end"]] != list(CONTRACT_END_TO_END):
        missing.append("BENCHMARK.json end_to_end differs from CONTRACT_END_TO_END")
    if [m["name"] for m in bench["per_layer"]] != list(CONTRACT_LAYERS):
        missing.append("BENCHMARK.json per_layer differs from CONTRACT_LAYERS")
    for m in bench["end_to_end"] + bench["per_layer"]:
        if m["unit"] != UNITS[m["name"]]:
            missing.append(f"BENCHMARK.json unit of {m['name']} differs")
    correct = True
    mach = machine()
    for name in ALL:
        for trace in (0, 1):
            report = run_workload(name, seed=0, seconds=0.0, trace=trace, size=workloads.TINY)
            print_report(report, record(report, 0.0, mach))
            correct &= report.correct
            want = {k: u for k, (u, where) in END_TO_END.items() if name in where}
            if trace:
                want.update({k: u for k, (u, where) in LAYERS.items() if name in where})
            for k, unit in want.items():
                if report.metrics.get(k, (None, None))[1] != unit:
                    missing.append(f"{name} trace {trace}: {k} [{unit}] missing")
            line = contract_line(report)
            if set(line["metrics"]) != set(CONTRACT_LAYERS if trace else CONTRACT_END_TO_END):
                missing.append(f"{name} trace {trace}: last line lacks a BENCHMARK.json metric")
    for msg in missing:
        print(f"SELF-CHECK: {msg}")
    ok = correct and not missing
    print("self-check " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=ALL + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true", help="tiny run that checks every metric is reported")
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "ridecast" / "__init__.py").is_file():
        print(f"cannot benchmark: no ridecast sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    if args.self_check:
        return self_check()

    import workloads

    mach = machine()
    names = ALL if args.workload == "all" else (args.workload,)
    reports = []
    for name in names:
        report = run_workload(name, args.seed, args.seconds, args.trace, workloads.FULL)
        print_report(report, record(report, args.seconds, mach))
        reports.append(report)
    if len(reports) == 1:
        final = contract_line(reports[0])
    else:
        final = {
            "correct": all(r.correct for r in reports),
            "attempted": sum(r.attempted for r in reports),
            "failed": sum(r.failed for r in reports),
            "workloads": {r.workload: contract_line(r)["metrics"] for r in reports},
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
