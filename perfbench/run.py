"""perfbench: the end-to-end benchmark of the PowerSensor3 host stack.

Run from the root of a checkout::

    python3 perfbench/run.py --workload bulk_gpu --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` builds the workload twice from the seed, once with every
layer wrapped in spans, and measures both in alternating slices; it
prints the per-layer waterfall and the tracing overhead, and writes the
spans to ``.perfbench-out/``.  The last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.

See ``perfbench/README.md`` for the workloads, metrics and layer map.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: End-to-end metrics and their units (every workload reports all).
END_TO_END = {
    "setup_s": "s",
    "samples_per_s": "1/s",
    "call_ms_p50": "ms",
    "call_ms_p99": "ms",
    "query_ms_p50": "ms",
    "query_ms_p99": "ms",
    "peak_rss_mb": "MB",
}

COUNT_UNITS = {
    "decode.bytes": "B",
    "serve.encode_ratio": "ratio",
}


def per_layer_units(layers: list[str], counts: list[str]) -> dict[str, str]:
    """Every per-layer metric name and its unit, in report order."""
    units: dict[str, str] = {}
    for layer in layers:
        units[f"{layer}.self_s"] = "s"
        units[f"{layer}.calls"] = "count"
    for name in counts:
        units[name] = COUNT_UNITS.get(name, "count")
    units["residual_s"] = "s"
    units["trace_overhead_pct"] = "%"
    return units


def build(cls, seed: int, rec, workdir: Path):
    """Build one bench; returns ``(workload, seconds it took)``."""
    workload = cls(seed, rec, workdir)
    t0 = time.perf_counter()
    workload.build()
    return workload, time.perf_counter() - t0


def end_to_end(m, setup_s: list[float], tails: dict[str, float]):
    """End-to-end metric values and their printed notes.

    A ``*_p99`` metric carries the workload's fixed percentile in
    ``tails``; the note names it and flags a run too short for the
    ten-beyond rule.
    """
    from stats import MIN_BEYOND, beyond, percentile, reportable

    values: dict[str, float] = {}
    notes: dict[str, str] = {}
    values["setup_s"] = statistics.median(setup_s)
    notes["setup_s"] = f"median of {len(setup_s)} set-ups"
    values["samples_per_s"] = statistics.median(m.rates)
    notes["samples_per_s"] = f"median over {len(m.rates)} calls"
    for prefix, samples in (("call", m.call_s), ("query", m.query_s)):
        n = len(samples)
        values[f"{prefix}_ms_p50"] = statistics.median(samples) * 1e3
        notes[f"{prefix}_ms_p50"] = f"n={n}"
        p = tails[prefix]
        values[f"{prefix}_ms_p99"] = percentile(samples, p) * 1e3
        note = f"value is p{p:g}; n={n}, {beyond(p, n)} beyond"
        if not reportable(p, n):
            note += f"; fewer than {MIN_BEYOND} beyond: run too short for this percentile"
        notes[f"{prefix}_ms_p99"] = note
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    notes["peak_rss_mb"] = "whole run"
    return values, notes


def print_checks(m) -> None:
    frac = m.failed / m.attempted if m.attempted else 1.0
    print(f"  failed_frac      {frac:.6f}  ({m.failed} of {m.attempted} operations)")
    for name, ok, detail in m.checks:
        print(f"  check {name}: {'pass' if ok else 'FAIL'}  {detail}")
    for failure in m.failures:
        print(f"  failure: {failure}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    cls = WORKLOADS.get(args.workload)
    if cls is None:
        print(f"perfbench: unknown workload {args.workload!r} (known: {sorted(WORKLOADS)})",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2

    if cls.ONE_CPU:
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    workdir = ROOT / ".perfbench-work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    try:
        measure = traced_run if args.trace else untraced_run
        m, metrics = measure(cls, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass
    print(json.dumps({
        "correct": m.failed == 0,
        "attempted": m.attempted,
        "failed": m.failed,
        "metrics": metrics,
    }))
    return 0


#: Seconds of workload calls between two canary slices.
WINDOW_S = 0.2


def rescale(m, marks: tuple[int, int, int], factor: float) -> None:
    """Express the timings recorded since ``marks`` in reference-host units.

    ``factor`` is how much slower than the reference host the host ran;
    ``marks`` are the lengths of ``m.rates``, ``m.call_s`` and
    ``m.query_s`` before the window.
    """
    rates, calls, queries = marks
    m.rates[rates:] = [r * factor for r in m.rates[rates:]]
    m.call_s[calls:] = [s / factor for s in m.call_s[calls:]]
    m.query_s[queries:] = [s / factor for s in m.query_s[queries:]]


def untraced_run(cls, seed: int, seconds: float, workdir: Path):
    """The end-to-end metrics, tracing off, in reference-host units.

    A canary slice runs before and after each set-up and each
    :data:`WINDOW_S` window of calls (see ``canary.py``).
    """
    from canary import REFERENCE_S, HostClock
    from workloads import Measure

    clock = HostClock()
    clock.tick()
    setup_s = []
    for k in range(cls.SETUPS):
        if k:
            workload.close()
        workload, took = build(cls, seed, None, workdir)
        clock.tick()
        setup_s.append(took / clock.factor(k))
    m = Measure()
    run_clock = HostClock()
    try:
        deadline = time.perf_counter() + seconds
        run_clock.tick()
        window = 0
        while time.perf_counter() < deadline:
            marks = (len(m.rates), len(m.call_s), len(m.query_s))
            workload.run(min(time.perf_counter() + WINDOW_S, deadline), m)
            run_clock.tick()
            rescale(m, marks, run_clock.factor(window))
            window += 1
        workload.check(m)
    finally:
        workload.close()
    values, notes = end_to_end(m, setup_s, cls.TAILS)
    print(f"  host speed: canary unit {run_clock.overall() * REFERENCE_S * 1e3:.4f} ms "
          f"in the run, {clock.overall() * REFERENCE_S * 1e3:.4f} ms in set-up, "
          f"{REFERENCE_S * 1e3:g} ms on the reference host; figures below are "
          f"in reference-host units over {window} windows")
    for key, value in values.items():
        print(f"  {key:<16} {value:<14.6g} {END_TO_END[key]:<4} ({notes[key]})")
    print_checks(m)
    return m, {key: {"value": values[key], "unit": unit} for key, unit in END_TO_END.items()}


#: The traced run alternates this many slices of each bench, so that drift
#: in the host's speed hits the untraced and the traced bench alike.
SLICES = 4


def traced_run(cls, seed: int, seconds: float, workdir: Path):
    """Per-layer metrics from a traced bench, beside an untraced twin.

    Both benches are built from the same seed and measured in alternating
    slices, half of ``seconds`` each.  The waterfall's wall time is the
    traced bench's build plus its slices.
    """
    from spans import SpanRecorder, waterfall
    from workloads import COUNTS, LAYERS, Measure

    rec = SpanRecorder()
    plain, _ = build(cls, seed, None, workdir / "plain")
    try:
        traced, wall = build(cls, seed, rec, workdir / "traced")
        try:
            m, tm = Measure(), Measure()
            step = seconds / (2 * SLICES)
            for _ in range(SLICES):
                plain.run(time.perf_counter() + step, m)
                t0 = time.perf_counter()
                traced.run(t0 + step, tm)
                wall += time.perf_counter() - t0
            plain.check(m)
            traced.check(tm)
        finally:
            traced.close()
    finally:
        plain.close()
    costs, residual = waterfall(rec.spans, wall, LAYERS)
    plain_rate, traced_rate = statistics.median(m.rates), statistics.median(tm.rates)
    overhead = (plain_rate / traced_rate - 1.0) * 100.0
    out = ROOT / ".perfbench-out"
    out.mkdir(exist_ok=True)
    spans_path = out / f"spans-{cls.name}-seed{seed}.jsonl"
    rec.dump(spans_path)

    print(f"  waterfall over {wall:.4f} s of traced wall time "
          f"({len(rec.spans)} spans, written to {spans_path.relative_to(ROOT)})")
    print(f"    {'layer':<18} {'self (CPU)':>12}  {'share':>8}  {'calls':>8}  "
          f"{'off-CPU in layer':>16}")
    for cost in sorted(costs, key=lambda c: -c.self_s):
        print(f"    {cost.name:<18} {cost.self_s:10.4f} s  "
              f"{100.0 * cost.self_s / wall:6.2f} %  {cost.calls:8d}  {cost.wait_s:14.4f} s")
    print(f"    {'residual':<18} {residual:10.4f} s  {100.0 * residual / wall:6.2f} %")
    total = sum(c.self_s for c in costs) + residual
    print(f"    sum of self times + residual = {total:.6f} s; wall = {wall:.6f} s")
    print(f"  trace_overhead_pct {overhead:.2f} (median samples/s "
          f"{plain_rate:.6g} untraced vs {traced_rate:.6g} traced)")
    for key in COUNTS:
        print(f"  {key:<24} {tm.counts[key]:.6g}")

    values: dict[str, float] = {}
    for cost in costs:
        values[f"{cost.name}.self_s"] = cost.self_s
        values[f"{cost.name}.calls"] = cost.calls
    values.update(tm.counts)
    values["residual_s"] = residual
    values["trace_overhead_pct"] = overhead
    m.attempted += tm.attempted
    m.failed += tm.failed
    m.failures += tm.failures
    m.checks += tm.checks
    print_checks(m)
    units = per_layer_units(LAYERS, COUNTS)
    return m, {key: {"value": values[key], "unit": unit} for key, unit in units.items()}


if __name__ == "__main__":
    sys.exit(main())
