"""End-to-end benchmark of the DYNO reproduction: one command, two workloads.

Usage (from the repository root)::

    python3 e2ebench/run.py --workload serving_mixed --seed 1 --seconds 40 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation:
the set-up runs three times, from three seeds derived from ``--seed``, and
``setup_s`` is the median of the three plus the one warm-up pass; the
timed phase runs for at least ``--seconds`` over the inputs of the
set-ups it uses, and the others are made after it. On the closed loop
(``standing_refresh``) ``ops_per_s`` is the throughput of the median
cycle (see ``median_cycle_ops_per_s``); on the open loop
(``serving_mixed``) it is the requests completed per second of the timed
phase.
``sim_s`` is the mean, over data sets, of the mean simulated seconds of
the successful operations of one pass over that data set (on
``serving_mixed``, of the schedule served again one request at a time
after the timed phase): fixed work, so it repeats exactly for a seed.
``--trace 1`` instruments the program's public entry points (see
``spans.py``), sets up once under tracing, runs one untraced pass and one
traced pass of the same fixed work, and reports per-layer self times and
work counters; the median, over paired operations, of traced over
untraced busy time, less one, is the tracing overhead. The spans are
written as Chrome Trace Event JSON to ``e2ebench/traces/``.

``peak_rss_mb`` is the peak resident memory of the timed phase: the
kernel's high-water mark is reset just before it starts (set-up data the
phase keeps is included).

Metric names, units and directions come from ``BENCHMARK.json`` at the
repository root. Every answer is checked; the last line of standard output
is one JSON object ``{"correct", "attempted", "failed", "metrics"}``. The
exit code is 0 only when every answer was right. ``scenarios.py`` says
why each workload exists.
"""

from __future__ import annotations

import argparse
import gc
import json
import re
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: set-ups per untraced run, each from its own derived seed; setup_s is
#: their median. A workload whose timed phase rotates over its inputs
#: keeps all of them, so that one run averages over several data sets;
#: the others keep the first and make the rest after the timed phase.
SETUP_REPEATS = 3
#: data seeds one set-up may try before giving up.
DATA_SEEDS = 16


def set_up(workload, seed: int, part: int, seconds: float):
    """Set up from the ``part``-th group of seeds derived from ``seed``.

    A data set on which some reference answer is empty would check
    nothing (TPC-H Q2 is empty for about one data seed in sixty), so the
    set-up moves on to the group's next seed; the time spent counts.
    """
    first = (seed * SETUP_REPEATS + part) * DATA_SEEDS
    for data_seed in range(first, first + DATA_SEEDS):
        state = workload.setup(data_seed, seconds)
        if not state.empty():
            return state
        del state  # free the rejected data before making the next
    raise SystemExit(f"e2ebench: every data seed from {first} on gives an "
                     "empty reference answer")


def reset_peak_rss() -> None:
    """Reset the process's resident-memory high-water mark to now."""
    Path("/proc/self/clear_refs").write_text("5")


def peak_rss_mb() -> float:
    """Resident-memory high-water mark since the last reset, in MiB."""
    status = Path("/proc/self/status").read_text()
    return int(re.search(r"^VmHWM:\s+(\d+) kB", status, re.M)[1]) / 1024.0


def percentile(values: list[float], fraction: float) -> float:
    """Percentile interpolated between the nearest samples."""
    if len(values) < 2:
        return values[0] if values else 0.0
    cuts = statistics.quantiles(values, n=1000, method="inclusive")
    return cuts[round(fraction * 1000) - 1]


def ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def median_cycle_ops_per_s(phase) -> float:
    """Throughput of a closed loop's median cycle.

    One client runs the same cycle of operations again and again, so it
    completes the cycle's length of operations per cycle duration. Each
    operation's duration here is its median over every repetition of the
    cycle in the timed phase: a stretch in which a shared host runs the
    benchmark slowly slows the few repetitions inside it, and a median
    ignores it as long as it covers under half of them, where the total
    wall time would absorb it.
    """
    by_position: dict[int, list[float]] = {}
    for index, op in enumerate(phase.ops):
        if op.error is None:
            by_position.setdefault(index % phase.cycle, []).append(op.latency)
    durations = [statistics.median(values)
                 for values in by_position.values()]
    return ratio(len(durations), sum(durations))


def end_to_end(phase, setup_s: float, sims: list[list[float]],
               peak_mb: float) -> tuple[dict[str, float], str]:
    latencies = [op.latency for op in phase.ops if op.error is None]
    p95 = percentile(latencies, 0.95)
    beyond = sum(1 for value in latencies if value > p95)
    means = [statistics.fmean(data_set) for data_set in sims if data_set]
    values = {
        "setup_s": setup_s,
        "ops_per_s": (median_cycle_ops_per_s(phase) if phase.cycle
                      else ratio(len(latencies), phase.wall)),
        "latency_p50_s": percentile(latencies, 0.50),
        "latency_p95_s": p95,
        "sim_s": statistics.fmean(means) if means else 0.0,
        "peak_rss_mb": peak_mb,
    }
    note = (f"{len(phase.ops)} ops in {phase.wall:.2f} s; latencies over "
            f"{len(latencies)} samples, {beyond} beyond p95")
    return values, note


def per_layer(recorder, traced, untraced) -> dict[str, float]:
    layer = recorder.self_seconds()
    counter = recorder.counters
    service = traced.service
    waits = service.get("waits", [])
    return {
        "data.generate_s": layer.get("data", 0.0),
        "data.rows": counter.get("data.rows", 0),
        "storage.write_table_s": layer.get("storage", 0.0),
        "storage.write_calls": counter.get("storage.write_calls", 0),
        "storage.bytes_written": counter.get("storage.bytes_written", 0),
        "jaql.prepare_s": layer.get("jaql.prepare", 0.0),
        "jaql.prepare_calls": counter.get("jaql.prepare_calls", 0),
        "jaql.compile_s": layer.get("jaql.compile", 0.0),
        "jaql.jobs_compiled": counter.get("jaql.jobs_compiled", 0),
        "pilot.run_s": layer.get("pilot", 0.0),
        "pilot.jobs": counter.get("pilot.jobs", 0),
        "pilot.leaves_skipped": counter.get("pilot.leaves_skipped", 0),
        "optimizer.optimize_s": layer.get("optimizer", 0.0),
        "optimizer.calls": counter.get("optimizer.calls", 0),
        "optimizer.plans_considered":
            counter.get("optimizer.plans_considered", 0),
        "dynopt.execute_block_s": layer.get("dynopt", 0.0),
        "dynopt.reoptimizations": counter.get("dynopt.reoptimizations", 0),
        "dynopt.plan_changes": counter.get("dynopt.plan_changes", 0),
        "runtime.execute_batch_s": layer.get("runtime", 0.0),
        "runtime.jobs": counter.get("runtime.jobs", 0),
        "runtime.map_input_records":
            counter.get("runtime.map_input_records", 0),
        "runtime.shuffle_bytes": counter.get("runtime.shuffle_bytes", 0),
        "runtime.broadcast_bytes": counter.get("runtime.broadcast_bytes", 0),
        "runtime.spilled_bytes": counter.get("runtime.spilled_bytes", 0),
        "runtime.output_records": counter.get("runtime.output_records", 0),
        "runtime.sim_makespan_s": counter.get("runtime.sim_makespan_s", 0.0),
        "metastore.get_hit_ratio": ratio(counter.get("metastore.get_hits", 0),
                                         counter.get("metastore.gets", 0)),
        "metastore.puts": counter.get("metastore.puts", 0),
        "metastore.invalidations": counter.get("metastore.invalidations", 0),
        "service.wait_p50_s": percentile(waits, 0.50),
        "service.wait_p95_s": percentile(waits, 0.95),
        "service.exec_s": percentile(service.get("execs", []), 0.50),
        "service.drain_calls": counter.get("service.drain_calls", 0),
        "service.queue_depth_max": counter.get("service.queue_depth_max", 0),
        "plan_cache.hit_ratio": ratio(service.get("plan_cache_hits", 0),
                                      service.get("plan_cache_lookups", 0)),
        "result_cache.hit_ratio":
            ratio(service.get("result_cache_hits", 0),
                  service.get("requests", 0)),
        "result_cache.invalidations":
            service.get("result_cache_invalidations", 0),
        "cdc.synthesize_s": layer.get("cdc.synthesize", 0.0),
        "cdc.apply_s": layer.get("cdc.apply", 0.0),
        "standing.refresh_s": layer.get("standing.refresh", 0.0),
        "standing.decide_s": layer.get("standing.decide", 0.0),
        "standing.delta_refreshes":
            counter.get("standing.delta_refreshes", 0),
        "standing.full_refreshes": counter.get("standing.full_refreshes", 0),
        "loadgen.lag_p99_s": percentile(service.get("lateness", []), 0.99),
        "loadgen.offered_qps": service.get("offered_qps", 0.0),
        # The two passes run the same operations in the same order, so
        # pair them; the median ratio resists a noisy stretch in either.
        "trace.overhead_ratio": statistics.median(
            ratio(t.busy, u.busy) for t, u in zip(traced.ops, untraced.ops)
        ) - 1.0,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "repro" / "__init__.py").is_file() \
            or not spec_path.is_file():
        print(f"e2ebench: no program to measure: {SRC / 'repro'} or "
              f"{spec_path} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import scenarios
    from spans import Recorder, instrument

    spec = json.loads(spec_path.read_text())
    if args.workload not in scenarios.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(scenarios.WORKLOADS)}")
    recorder = Recorder()
    workload = scenarios.WORKLOADS[args.workload](recorder)

    if args.trace:
        undo = instrument(recorder)
        try:
            recorder.enabled = True
            states = [set_up(workload, args.seed, 0, args.seconds)]
            recorder.enabled = False
            warm = workload.warm_up(states[0])
            untraced = workload.run(states, None)
            recorder.enabled = True
            traced = workload.run(states, None)
            recorder.enabled = False
        finally:
            undo()
        phases = [warm, untraced, traced]
        measured = traced
        values = per_layer(recorder, traced, untraced)
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        trace_path = HERE / "traces" / \
            f"{args.workload}-seed{args.seed}.trace.json"
        recorder.write_chrome_trace(trace_path)
        note = (f"traced pass: {len(traced.ops)} ops, "
                f"{len(recorder.spans)} spans -> "
                f"{trace_path.relative_to(ROOT)}")
    else:
        setups: list[float] = []

        def timed_set_up(part: int):
            started = time.perf_counter()
            state = set_up(workload, args.seed, part, args.seconds)
            setups.append(time.perf_counter() - started)
            return state

        kept = SETUP_REPEATS if workload.rotates else 1
        states = [timed_set_up(part) for part in range(kept)]
        gc.collect()
        started = time.perf_counter()
        warm = workload.warm_up(states[0])
        warm_s = time.perf_counter() - started
        reset_peak_rss()
        measured = workload.run(states, args.seconds)
        peak_mb = peak_rss_mb()
        sims = workload.simulated(states, measured)
        # Set-ups the timed phase does not use run after it, far apart in
        # time from the first: a slow stretch of the shared host then
        # slows at most one of the samples setup_s takes the median of.
        for part in range(kept, SETUP_REPEATS):
            timed_set_up(part)
        phases = [warm, measured]
        values, note = end_to_end(measured,
                                  statistics.median(setups) + warm_s,
                                  sims, peak_mb)
        note += (f"; set-ups {', '.join(f'{s:.2f}' for s in setups)} s, "
                 f"warm-up {warm_s:.2f} s")
        if "lateness" in measured.service:
            note += ("; generator lateness p99 "
                     f"{percentile(measured.service['lateness'], 0.99):.4f} s")
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}

    failed = sum(1 for op in measured.ops if op.error is not None)
    wrong = [message for phase in phases for message in phase.wrong]
    wrong += [f"warm-up {op.name}: {op.error}" for op in warm.ops
              if op.error is not None]
    print(f"{args.workload} seed={args.seed} trace={args.trace}: {note}")
    for message in wrong[:20]:
        print(f"WRONG {message}")
    print(f"attempted {len(measured.ops)}, failed {failed}")
    print("record " + json.dumps(workload.record(states), sort_keys=True))
    for name, unit in units.items():
        print(f"  {name:<28} {values[name]:>16.6f} {unit}")
    result = {
        "correct": not wrong,
        "attempted": len(measured.ops),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0 if not wrong else 1


if __name__ == "__main__":
    sys.exit(main())
