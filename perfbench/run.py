"""Repository benchmark: one workload of the OVC reproduction, run
source -> sink by one client in a closed loop.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; it reads the program from ``src/``
and the metric names and units from ``BENCHMARK.json``. With
``--trace 0`` the run times the workload's OVC query and its reference
for ``--seconds`` and prints the end-to-end metrics; with ``--trace 1``
it records spans around calls into each layer and prints the per-layer
metrics. Either way one repetition is first checked in full against
DuckDB or numpy, and every timed query's row count is checked.

Every query is timed on two clocks: wall-clock, and the CPU seconds of
the benchmark's process tree (driver, Spark JVM, Python workers). On a
shared machine both swing by a quarter between runs of the same code,
so the bounded end-to-end metrics are the CPU cost of the OVC query
relative to a reference that does the same job without the program's
code, run back to back with it (``ovc_to_reference_ratio``; native
Spark for the Spark queries, plain Python for the driver plan), the
CPU seconds of set-up, and peak memory. Medians and quartiles of the
absolute times go to the run record; per-layer spans are wall-clock.

``attempted`` counts the fully checked repetition and each timed
iteration (one OVC query and its references, or one pass over the
Spark mix); ``failed`` counts those that raised or returned a wrong
result. If no iteration succeeds, the result has ``correct: false``
and carries no ratio.

The last line of standard output is the result:
``{"correct", "attempted", "failed", "metrics"}``. The line before it
holds the provenance and each timing's quartiles and sample count; the
same record is written to ``.bench_out/<run id>.json``, and with
``--trace 1`` the spans to ``.bench_out/<run id>.spans.jsonl``.
Scratch files live in ``.bench_tmp/<run id>/`` and are removed at exit.

``--smoke`` shrinks every input to toy size (for the benchmark's tests).
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import sys
import time
import traceback
from pathlib import Path

import harness

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPS = 5


def _report_failure(failures: list[str], what: str) -> None:
    failures.append(f"{what}: {traceback.format_exc(limit=1).strip()}")
    print(f"perfbench: {what}", file=sys.stderr)
    traceback.print_exc(file=sys.stderr)


def _metrics(declared: list[dict], values: dict[str, float],
             zero_fill: bool) -> dict:
    """Attach units from BENCHMARK.json; refuse undeclared names. With
    ``zero_fill``, a declared layer the workload never calls reads 0;
    otherwise a metric that was not measured is left out."""
    units = {m["name"]: m["unit"] for m in declared}
    unknown = set(values) - set(units)
    if unknown:
        raise KeyError(f"metrics not declared in BENCHMARK.json: {unknown}")
    if zero_fill:
        values = {name: values.get(name, 0) for name in units}
    return {name: {"value": values[name], "unit": unit}
            for name, unit in units.items() if name in values}


def run(args, bench: dict, run_id: str, tmp: Path) -> tuple[dict, dict]:
    import workloads

    cls = workloads.WORKLOADS[args.workload]
    # Set-up is the session start (Spark workloads) plus the inputs'
    # set-up; starting the interpreter and importing are the benchmark's.
    session_s, session_cpu_s, spark = (
        harness.clocked(harness.start_spark) if cls.uses_spark
        else (0.0, 0.0, None))
    try:
        w = cls(spark, args.seed, args.smoke, tmp / "work")
        setups = [harness.clocked(w.setup)[:2] for _ in range(SETUP_REPS)]
        failures: list[str] = []
        attempted, failed = 1, 0
        try:
            w.check()
        except Exception:
            failed += 1
            _report_failure(failures, "full check")
        record = {"run_id": run_id, "workload": args.workload,
                  "trace": args.trace, "seconds": args.seconds,
                  "provenance": harness.provenance(ROOT, spark, w.sizes,
                                                   args.seed),
                  "session_start_s": session_s,
                  "session_start_cpu_s": session_cpu_s,
                  "setup_samples_s": [wall for wall, _ in setups],
                  "setup_samples_cpu_s": [cpu for _, cpu in setups]}
        if args.trace:
            tracer = harness.Tracer(run_id)
            attempted += 1
            try:
                values = w.trace(tracer, args.seconds)
                values["trace.overhead_s"] = (
                    values["trace.query_s"] - values["trace.untraced_query_s"])
            except Exception:
                failed += 1
                _report_failure(failures, "traced pass")
                values = {}
            tracer.write(ROOT / ".bench_out" / f"{run_id}.spans.jsonl")
            values["leaked_temp_files"] = w.leaked_temp_files
            metrics = _metrics(bench["per_layer"], values, zero_fill=True)
        else:
            samples: dict[str, list[float]] = {}
            t0 = time.perf_counter()
            while not samples or time.perf_counter() - t0 < args.seconds:
                attempted += 1
                try:
                    it = w.iterate()
                except Exception:
                    failed += 1
                    _report_failure(failures, "timed iteration")
                    if len(failures) > 10:
                        break
                    continue
                for k, v in it.items():
                    samples.setdefault(k, []).extend(v)
                # Query and reference run back to back, so their ratio
                # cancels the machine's speed drifting between runs.
                samples.setdefault("ovc_to_reference_ratio", []).append(
                    statistics.median(it["query_cpu_s"])
                    / statistics.median(it["reference_cpu_s"]))
            record["timings"] = {k: harness.summarize(v)
                                 for k, v in samples.items()}
            values = {}
            if samples:  # at least one iteration succeeded
                values["ovc_to_reference_ratio"] = statistics.median(
                    samples["ovc_to_reference_ratio"])
            values["setup_s"] = session_cpu_s + statistics.median(
                cpu for _, cpu in setups)
            values["driver_peak_rss_mb"] = harness.peak_rss_mb()
            metrics = _metrics(bench["end_to_end"], values, zero_fill=False)
        record["leaked_temp_files"] = w.leaked_temp_files
        record["failures"] = failures
        result = {"correct": failed == 0, "attempted": attempted,
                  "failed": failed, "metrics": metrics}
        return record, result
    finally:
        if spark is not None:
            harness.stop_spark(spark)


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="toy-scale inputs, for the benchmark's own tests")
    args = p.parse_args(argv)

    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {src}/repro",
              file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in bench["workloads"]}:
        print(f"perfbench: unknown workload {args.workload!r}",
              file=sys.stderr)
        return 2

    # On SIGTERM, unwind through the ``finally`` blocks that stop Spark
    # and remove the scratch directory.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    run_id = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    tmp = ROOT / ".bench_tmp" / run_id
    harness.configure_env(src, tmp)
    sys.path.insert(0, str(src))
    try:
        record, result = run(args, bench, run_id, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    out = ROOT / ".bench_out" / f"{run_id}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps({**record, "result": result}, indent=1))
    print(json.dumps(record))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
