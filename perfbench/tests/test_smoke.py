"""Toy-scale smoke test of the benchmark: every workload in both modes.

    python3 -m pytest perfbench/tests -q

Each run starts its own Spark JVM, so the module takes a few minutes.
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_every_metric_emitted_with_its_unit(workload):
    for trace, declared in ((0, BENCH["end_to_end"]), (1, BENCH["per_layer"])):
        p = _run(ROOT, workload, trace)
        assert p.returncode == 0, p.stderr[-4000:]
        record, result = map(json.loads, p.stdout.strip().splitlines()[-2:])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0, record["failures"]
        assert result["attempted"] >= 1
        units = {name: m["unit"] for name, m in result["metrics"].items()}
        assert units == {m["name"]: m["unit"] for m in declared}
        # Every per-repetition temp directory was empty when closed.
        assert record["leaked_temp_files"] == 0
        assert not (ROOT / ".bench_tmp" / record["run_id"]).exists()
        if trace == 0:
            assert all(m["value"] > 0 for m in result["metrics"].values())
        else:
            assert result["metrics"]["trace.query_s"]["value"] > 0
            spans = ROOT / ".bench_out" / f"{record['run_id']}.spans.jsonl"
            first = json.loads(spans.read_text().splitlines()[0])
            assert set(first) == {"id", "name", "scope", "round", "parent",
                                  "run_id", "start", "end"}


def _copy_benchmark(dest: Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", dest)
    shutil.copytree(ROOT / "perfbench", dest / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))


def test_refuses_to_run_without_the_program(tmp_path):
    _copy_benchmark(tmp_path)
    p = _run(tmp_path, BENCH["workloads"][0]["name"], 0)
    assert p.returncode != 0
    assert p.stdout.strip() == ""


def test_a_query_that_always_raises_is_counted_not_fatal(tmp_path):
    # A copy of the program whose timed sort plan always raises.
    _copy_benchmark(tmp_path)
    shutil.copytree(ROOT / "src", tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    with open(tmp_path / "src/repro/sparkops/plans.py", "a") as f:
        f.write("\n\ndef sort_intersect_plan(*args, **kwargs):\n"
                "    raise RuntimeError('always fails')\n")
    p = _run(tmp_path, "fig3_driver_spill", 0)
    assert p.returncode == 0, p.stderr[-4000:]
    record, result = map(json.loads, p.stdout.strip().splitlines()[-2:])
    assert not result["correct"]
    # The full check and every timed iteration failed, each once.
    assert result["failed"] == result["attempted"] >= 2
    assert len(record["failures"]) == result["failed"]
    assert "ovc_to_reference_ratio" not in result["metrics"]
    assert result["metrics"]["setup_s"]["unit"] == "s"
