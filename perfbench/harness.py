"""Measurement plumbing shared by the workloads: spans, medians, the
Spark session, temp-file accounting and provenance.

Nothing here imports the program under test; ``run.py`` puts the
checkout's ``src/`` on the path before the workloads import it.
"""
from __future__ import annotations

import gc
import hashlib
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import time
from contextlib import contextmanager
from pathlib import Path

SPARK_MASTER = "local[4]"
SHUFFLE_PARTITIONS = 8
DRIVER_MEMORY = "2g"


class WrongResult(Exception):
    """A query returned a result that differs from the reference."""


class Tracer:
    """In-memory spans recorded around calls into the program's layers.

    A span is ``(id, name, scope, start, end, parent, round)``;
    ``round`` identifies the request (one pass over the workload's
    stages) that the span belongs to, ``parent`` the enclosing span and
    ``scope`` the pipeline of a query mix that recorded it. Spans are
    kept in memory and written out once, by :meth:`write`.
    """

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.scope = ""
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._round = 0

    def next_round(self) -> None:
        self._round += 1

    @contextmanager
    def span(self, name: str):
        sid = len(self.spans)
        rec = {"id": sid, "name": name, "scope": self.scope,
               "round": self._round,
               "parent": self._stack[-1] if self._stack else None,
               "run_id": self.run_id, "start": time.perf_counter(),
               "end": None}
        self.spans.append(rec)
        self._stack.append(sid)
        try:
            yield rec
        finally:
            self._stack.pop()
            rec["end"] = time.perf_counter()

    def median(self, *names: str) -> float:
        """Median over rounds of the time spent in the current scope's
        spans called any of ``names`` in that round (0.0 if none)."""
        per_round: dict[int, float] = {}
        for s in self.spans:
            if s["name"] in names and s["scope"] == self.scope:
                per_round[s["round"]] = per_round.get(s["round"], 0.0) \
                    + s["end"] - s["start"]
        return statistics.median(per_round.values()) if per_round else 0.0

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as f:
            for s in self.spans:
                f.write(json.dumps(s) + "\n")


def summarize(samples: list[float]) -> dict:
    """Median, quartiles and count of one metric's samples in a run."""
    if len(samples) >= 2:
        q1, q2, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    else:
        q1 = q2 = q3 = samples[0]
    return {"median": q2, "q1": q1, "q3": q3, "n": len(samples)}


_CLK_TCK = os.sysconf("SC_CLK_TCK")


def _processes() -> dict[int, tuple[int, str, float]]:
    """``pid -> (parent pid, state, CPU seconds incl. reaped children)``
    for every process in ``/proc``."""
    table = {}
    for entry in os.scandir("/proc"):
        if not entry.name.isdigit():
            continue
        try:
            with open(f"/proc/{entry.name}/stat") as f:
                stat = f.read()
        except OSError:  # exited since the directory was listed
            continue
        fields = stat[stat.rindex(")") + 2:].split()
        table[int(entry.name)] = (int(fields[1]), fields[0], sum(
            int(x) for x in fields[11:15]) / _CLK_TCK)
    return table


def _descendants(table: dict[int, tuple[int, str, float]]) -> list[int]:
    me = os.getpid()
    out = []
    for pid, (ppid, _, _) in table.items():
        p = ppid
        while p != me and p in table:
            p = table[p][0]
        if p == me:
            out.append(pid)
    return out


def _descendants_cpu_s() -> float:
    """CPU seconds (user + system) used so far by this process's
    descendants (the Spark JVM and its Python workers), counting reaped
    children through their parents. /proc counts them in scheduler
    ticks."""
    t = os.times()
    table = _processes()
    return (t.children_user + t.children_system
            + sum(table[pid][2] for pid in _descendants(table)))


def clocked(fn) -> tuple[float, float, object]:
    """``(wall seconds, process-tree CPU seconds, result)`` of ``fn()``.
    Unlike wall-clock time, CPU time leaves out the time spent waiting
    for a CPU that another process holds. Collects the driver's garbage
    first, so that each call starts from the same heap and pays only
    for the garbage it makes itself; the /proc scans for descendants
    lie outside this process's own (nanosecond) clock interval."""
    gc.collect()
    d0 = _descendants_cpu_s()
    c0 = time.process_time()
    t0 = time.perf_counter()
    out = fn()
    wall = time.perf_counter() - t0
    cpu = time.process_time() - c0
    return wall, cpu + _descendants_cpu_s() - d0, out


def peak_rss_mb() -> float:
    """High-water resident set size of this process (Linux: KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def count_files(root: Path) -> int:
    return sum(len(files) for _, _, files in os.walk(root)) \
        if root.exists() else 0


def dir_bytes(root: Path) -> int:
    return sum(os.path.getsize(os.path.join(d, f))
               for d, _, files in os.walk(root) for f in files)


def configure_env(src: Path, tmp: Path) -> None:
    """Keep every file Spark, the JVM and Python write under ``tmp``
    and let executors' Python workers import the checkout's ``src``.
    Must run before pyspark launches its JVM."""
    for sub in ("tmp", "spark", "warehouse"):
        (tmp / sub).mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp / "tmp")
    # The program does no BLAS work, but OpenBLAS's idle worker threads
    # spin for a while after numpy is imported, and their CPU time would
    # land in whatever is timed first.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    os.environ["SPARK_LOCAL_DIRS"] = str(tmp / "spark")
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src), os.environ.get("PYTHONPATH")) if p)
    jvm_opts = f"-XX:-UsePerfData -Djava.io.tmpdir={tmp / 'tmp'}"
    os.environ["SPARK_LAUNCHER_OPTS"] = "-XX:-UsePerfData"
    os.environ["SPARK_SUBMIT_OPTS"] = " ".join(
        p for p in (os.environ.get("SPARK_SUBMIT_OPTS"), jvm_opts) if p)
    os.environ["PYSPARK_SUBMIT_ARGS"] = (
        f"--master {SPARK_MASTER} --driver-memory {DRIVER_MEMORY} "
        "--conf spark.driver.host=127.0.0.1 --conf spark.ui.enabled=false "
        "--conf spark.ui.showConsoleProgress=false "
        f"--conf spark.sql.warehouse.dir={tmp / 'warehouse'} pyspark-shell"
    )


def start_spark():
    """The session every Spark workload runs in; configs as in the
    repository's test ``conftest.py`` but with 8 shuffle partitions."""
    from pyspark.sql import SparkSession

    spark = (
        SparkSession.builder.appName("perfbench")
        .config("spark.sql.shuffle.partitions", str(SHUFFLE_PARTITIONS))
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def stop_spark(spark) -> None:
    """Stop the session, then wait for the gateway JVM and the Python
    workers it forked to exit."""
    from pyspark import SparkContext

    started = _descendants(_processes())  # the JVM and its Python workers
    spark.stop()
    gateway = SparkContext._gateway
    if gateway is None:
        return
    gateway.shutdown()
    proc = getattr(gateway, "proc", None)
    if proc is not None:
        proc.stdin.close()
        try:
            proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    SparkContext._gateway = None
    SparkContext._jvm = None
    # The workers outlive the JVM by a moment; wait for them too.
    deadline = time.monotonic() + 30
    for pid in started:
        while _processes().get(pid, (0, "Z"))[1] != "Z":
            if time.monotonic() > deadline:
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
                break
            time.sleep(0.1)


def _version(module: str) -> str | None:
    try:
        return __import__(module).__version__
    except ImportError:
        return None


def _git(root: Path, *args: str) -> str | None:
    # Only ask git when the checkout itself is a repository, so git
    # never searches the directories above it.
    if not (root / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(root), *args],
                             capture_output=True, text=True, timeout=60)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_digest(src: Path) -> str:
    """SHA-256 over the program's Python sources, for checkouts that
    are not git repositories."""
    h = hashlib.sha256()
    for p in sorted(src.rglob("*.py")):
        h.update(str(p.relative_to(src)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()


def provenance(root: Path, spark, sizes: dict, seed: int) -> dict:
    status = _git(root, "status", "--porcelain")
    return {
        "git_sha": _git(root, "rev-parse", "HEAD"),
        "git_dirty": None if status is None else bool(status),
        "source_sha256": source_digest(root / "src"),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "spark_master": spark.sparkContext.master if spark else None,
        "shuffle_partitions": int(spark.conf.get(
            "spark.sql.shuffle.partitions")) if spark else None,
        "java": spark.sparkContext._jvm.System.getProperty(
            "java.version") if spark else None,
        "pyspark": _version("pyspark"),
        "pyarrow": _version("pyarrow"),
        "numpy": _version("numpy"),
        "pandas": _version("pandas"),
        "sizes": sizes,
        "seed": seed,
    }
