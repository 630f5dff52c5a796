"""The repository benchmark: four workloads over the defect-oriented
test path, end-to-end metrics with tracing off, per-layer metrics from
a traced run.

Usage (from the repository root)::

    python3 perfbench/run.py --workload campaign_cold --seed 1995 \
        --seconds 10 --trace 0

Workloads: ``campaign_cold``, ``campaign_warm``, ``diagnose_serve``,
``fullchip_march`` (see ``perfbench/README.md`` for why each exists).
Every timed operation runs in a fresh interpreter with a fresh
temporary store or database under ``.perfbench/`` in the checkout.

The output is a host line, one line per metric (name, value, unit,
better-direction), the output-check verdict and, as the last line, one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 1`` the metrics are the per-layer ones, the spans are written
to ``.perfbench/out/spans-<workload>-<seed>.json`` and a self-time
table is printed.  Any failed output check makes the exit code 1.

``--record-golden`` recomputes ``perfbench/golden.json`` (the output
checks' reference values) for the recorded seeds; ``--size smoke``
shrinks every workload for the harness smoke test (``smoke.py``).
"""

from __future__ import annotations

import argparse
import http.client
import itertools
import json
import math
import os
import platform
import re
import shutil
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from statistics import median
from typing import Dict, List, Optional

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".perfbench"
GOLDEN = BENCH / "golden.json"
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import spans  # noqa: E402  (the benchmark's own tracer)

WORKLOADS = ("campaign_cold", "campaign_warm", "diagnose_serve",
             "fullchip_march")

#: seeds with recorded golden outputs: the default and the held-out
#: seed that performance claims are confirmed on
DEFAULT_SEED = 1995
HELD_OUT_SEED = 2718
GOLDEN_SEEDS = (DEFAULT_SEED, HELD_OUT_SEED)

#: workload sizes; "smoke" only exercises the harness
SIZES = {
    "full": {"n_defects": 1200, "max_classes": 6, "macros": "",
             "n_bits": 8, "tstop": 2e-10, "dt": 1e-11,
             "min_requests": 1000},
    "smoke": {"n_defects": 300, "max_classes": 1,
              "macros": "comparator,clockgen", "n_bits": 4,
              "tstop": 3e-11, "dt": 1e-11, "min_requests": 0},
}

#: (name, unit, better) — the order metrics are printed in
END_TO_END = [
    ("wall_s", "s", "lower"),
    ("qps", "queries/s", "higher"),
    ("latency_p50_ms", "ms", "lower"),
    ("latency_p99_ms", "ms", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
]
PER_LAYER = [
    ("campaign.prepare_s", "s", "lower"),
    ("layout.synth_s", "s", "lower"),
    ("defects.sprinkle_s", "s", "lower"),
    ("defects.extract_s", "s", "lower"),
    ("defects.collapse_s", "s", "lower"),
    ("faultsim.goodspace_s", "s", "lower"),
    ("defects.sprinkled", "count", "higher"),
    ("defects.faults", "count", "higher"),
    ("defects.classes", "count", "higher"),
    ("campaign.baseline_hits", "count", "higher"),
    ("campaign.baseline_misses", "count", "lower"),
    ("campaign.execute_s", "s", "lower"),
    ("faultsim.class_busy_s", "s", "lower"),
    ("faultsim.comparator_s", "s", "lower"),
    ("faultsim.ladder_s", "s", "lower"),
    ("faultsim.biasgen_s", "s", "lower"),
    ("faultsim.clockgen_s", "s", "lower"),
    ("circuit.assemble_s", "s", "lower"),
    ("circuit.factor_s", "s", "lower"),
    ("circuit.solve_s", "s", "lower"),
    ("circuit.convergence_check_s", "s", "lower"),
    ("campaign.pool_util", "fraction", "higher"),
    ("faultsim.classes_computed", "count", "lower"),
    ("faultsim.convergence_failures", "count", "lower"),
    ("campaign.retries", "count", "lower"),
    ("campaign.degraded", "count", "lower"),
    ("campaign.store_get_s", "s", "lower"),
    ("campaign.store_put_s", "s", "lower"),
    ("campaign.journal_append_s", "s", "lower"),
    ("campaign.cache_hits", "count", "higher"),
    ("campaign.cache_hit_rate", "fraction", "higher"),
    ("digital.decoder_s", "s", "lower"),
    ("digital.decoder_faults", "count", "higher"),
    ("diagnosis.match_s", "s", "lower"),
    ("diagnosis.batch_wait_s", "s", "lower"),
    ("diagnosis.db_s", "s", "lower"),
    ("diagnosis.http_s", "s", "lower"),
    ("diagnosis.requests", "count", "higher"),
    ("diagnosis.batches", "count", "lower"),
    ("diagnosis.queries", "count", "higher"),
    ("diagnosis.coalesce_ratio", "ratio", "higher"),
    ("diagnosis.compile_s", "s", "lower"),
    ("diagnosis.server_ready_s", "s", "lower"),
    ("circuit.factorizations", "count", "lower"),
    ("circuit.lane_solves", "count", "lower"),
    ("circuit.timepoints", "count", "higher"),
    ("adc.fullchip_build_s", "s", "lower"),
    ("trace.unattributed_s", "s", "lower"),
    ("trace.coverage", "fraction", "higher"),
    ("trace.overhead_s", "s", "lower"),
]

#: fullchip output-check tolerances: the sparse backend agrees with
#: any other LU within Newton tolerance, not bitwise
NODE_ATOL = 1e-6
NORM_RTOL = 1e-6
#: serving output check: reply floats vs the in-process matcher
MATCH_ATOL = 1e-9
#: requests per block behind the serving workload's ``wall_s``
SERVE_BLOCK = 100
#: distinct seeded requests the serving load cycles through, and how
#: many of them have their replies checked in full
SERVE_POOL = 600
SERVE_SAMPLE = 64
#: queries per request.  Nothing in the repository records how many
#: queries a tester sends at once, so each size is equally likely: an
#: assumption, not a measured tester mix.
REQUEST_SIZES = (1, 10, 100)
#: fewest timed operations per run (their median is reported)
MIN_OPS = 2
#: extra set-ups per cold run, for the setup_s median
SETUP_PROBES = 2
#: seconds between peak-RSS samples of a campaign or march process
#: tree (pool workers live for seconds, so this catches each one)
SAMPLE_INTERVAL = 0.05
#: a diagnose request unanswered for this long counts as failed; long
#: enough that a stalled host is not mistaken for a failed request
REQUEST_TIMEOUT = 60.0
#: no single child may outlive this (the run must end well inside
#: three minutes)
CHILD_TIMEOUT = 150.0


class BenchError(RuntimeError):
    """The benchmark itself could not run (not an output mismatch)."""


# ---------------------------------------------------------------------------
# processes


class Watched:
    """A child process plus a sampler of its process tree's peak RSS.

    Every ``interval`` seconds the sampler reads ``VmHWM`` of the child
    and of all its descendants from ``/proc``; the peak is the sum of
    the per-process high-water marks (parent plus pool workers).  With
    ``interval=None`` nothing polls: ``VmHWM`` is already a high-water
    mark, so a process without children needs only the sample taken
    before it is stopped, and no sampler competes with a load
    generator in this process.
    """

    def __init__(self, argv: List[str], env: Dict[str, str],
                 log: Path, stderr_pipe: bool = False,
                 interval: Optional[float] = SAMPLE_INTERVAL) -> None:
        self.spawned = time.monotonic()
        self._log = open(log, "ab")
        self.proc = subprocess.Popen(
            argv, cwd=ROOT, env=env, stdout=self._log,
            stderr=subprocess.PIPE if stderr_pipe else self._log,
            stdin=subprocess.DEVNULL)
        self.hwm_kb: Dict[int, int] = {}
        self.interval = interval
        self._stop = threading.Event()
        self._sampler = threading.Thread(target=self._sample,
                                         daemon=True)
        if interval is not None:
            self._sampler.start()

    def _tree(self) -> List[int]:
        pids, todo = [], [self.proc.pid]
        while todo:
            pid = todo.pop()
            pids.append(pid)
            try:
                for task in os.listdir(f"/proc/{pid}/task"):
                    with open(f"/proc/{pid}/task/{task}/children") as f:
                        todo.extend(int(c) for c in f.read().split())
            except OSError:
                pass
        return pids

    def sample_once(self) -> None:
        for pid in self._tree():
            try:
                with open(f"/proc/{pid}/status") as f:
                    for line in f:
                        if line.startswith("VmHWM:"):
                            kb = int(line.split()[1])
                            if kb > self.hwm_kb.get(pid, 0):
                                self.hwm_kb[pid] = kb
                            break
            except (OSError, ValueError):
                pass

    def _sample(self) -> None:
        while not self._stop.wait(self.interval):
            self.sample_once()

    def peak_rss_mb(self, self_reported_mb: float = 0.0) -> float:
        """Summed high-water marks; the child's own peak may come from
        its self report (it can grow after the last sample)."""
        root = max(self.hwm_kb.get(self.proc.pid, 0) / 1024.0,
                   self_reported_mb)
        rest = sum(kb for pid, kb in self.hwm_kb.items()
                   if pid != self.proc.pid) / 1024.0
        return root + rest

    def wait(self, timeout: float = CHILD_TIMEOUT) -> int:
        try:
            return self.proc.wait(timeout)
        except subprocess.TimeoutExpired:
            self.kill()
            raise BenchError(f"{self.proc.args[1]} timed out")
        finally:
            self._stop.set()
            if self._sampler.is_alive():
                self._sampler.join()
            self._log.close()

    def kill(self) -> None:
        for pid in reversed(self._tree()):
            try:
                os.kill(pid, signal.SIGKILL)
            except OSError:
                pass
        self.proc.wait()
        self._stop.set()


class Run:
    """One benchmark invocation: its scratch directory and children."""

    def __init__(self, workload: str, seed: int, seconds: float,
                 trace: bool, size: str) -> None:
        self.workload, self.seed, self.seconds = workload, seed, seconds
        self.trace = trace
        self.size = SIZES[size]
        self.full_size = size == "full"
        self.run_id = f"{workload}-{seed}-{os.getpid()}"
        self.dir = WORK / self.run_id
        self.dir.mkdir(parents=True, exist_ok=True)
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = str(ROOT / "src")
        self.env["TMPDIR"] = str(self.dir)
        self.jobs = min(2, os.cpu_count() or 1)
        self._n = itertools.count()
        self.problems: List[str] = []
        self.attempted = 0
        self.failed = 0

    def path(self, stem: str) -> Path:
        return self.dir / f"{stem}-{next(self._n)}"

    def worker(self, op: str, args: List[str],
               trace: bool = False) -> Dict:
        """Run one worker.py operation; returns its JSON result plus
        ``setup_s`` (spawn to ready) and ``peak_rss_mb``."""
        out = self.path("result")
        argv = [sys.executable, str(BENCH / "worker.py"), op,
                "--out", str(out), "--run-id", self.run_id] + args
        if trace:
            argv.append("--trace")
        child = Watched(argv, self.env, self.dir / "children.log")
        code = child.wait()
        if code != 0:
            raise BenchError(f"worker {op} exited {code}:\n"
                             + _tail(self.dir / "children.log"))
        result = json.loads(out.read_text())
        result["setup_s"] = result["ready"] - child.spawned
        result["peak_rss_mb"] = child.peak_rss_mb(result["peak_rss_mb"])
        return result

    def campaign(self, cache_dir: Path, trace: bool = False,
                 compile_to: Optional[Path] = None,
                 dry: bool = False) -> Dict:
        cache_dir.mkdir(parents=True, exist_ok=True)
        args = ["--seed", str(self.seed), "--cache-dir", str(cache_dir),
                "--jobs", str(self.jobs),
                "--n-defects", str(self.size["n_defects"]),
                "--max-classes", str(self.size["max_classes"])]
        if self.size["macros"]:
            args += ["--macros", self.size["macros"]]
        if compile_to is not None:
            args += ["--compile", str(compile_to)]
        if dry:
            args.append("--dry")
        return self.worker("campaign", args, trace=trace)

    def fullchip(self, trace: bool = False) -> Dict:
        args = ["--vin", repr(fullchip_vin(self.seed)),
                "--n-bits", str(self.size["n_bits"]),
                "--tstop", repr(self.size["tstop"]),
                "--dt", repr(self.size["dt"])]
        return self.worker("fullchip", args, trace=trace)

    def fail(self, message: str, count: int = 1) -> None:
        self.problems.append(message)
        self.failed += count

    def cleanup(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)


def _tail(path: Path, lines: int = 20) -> str:
    try:
        return "\n".join(path.read_text(errors="replace")
                         .splitlines()[-lines:])
    except OSError:
        return ""


# ---------------------------------------------------------------------------
# inputs and output checks


def fullchip_vin(seed: int) -> float:
    """The converter input the seed selects: a millivolt-grid voltage
    inside the ladder's reference range."""
    import random
    return round(random.Random(seed).uniform(1.0, 4.0), 3)


def load_golden() -> Dict:
    return json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}


def check_campaign(run: Run, op: Dict, what: str) -> None:
    """Degraded classes, coverage sanity and, where recorded, the
    golden digest and catastrophic coverage."""
    run.attempted += 1
    problems = []
    if op["metrics"]["degraded"]:
        problems.append(f"{op['metrics']['degraded']} degraded classes")
    if abs(sum(op["coverage"]) - 1.0) > 1e-9:
        problems.append(f"coverage does not sum to 1: {op['coverage']}")
    golden = load_golden().get("campaign", {}).get(str(run.seed))
    if run.full_size and golden is not None:
        if op["digest"] != golden["digest"]:
            problems.append("record digest differs from golden")
        if any(abs(a - b) > 1e-12
               for a, b in zip(op["coverage"], golden["coverage"])):
            problems.append("catastrophic coverage differs from golden")
    if problems:
        run.fail(f"{what}: " + "; ".join(problems))


def check_same(run: Run, ops: List[Dict], key: str, what: str) -> None:
    """Every operation of one run must produce the same output."""
    values = {json.dumps(op[key]) for op in ops}
    if len(values) > 1:
        run.fail(f"{what}: {key} differs between operations",
                 count=len(ops))


def check_fullchip(run: Run, op: Dict) -> None:
    run.attempted += 1
    problems = []
    if not op["finite"]:
        problems.append("non-finite state")
    if not 0 <= op["code"] <= 2 ** run.size["n_bits"]:
        problems.append(f"code {op['code']} out of range")
    golden = load_golden().get("fullchip", {}).get(str(run.seed))
    if run.full_size and golden is not None:
        if op["code"] != golden["code"]:
            problems.append(f"code {op['code']} != golden "
                            f"{golden['code']}")
        worst = max(abs(a - b) for a, b in
                    zip(op["final_nodes"], golden["final_nodes"]))
        if worst > NODE_ATOL or len(op["final_nodes"]) != \
                len(golden["final_nodes"]):
            problems.append(f"final node voltages off golden by "
                            f"{worst:.3g} V (tolerance {NODE_ATOL})")
        if abs(op["final_norm"] - golden["final_norm"]) > \
                NORM_RTOL * golden["final_norm"]:
            problems.append("final state norm differs from golden")
    if problems:
        run.fail("fullchip: " + "; ".join(problems))


def _close(a: Dict, b: Dict) -> bool:
    return all(abs(a[k] - b[k]) <= MATCH_ATOL
               for k in ("distance", "posterior", "prior"))


def _same_diagnosis(got: Dict, want: Dict, ranked) -> bool:
    """One served diagnosis against the in-process one.

    Candidates with equal distance and posterior are exact ties, and
    their order is not part of the matcher's contract.  The distances
    differ in the last bits with the batch they are computed in (the
    server stacks concurrent requests into one batch), which can
    reorder tied candidates or change which of them fills the last
    place.  So each place must hold a candidate whose own in-process
    values (``ranked()``: label -> candidate over every entry) are that
    place's values; anything else is a wrong answer.
    """
    if got["verdict"] != want["verdict"] or \
            got["ambiguity_group"] != want["ambiguity_group"] or \
            len(got["candidates"]) != len(want["candidates"]):
        return False
    pairs = list(zip(got["candidates"], want["candidates"]))
    if all(g["label"] == w["label"] and g["macro"] == w["macro"] and
           _close(g, w) for g, w in pairs):
        return True
    every = ranked()
    labels = [g["label"] for g, _ in pairs]
    return len(set(labels)) == len(labels) and all(
        g["label"] in every and g["macro"] == every[g["label"]]["macro"]
        and _close(g, w) and _close(every[g["label"]], w)
        for g, w in pairs)


# ---------------------------------------------------------------------------
# statistics


def percentile(values: List[float], p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def op_metrics(walls: List[float], items: List[int]) -> Dict[str, float]:
    """wall / qps / latency over whole operations (campaigns,
    marches): one latency sample per operation."""
    return {
        "wall_s": median(walls),
        "qps": median([n / w for n, w in zip(items, walls)]),
        "latency_p50_ms": 1e3 * median(walls),
        "latency_p99_ms": 1e3 * percentile(walls, 99),
    }


def timed_loop(run: Run, once) -> List[Dict]:
    """Repeat ``once()`` until the run's measuring time is used, and
    at least MIN_OPS times."""
    ops: List[Dict] = []
    started = time.monotonic()
    while len(ops) < MIN_OPS or \
            time.monotonic() - started < run.seconds:
        ops.append(once())
    return ops


# ---------------------------------------------------------------------------
# workloads


def campaign_layers(op: Dict, untraced_walls: List[float]) -> Dict:
    st = spans.self_times(op["spans"])
    counts = op["counts"]
    m = op["metrics"]
    execute = sum(s["end"] - s["start"] for s in op["spans"]
                  if s["name"] == "campaign.execute")
    busy = m["simulated_time"]
    layers = {
        "campaign.prepare_s": st.get("campaign.prepare", 0.0),
        "layout.synth_s": st.get("layout.synth", 0.0),
        "defects.sprinkle_s": st.get("defects.sprinkle", 0.0),
        "defects.extract_s": st.get("defects.extract", 0.0),
        "defects.collapse_s": st.get("defects.collapse", 0.0),
        "faultsim.goodspace_s": st.get("faultsim.goodspace", 0.0),
        "defects.sprinkled": counts.get("defects.sprinkled", 0),
        "defects.faults": counts.get("defects.faults", 0),
        "defects.classes": counts.get("defects.classes", 0),
        "campaign.baseline_hits": m["baseline_hits"],
        "campaign.baseline_misses": m["baseline_misses"],
        "campaign.execute_s": st.get("campaign.execute", 0.0),
        "faultsim.class_busy_s": busy,
        "campaign.pool_util": (busy / (op["jobs"] * execute)
                               if execute > 0 else 0.0),
        "faultsim.classes_computed": m["computed"],
        "faultsim.convergence_failures": m["convergence_failures"],
        "campaign.retries": m["retries"],
        "campaign.degraded": m["degraded"],
        "campaign.store_get_s": st.get("campaign.store_get", 0.0),
        "campaign.store_put_s": st.get("campaign.store_put", 0.0),
        "campaign.journal_append_s":
            st.get("campaign.journal_append", 0.0),
        "campaign.cache_hits": m["cache_hits"],
        "campaign.cache_hit_rate": m["cache_hit_rate"],
        "digital.decoder_s": st.get("digital.decoder", 0.0),
        "digital.decoder_faults":
            counts.get("digital.decoder_faults", 0),
    }
    for macro in ("comparator", "ladder", "biasgen", "clockgen"):
        layers[f"faultsim.{macro}_s"] = m["macro_wall"].get(macro, 0.0)
    layers.update(solver_phases(m["solver_phases"]))
    layers.update(trace_totals(op, untraced_walls))
    return layers


def solver_phases(phases: Dict[str, float]) -> Dict[str, float]:
    return {f"circuit.{phase}_s": phases.get(phase, 0.0)
            for phase in ("assemble", "factor", "solve",
                          "convergence_check")}


def trace_totals(op: Dict, untraced_walls: List[float]) -> Dict:
    wall = op["end"] - op["start"]
    cov = spans.covered(op["spans"], op["start"], op["end"])
    return {"trace.unattributed_s": wall - cov,
            "trace.coverage": cov / wall,
            "trace.overhead_s": wall - median(untraced_walls)}


def campaign_cold(run: Run) -> Dict:
    probes = [run.campaign(run.path("store"), dry=True)["setup_s"]
              for _ in range(SETUP_PROBES)]
    ops = timed_loop(run, lambda: run.campaign(run.path("store")))
    for op in ops:
        check_campaign(run, op, "cold campaign")
    check_same(run, ops, "digest", "cold campaign")
    return finish_campaign(run, run.path("store"), ops,
                           probes + [op["setup_s"] for op in ops])


def campaign_warm(run: Run) -> Dict:
    """Set-up is the store fill plus one untimed warm rerun: the first
    rerun after the fill ran slower than the second in every run
    tried, so it counts as set-up, not as the steady rerun this
    workload times."""
    store = run.path("store")
    fill = run.campaign(store)
    check_campaign(run, fill, "store fill")
    warmup = run.campaign(store)
    fill_s = sum(op["setup_s"] + op["wall"] for op in (fill, warmup))
    ops = timed_loop(run, lambda: run.campaign(store))
    for op in [warmup] + ops:
        check_campaign(run, op, "warm campaign")
        if op["metrics"]["computed"]:
            run.fail(f"warm campaign simulated "
                     f"{op['metrics']['computed']} classes")
    check_same(run, [fill, warmup] + ops, "digest",
               "warm vs cold campaign")
    return finish_campaign(run, store, ops,
                           [fill_s + op["setup_s"] for op in ops])


def finish_campaign(run: Run, store: Path, ops: List[Dict],
                    setups: List[float]) -> Dict:
    """End-to-end metrics of the timed campaigns and, when tracing,
    the per-layer metrics of one more (traced) campaign on ``store``."""
    walls = [op["wall"] for op in ops]
    metrics = op_metrics(
        walls, [op["analog_tasks"] + op["decoder_faults"] for op in ops])
    metrics["setup_s"] = median(setups)
    metrics["peak_rss_mb"] = max(op["peak_rss_mb"] for op in ops)
    result = {"metrics": metrics, "ops": len(ops)}
    if run.trace:
        traced = run.campaign(store, trace=True)
        check_campaign(run, traced, "traced campaign")
        result["layers"] = campaign_layers(traced, walls)
        result["spans"] = traced["spans"]
    return result


def fullchip_march(run: Run) -> Dict:
    ops = timed_loop(run, run.fullchip)
    for op in ops:
        check_fullchip(run, op)
    check_same(run, ops, "code", "fullchip")
    check_same(run, ops, "final_nodes", "fullchip")
    metrics = op_metrics([op["wall"] for op in ops],
                         [op["timepoints"] for op in ops])
    metrics["setup_s"] = median([op["setup_s"] for op in ops])
    metrics["peak_rss_mb"] = max(op["peak_rss_mb"] for op in ops)
    result = {"metrics": metrics, "ops": len(ops)}
    if run.trace:
        traced = run.fullchip(trace=True)
        check_fullchip(run, traced)
        layers = {
            **solver_phases(traced["phases"]),
            "circuit.timepoints": traced["timepoints"],
            "adc.fullchip_build_s": traced["build_s"],
        }
        layers.update(traced["counts"])
        layers.update(trace_totals(traced, [op["wall"] for op in ops]))
        result["layers"] = layers
        result["spans"] = traced["spans"]
    return result


# -- diagnose_serve ----------------------------------------------------------


def serve_requests(dictionary, seed: int):
    """The seeded request pool: (body bytes, query array) pairs.

    Each size in ``REQUEST_SIZES`` makes up exactly an equal share of
    the pool, in seeded order, so the mix does not vary with the seed.
    A query is one of the dictionary's rows plus small noise, or the
    all-zero passing vector, each equally likely (the same candidates
    as ``benchmarks/bench_serving.py``'s query pool)."""
    import numpy as np
    rng = np.random.default_rng(seed)
    rows = dictionary.matrix()
    candidates = np.vstack([rows, np.zeros((1, rows.shape[1]))])
    sizes = rng.permutation(np.resize(REQUEST_SIZES, SERVE_POOL))
    pool = []
    for n in sizes.tolist():
        picks = rng.integers(len(candidates), size=n)
        noise = np.round(rng.uniform(-0.05, 0.05, (n, rows.shape[1])), 3)
        queries = candidates[picks] + noise
        queries[picks == len(rows)] = 0.0
        body = json.dumps({"queries": queries.tolist()}).encode()
        pool.append((body, queries))
    return pool


class Server:
    """``python -m repro diagnose serve`` in its own process (or the
    traced launcher ``serve.py`` around the same command line)."""

    def __init__(self, run: Run, dictionary: Path,
                 traced: bool) -> None:
        self.spans_out = run.path("spans") if traced else None
        cli = ["diagnose", "serve", "--dictionary",
               f"bench={dictionary}", "--db", str(run.path("db")),
               "--port", "0"]
        if traced:
            argv = [sys.executable, str(BENCH / "serve.py"),
                    str(self.spans_out), run.run_id] + cli
        else:
            argv = [sys.executable, "-m", "repro"] + cli
        self.child = Watched(argv, run.env, run.dir / "children.log",
                             stderr_pipe=True, interval=None)
        self.stderr: List[str] = []
        self._port = threading.Event()
        self.port = 0
        threading.Thread(target=self._read_stderr, daemon=True).start()
        if not self._port.wait(60):
            self.child.kill()
            raise BenchError("server did not start:\n"
                             + "".join(self.stderr))
        deadline = time.monotonic() + 60
        while not self._healthy():
            if time.monotonic() > deadline or \
                    self.child.proc.poll() is not None:
                self.child.kill()
                raise BenchError("server never became healthy:\n"
                                 + "".join(self.stderr))
            time.sleep(0.01)
        self.ready_s = time.monotonic() - self.child.spawned

    def _healthy(self) -> bool:
        conn = http.client.HTTPConnection("127.0.0.1", self.port,
                                          timeout=5)
        try:
            conn.request("GET", "/v1/health")
            return conn.getresponse().status == 200
        except (OSError, http.client.HTTPException):
            return False
        finally:
            conn.close()

    def _read_stderr(self) -> None:
        for raw in self.child.proc.stderr:
            line = raw.decode(errors="replace")
            self.stderr.append(line)
            found = re.search(r"http://[\d.]+:(\d+)", line)
            if found and not self._port.is_set():
                self.port = int(found.group(1))
                self._port.set()

    def stop(self) -> Dict:
        self.child.sample_once()
        self.child.proc.send_signal(signal.SIGINT)
        if self.child.wait(30) != 0:
            raise BenchError("server exited with an error:\n"
                             + "".join(self.stderr))
        out = {"peak_rss_mb": self.child.peak_rss_mb(),
               "stderr": list(self.stderr)}
        if self.spans_out is not None:
            out.update(json.loads(self.spans_out.read_text()))
        return out


def closed_loop(run: Run, port: int, pool, connections: int) -> Dict:
    """``connections`` keep-alive clients, each sending its next
    request when the previous reply arrived."""
    counter = itertools.count()
    lock = threading.Lock()
    records = []
    kept: Dict[int, tuple] = {}
    failure: List[str] = []  # the first failed reply, for the report
    import numpy as np
    sample = set(np.random.default_rng(run.seed + 1).choice(
        len(pool), size=min(SERVE_SAMPLE, len(pool)), replace=False)
        .tolist())
    started = time.monotonic()
    hard_stop = started + max(60.0, 3 * run.seconds)

    def client() -> None:
        conn = http.client.HTTPConnection("127.0.0.1", port,
                                          timeout=REQUEST_TIMEOUT)
        headers = {"Content-Type": "application/json"}
        while True:
            with lock:
                i = next(counter)
            now = time.monotonic()
            if now > hard_stop or (now - started >= run.seconds and
                                   i >= run.size["min_requests"]):
                break
            body = pool[i % len(pool)][0]
            sent = time.monotonic()
            try:
                conn.request("POST", "/v1/diagnose", body, headers)
                reply = conn.getresponse()
                status, data = reply.status, reply.read()
            except (OSError, http.client.HTTPException) as exc:
                # a failed request: recorded, then a new connection
                status, data = 0, repr(exc).encode()
                conn.close()
                conn = http.client.HTTPConnection(
                    "127.0.0.1", port, timeout=REQUEST_TIMEOUT)
            done = time.monotonic()
            with lock:
                records.append((i, sent, done, status,
                                data.count(b'"verdict"')))
                if i in sample:
                    kept[i] = (status, data)
                if status != 200 and not failure:
                    failure.append(f"status {status}: {data[:400]!r}")
        conn.close()

    threads = [threading.Thread(target=client)
               for _ in range(connections)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return {"records": records, "kept": kept, "started": started,
            "failure": failure}


def serve_phase(run: Run, dictionary_path: Path, dictionary, pool,
                traced: bool) -> Dict:
    server = Server(run, dictionary_path, traced)
    connections = min(2, os.cpu_count() or 1)
    try:
        load = closed_loop(run, server.port, pool, connections)
    finally:
        served = server.stop()
    records = load["records"]
    run.attempted += len(records)
    bad = [r for r in records
           if r[3] != 200 or r[4] != len(pool[r[0] % len(pool)][1])]
    if bad:
        statuses = sorted({r[3] for r in bad})
        run.fail(f"{len(bad)} requests failed or answered the wrong "
                 f"number of queries (statuses {statuses}; first "
                 f"failure {load['failure'][:1]}); server stderr:\n"
                 + "".join(served["stderr"][-20:]), count=len(bad))
    from repro.diagnosis.match import DictionaryMatcher
    matcher = DictionaryMatcher(dictionary)
    everyone = DictionaryMatcher(dictionary, top_k=len(dictionary))

    def ranked(query):
        return lambda: {c.label: c.to_dict() for c in
                        everyone.diagnose(query).candidates}

    wrong = []
    for i, (status, data) in load["kept"].items():
        if status != 200:
            continue  # already counted above
        queries = pool[i][1]
        want = [d.to_dict() for d in matcher.diagnose_batch(queries)]
        try:
            got = json.loads(data)["diagnoses"]
            same = len(got) == len(want) and all(
                _same_diagnosis(g, w, ranked(q))
                for g, w, q in zip(got, want, queries))
        except (ValueError, KeyError, TypeError):
            same = False  # a malformed reply is a wrong answer
        if not same:
            wrong.append(i)
    if wrong:
        run.fail(f"{len(wrong)} of {len(load['kept'])} checked replies "
                 f"differ from the in-process matcher (first: request "
                 f"{wrong[0]}, reply "
                 f"{load['kept'][wrong[0]][1][:400]!r})",
                 count=len(wrong))

    finish = sorted(r[2] for r in records)
    lat = [1e3 * (r[2] - r[1]) for r in records]
    blocks, prev = [], load["started"]
    for k in range(SERVE_BLOCK - 1, len(finish), SERVE_BLOCK):
        blocks.append(finish[k] - prev)
        prev = finish[k]
    window = finish[-1] - load["started"]
    queries = sum(len(pool[r[0] % len(pool)][1]) for r in records)
    return {
        "metrics": {
            "wall_s": median(blocks) if blocks else window,
            "qps": queries / window,
            "latency_p50_ms": median(lat),
            "latency_p99_ms": percentile(lat, 99),
            "peak_rss_mb": served["peak_rss_mb"],
        },
        "ready_s": server.ready_s, "served": served, "records": records,
        "window": (load["started"], finish[-1]), "latencies": lat,
        "queries": queries,
    }


def diagnose_serve(run: Run) -> Dict:
    from repro.diagnosis.dictionary import FaultDictionary
    dictionary_path = run.path("dictionary")
    fill = run.campaign(run.path("store"), compile_to=dictionary_path)
    check_campaign(run, fill, "dictionary campaign")
    dictionary = FaultDictionary.load(dictionary_path)
    pool = serve_requests(dictionary, run.seed)
    phase = serve_phase(run, dictionary_path, dictionary, pool, False)
    metrics = phase["metrics"]
    setup = fill["setup_s"] + fill["wall"] + fill["compile_s"]
    metrics["setup_s"] = setup + phase["ready_s"]
    result = {"metrics": metrics, "ops": len(phase["records"])}
    if run.trace:
        traced = serve_phase(run, dictionary_path, dictionary, pool,
                             True)
        served = traced["served"]
        st = spans.self_times(served["spans"])
        match_s = st.get("diagnosis.match", 0.0)
        wait_s = st.get("diagnosis.batch", 0.0)
        db_s = st.get("diagnosis.db", 0.0)
        batches = sum(1 for s in served["spans"]
                      if s["name"] == "diagnosis.match")
        requests = len(traced["records"])
        lo, hi = traced["window"]
        cov = spans.covered(served["spans"], lo, hi)
        result["layers"] = {
            "diagnosis.match_s": match_s,
            "diagnosis.batch_wait_s": wait_s,
            "diagnosis.db_s": db_s,
            "diagnosis.http_s": (sum(traced["latencies"]) / 1e3
                                 - match_s - wait_s - db_s),
            "diagnosis.requests": requests,
            "diagnosis.batches": batches,
            "diagnosis.queries": traced["queries"],
            "diagnosis.coalesce_ratio": requests / max(1, batches),
            "diagnosis.compile_s": fill["compile_s"],
            "diagnosis.server_ready_s": phase["ready_s"],
            "trace.unattributed_s": (hi - lo) - cov,
            "trace.coverage": cov / (hi - lo),
            "trace.overhead_s": (traced["metrics"]["wall_s"]
                                 - metrics["wall_s"]),
        }
        result["spans"] = served["spans"]
    return result


RUNNERS = {
    "campaign_cold": campaign_cold,
    "campaign_warm": campaign_warm,
    "diagnose_serve": diagnose_serve,
    "fullchip_march": fullchip_march,
}


# ---------------------------------------------------------------------------
# reporting


def host_info() -> Dict:
    info = {"nproc": os.cpu_count(), "loadavg": os.getloadavg()[0],
            "python": platform.python_version()}
    for module in ("numpy", "scipy"):
        try:
            info[module] = __import__(module).__version__
        except ImportError:
            info[module] = None
    return info


def report(run: Run, host: Dict, result: Dict) -> Dict:
    table = PER_LAYER if run.trace else END_TO_END
    values = result.get("layers", {}) if run.trace else result["metrics"]
    metrics = {}
    for name, unit, better in table:
        value = float(values.get(name, 0.0))
        metrics[name] = {"value": value, "unit": unit}
        print(f"{name:<32} {value:>16.6f} {unit:<10} {better}")
    error_rate = run.failed / max(1, run.attempted)
    print(f"{'error_rate':<32} {error_rate:>16.6f} {'fraction':<10} "
          f"lower  ({run.failed} failed of {run.attempted})")
    for problem in run.problems:
        print(f"CHECK FAILED: {problem}")
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    saved = {"workload": run.workload, "seed": run.seed,
             "seconds": run.seconds, "trace": run.trace, "host": host,
             "operations": result["ops"], "metrics": metrics,
             "attempted": run.attempted, "failed": run.failed,
             "problems": run.problems}
    out = WORK / "out"
    out.mkdir(parents=True, exist_ok=True)
    tag = f"{run.workload}-{run.seed}-trace{int(run.trace)}"
    (out / f"result-{tag}.json").write_text(json.dumps(saved, indent=1))
    if run.trace and "spans" in result:
        keep = [{k: s[k] for k in ("id", "name", "start", "end",
                                   "parent", "run_id")}
                for s in result["spans"]]
        path = out / f"spans-{run.workload}-{run.seed}.json"
        path.write_text(json.dumps(keep))
        print(spans.self_time_table(result["spans"]))
        print(f"spans written to {path.relative_to(ROOT)}")
    return {"correct": not run.problems, "attempted": run.attempted,
            "failed": run.failed, "metrics": metrics}


def record_golden() -> int:
    """Recompute golden.json for GOLDEN_SEEDS at the full size."""
    golden = {"campaign": {}, "fullchip": {}}
    for seed in GOLDEN_SEEDS:
        run = Run("golden", seed, 0, False, "full")
        try:
            op = run.campaign(run.path("store"))
            golden["campaign"][str(seed)] = {
                "digest": op["digest"], "coverage": op["coverage"]}
            op = run.fullchip()
            golden["fullchip"][str(seed)] = {
                "vin": fullchip_vin(seed), "code": op["code"],
                "final_nodes": op["final_nodes"],
                "final_norm": op["final_norm"]}
        finally:
            run.cleanup()
    GOLDEN.write_text(json.dumps(golden, indent=1) + "\n")
    print(f"wrote {GOLDEN.relative_to(ROOT)}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=tuple(SIZES), default="full")
    parser.add_argument("--record-golden", action="store_true")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program source at {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    if args.record_golden:
        return record_golden()
    if args.workload is None:
        parser.error("--workload is required")

    host = host_info()
    print("host: " + json.dumps(host))
    run = Run(args.workload, args.seed, args.seconds, bool(args.trace),
              args.size)
    try:
        result = RUNNERS[args.workload](run)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        run.cleanup()
    summary = report(run, host, result)
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
