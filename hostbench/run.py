"""Host-throughput benchmark of the simulator, one workload per process.

    python3 hostbench/run.py --workload nfs-hit --seed 1 --seconds 20 --trace 0

Runs the named workload (see ``hostbench/README.md``) in this process,
single-threaded, against the ``repro`` package in this checkout's
``src/``.  A *repetition* builds the testbed from its spec, sets it up,
warms it, runs a warm-up window and then a timed window of fixed
simulated length.  Repetitions repeat until ``--seconds`` of host time
have passed (at least one per sub-seed, see :data:`SUBSEEDS`).  The
timed window runs as :data:`SLICES` equal spans of simulated time, each
timed on its own right after a call of the reference loop in
``pace.py``.  ``host_ops_per_s`` adds up, for every span, the fastest
paced host time any repetition of the same sub-seed took for it (see
:func:`best_window_rate`).  ``setup_s`` is the median over the sub-seeds
of each one's fastest paced set-up; the per-layer host times are
unpaced medians over the repetitions.  Every repetition must reproduce
the simulated results of the first one with its sub-seed exactly, or
the run fails.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
plain repetitions with traced ones (wrappers from ``layers.py`` on every
layer's entry points) and prints the per-layer metrics, including the
tracing overhead.  ``--slow LAYER:MICROSECONDS`` busy-waits on every
call into one layer, for the sensitivity check in ``check.py``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it carries provenance and details.  Spans of traced repetitions are
written to ``.hostbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from pace import NOMINAL_S, pace

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".hostbench"

#: Repetition ``i`` runs the workload with sub-seed ``seed * SUBSEEDS +
#: i % SUBSEEDS``, and the simulated results are pooled over the
#: sub-seeds: one seed's file set and access order would otherwise move
#: the simulated metrics by several percent between seeds.  Every
#: sub-seed runs at least once, plain and (with ``--trace 1``) traced.
SUBSEEDS = 4
#: The timed window runs as this many equal spans of simulated time.
#: A span takes 20-30 ms of host time, shorter than the stretches in
#: which a shared host runs this process at half speed.
SLICES = 100
#: :func:`pace` calls before and after the set-up; their median paces it.
PACE_SETUP = 5
#: Hard cap on one run, in host seconds.
MAX_RUN_S = 120.0

#: Simulated results that add up over sub-seeds; the rest are averaged.
POOLED_SUMS = ("ops", "bytes", "window_sim_s", "latency_samples",
               "dispatches", "backend_reads", "backend_writes",
               "ncache_lookups", "ncache_hits", "substituted_replies",
               "bcache_lookups", "bcache_hits", "kernel_lookups",
               "kernel_hits", "evictions", "physical_bytes", "peer_probes",
               "peer_hits")

#: The end-to-end metrics (``--trace 0``) and their units.
END_TO_END = {
    "host_ops_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "sim_ops_per_s": "1/s",
    "sim_mb_per_s": "MB/s",
}


def import_repro() -> None:
    """Import ``repro`` from this checkout's ``src/``, never elsewhere."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"hostbench: no repro package under {SRC}; run from a "
                 f"checkout of the repository")
    sys.path.insert(0, str(SRC))
    import repro
    origin = Path(repro.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        sys.exit(f"hostbench: imported repro from {origin}, not from "
                 f"{SRC}; refusing to measure an installed copy")


def _git(*args: str) -> Optional[str]:
    try:
        done = subprocess.run(["git", "-C", str(ROOT), *args],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def provenance(seed: int) -> Dict[str, Any]:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    # Only this checkout's own repository counts, not one around it.
    top = _git("rev-parse", "--show-toplevel")
    in_repo = top is not None and Path(top).resolve() == ROOT
    commit = _git("rev-parse", "HEAD") if in_repo else None
    status = _git("status", "--porcelain", "--", "src") if commit else None
    return {"commit": commit or "unknown",
            "dirty": bool(status) if commit else None,
            "src_sha256": digest.hexdigest(),
            "seed": seed,
            "python": platform.python_version(),
            "nproc": os.cpu_count()}


def fingerprint(values: Dict[str, Any]) -> str:
    return hashlib.sha256(
        json.dumps(values, sort_keys=True).encode()).hexdigest()[:16]


class Rep:
    """What one repetition measured."""

    def __init__(self, subseed: int) -> None:
        self.subseed = subseed
        self.setup: Dict[str, float] = {}
        self.window_s = 0.0
        self.slice_s: List[float] = []
        self.pace_s: List[float] = []
        self.ops = 0
        self.model: Dict[str, Any] = {}
        self.layer_counts: Dict[str, Any] = {}
        self.self_ns: Dict[str, int] = {}
        self.entries: List[Dict[str, Any]] = []
        self.spans: List[Dict[str, Any]] = []
        self.checked = 0
        self.mismatched = 0
        self.peak_rss_mb = 0.0
        self.error: Optional[str] = None


def run_rep(cls: type, seed: int, tracer: Any, write_log: Any,
            dispatch_count: Any, errors: Tuple[type, ...]) -> Rep:
    """Build, set up, warm and time one repetition of a workload."""
    rep = Rep(seed)
    clock = time.perf_counter
    gc.collect()
    if tracer is not None:
        tracer.install()
    try:
        if write_log is not None:
            write_log.writes.clear()
            scenario = cls(seed, write_log)
        else:
            scenario = cls(seed)
        pace0 = statistics.median(pace() for _ in range(PACE_SETUP))
        t0 = clock()
        scenario.build()
        t1 = clock()
        scenario.warm()
        t2 = clock()
        scenario.warmup_window()
        t3 = clock()
        pace1 = statistics.median(pace() for _ in range(PACE_SETUP))
        if tracer is not None:
            tracer.reset()
        dispatches0 = dispatch_count()
        rep.slice_s, rep.pace_s = scenario.timed_window(SLICES, clock,
                                                        pace)
        rep.window_s = sum(rep.slice_s)
        dispatches = dispatch_count() - dispatches0
        rep.setup = {"build_s": t1 - t0, "warm_s": t2 - t1,
                     "warmup_window_s": t3 - t2, "setup_s": t3 - t0,
                     "paced_setup_s": (t3 - t0) * NOMINAL_S
                     / ((pace0 + pace1) / 2)}
        rep.ops = scenario.ops()
        rep.model = model_results(scenario, dispatches)
        if tracer is not None:
            rep.layer_counts = layer_counts(tracer)
            rep.self_ns = tracer.layer_self_ns()
            rep.entries = tracer.entry_table()
            rep.spans = tracer.spans()
            tracer.remove()
        rep.checked, rep.mismatched = scenario.read_back()
        rep.peak_rss_mb = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0
    except errors as exc:  # an operation escaped the model
        rep.error = f"{type(exc).__name__}: {exc}"
    finally:
        if tracer is not None:
            tracer.remove()
    return rep


def model_results(scenario: Any, dispatches: int) -> Dict[str, Any]:
    """Everything the simulation computed in the window (exact)."""
    ops = scenario.ops()
    latency = scenario.latency()
    reads, writes = scenario.backend()
    c = scenario.counter
    lookups = sum(c(f"ncache.{k}") for k in
                  ("lbn_hit", "lbn_miss", "fho_hit", "fho_miss"))
    bcache = c("bcache.hit") + c("bcache.miss")
    kernel_hits = c("cache.bcache.hit") + c("cache.ncache.hit")
    kernel_lookups = kernel_hits + c("cache.bcache.miss") \
        + c("cache.ncache.miss")
    probes = c("fleet.peer_probe")
    return {
        "ops": ops,
        "bytes": scenario.nbytes(),
        "window_sim_s": scenario.window_s,
        "latency_samples": latency.count,
        "latency_p50_s": latency.p50,
        "latency_p99_s": latency.p99,
        "dispatches": dispatches,
        "backend_reads": reads,
        "backend_writes": writes,
        "ncache_lookups": lookups,
        "ncache_hits": c("ncache.lbn_hit") + c("ncache.fho_hit"),
        "substituted_replies": c("ncache.substituted_replies"),
        "bcache_lookups": bcache,
        "bcache_hits": c("bcache.hit"),
        "kernel_lookups": kernel_lookups,
        "kernel_hits": kernel_hits,
        "evictions": sum(c(f"cache.{n}.evict_{k}") for n in
                         ("bcache", "ncache") for k in ("clean", "dirty")),
        "physical_bytes": c("copies.physical_bytes"),
        "peer_probes": probes,
        "peer_hits": c("fleet.peer_hit"),
        "server_cpu_util": scenario.server_cpu_util(),
        "server_nic_util": scenario.nic_util(),
        "disk_util": scenario.disk_util(),
        "counter_check": {
            "ncache.lbn": c("ncache.lbn_hit") + c("ncache.lbn_miss"),
            "ncache.fho": c("ncache.fho_hit") + c("ncache.fho_miss"),
            "bcache": bcache,
            "fleet.peer_probe": probes,
            "ops": ops,
        },
    }


def layer_counts(tracer: Any) -> Dict[str, Any]:
    """Wrapped-call counts in the window, next to the program's own
    counters for the same boundaries."""
    calls = tracer.layer_calls
    counts = {layer: calls(layer) for layer in
              ("sim", "workloads", "net", "nfs", "http", "core", "cache",
               "fs", "iscsi", "copymodel", "fleet", "obs")}
    counts.update({
        "net.rx": calls("net", ["NetworkStack.receive"]),
        "net.tx": calls("net", ["NIC.send"]),
        "fs.vfs": sum(tracer.calls[i] for i, e in enumerate(tracer.entries)
                      if e.owner.__name__ == "VFS"),
        "obs.emits": calls("obs", ["TraceBus.emit", "TraceBus.complete"]),
        "sim.processes": tracer.counted["sim.processes"],
    })
    counts["checks"] = {
        "ncache.lbn": calls("core", ["NCacheStore.lookup_lbn"]),
        "ncache.fho": calls("core", ["NCacheStore.lookup_fho"]),
        "bcache": calls("fs", ["BufferCache.lookup"]),
        "fleet.peer_probe": calls("fleet", ["PeerCacheClient._fetch_one"]),
        "ops": calls("nfs", ["NfsClient.call"], completed=True)
        + calls("http", ["HttpClient.get"], completed=True),
    }
    return counts


def first_per_subseed(reps: List[Rep]) -> List[Rep]:
    seen: Dict[int, Rep] = {}
    for rep in reps:
        seen.setdefault(rep.subseed, rep)
    return list(seen.values())


def pool_models(reps: List[Rep]) -> Dict[str, Any]:
    """Simulated results pooled over one repetition per sub-seed."""
    models = [r.model for r in first_per_subseed(reps)]
    return {key: (sum(m[key] for m in models) if key in POOLED_SUMS
                  else statistics.fmean(m[key] for m in models))
            for key in models[0] if key != "counter_check"}


def pool_counts(reps: List[Rep]) -> Dict[str, int]:
    counts = [r.layer_counts for r in first_per_subseed(reps)]
    return {key: sum(c[key] for c in counts)
            for key in counts[0] if key != "checks"}


def per_op(value: float, ops: int) -> float:
    return value / ops if ops else 0.0


def ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def by_subseed(reps: List[Rep]) -> Dict[int, List[Rep]]:
    groups: Dict[int, List[Rep]] = {}
    for rep in reps:
        groups.setdefault(rep.subseed, []).append(rep)
    return groups


def best_window_rate(reps: List[Rep], paced: bool = True) -> float:
    """Window requests per host-second, with each span of the window
    taken at its fastest over the repetitions of its sub-seed.

    Repetitions of one sub-seed do the same work span by span (their
    simulated results are checked to match), so the fastest time of a
    span is the one least slowed by whatever else shared the host while
    it ran.  With ``paced``, a span's time is first divided by the time
    of the :func:`pace` call right before it, which takes out slow
    stretches that last the whole run, and scaled by
    :data:`pace.NOMINAL_S`."""
    ops = 0
    seconds = 0.0
    for group in by_subseed(reps).values():
        ops += group[0].ops
        for times, paces in zip(zip(*(r.slice_s for r in group)),
                                zip(*(r.pace_s for r in group))):
            if paced:
                seconds += NOMINAL_S * min(
                    t / p for t, p in zip(times, paces))
            else:
                seconds += min(times)
    return ops / seconds


def end_to_end_metrics(plain: List[Rep]) -> Dict[str, float]:
    model = pool_models(plain)
    window = model["window_sim_s"]
    return {
        "host_ops_per_s": best_window_rate(plain),
        "setup_s": statistics.median(
            min(r.setup["paced_setup_s"] for r in group)
            for group in by_subseed(plain).values()),
        # The first repetition's high-water mark: later ones run in a
        # heap that earlier testbeds have fragmented, and how many there
        # are depends on host speed.
        "peak_rss_mb": plain[0].peak_rss_mb,
        "sim_ops_per_s": model["ops"] / window,
        "sim_mb_per_s": model["bytes"] / window / (1 << 20),
    }


def per_layer_metrics(plain: List[Rep], traced: List[Rep]
                      ) -> Dict[str, Tuple[float, str]]:
    m = pool_models(plain)
    ops = m["ops"]
    counts = pool_counts(traced)

    def self_us(layer: str) -> float:
        return statistics.median(r.self_ns.get(layer, 0) / 1e3 / r.ops
                                 for r in traced)

    plain_us = statistics.median(r.window_s * 1e6 / r.ops for r in plain)
    traced_us = statistics.median(r.window_s * 1e6 / r.ops for r in traced)
    unattributed = statistics.median(
        (r.window_s * 1e9 - sum(r.self_ns.values())) / 1e3 / r.ops
        for r in traced)
    out: Dict[str, Tuple[float, str]] = {
        "sim.self_us_per_op": (self_us("sim"), "us"),
        "sim.dispatches_per_op": (per_op(m["dispatches"], ops), "count"),
        "sim.processes_per_op": (per_op(counts["sim.processes"], ops),
                                 "count"),
        "sim.latency_p50_ms": (m["latency_p50_s"] * 1e3, "ms"),
        "sim.latency_p99_ms": (m["latency_p99_s"] * 1e3, "ms"),
        "sim.latency_samples": (m["latency_samples"], "count"),
        "net.self_us_per_op": (self_us("net"), "us"),
        "net.rx_per_op": (per_op(counts["net.rx"], ops), "count"),
        "net.tx_per_op": (per_op(counts["net.tx"], ops), "count"),
        "net.server_nic_util": (m["server_nic_util"], "ratio"),
        "nfs.self_us_per_op": (self_us("nfs"), "us"),
        "nfs.calls_per_op": (per_op(counts["nfs"], ops), "count"),
        "http.self_us_per_op": (self_us("http"), "us"),
        "http.calls_per_op": (per_op(counts["http"], ops), "count"),
        "core.self_us_per_op": (self_us("core"), "us"),
        "core.calls_per_op": (per_op(counts["core"], ops), "count"),
        "core.substitutions_per_op": (per_op(m["substituted_replies"], ops),
                                      "count"),
        "core.hit_ratio": (ratio(m["ncache_hits"], m["ncache_lookups"]),
                           "ratio"),
        "cache.self_us_per_op": (self_us("cache"), "us"),
        "cache.calls_per_op": (per_op(counts["cache"], ops), "count"),
        "cache.evictions_per_op": (per_op(m["evictions"], ops), "count"),
        "cache.hit_ratio": (ratio(m["kernel_hits"], m["kernel_lookups"]),
                            "ratio"),
        "fs.self_us_per_op": (self_us("fs"), "us"),
        "fs.calls_per_op": (per_op(counts["fs.vfs"], ops), "count"),
        "fs.bcache_hit_ratio": (ratio(m["bcache_hits"], m["bcache_lookups"]),
                                "ratio"),
        "fs.disk_util": (m["disk_util"], "ratio"),
        "iscsi.self_us_per_op": (self_us("iscsi"), "us"),
        "iscsi.reads_per_op": (per_op(m["backend_reads"], ops), "count"),
        "iscsi.writes_per_op": (per_op(m["backend_writes"], ops), "count"),
        "backend_reads_per_kop": (1000.0 * per_op(m["backend_reads"], ops),
                                  "count"),
        "copymodel.self_us_per_op": (self_us("copymodel"), "us"),
        "copymodel.physical_bytes_per_op": (per_op(m["physical_bytes"], ops),
                                            "bytes"),
        "copymodel.server_cpu_util": (m["server_cpu_util"], "ratio"),
        "fleet.self_us_per_op": (self_us("fleet"), "us"),
        "fleet.peer_probes_per_op": (per_op(m["peer_probes"], ops), "count"),
        "fleet.peer_hit_ratio": (ratio(m["peer_hits"], m["peer_probes"]),
                                 "ratio"),
        "obs.self_us_per_op": (self_us("obs"), "us"),
        "obs.emits_per_op": (per_op(counts["obs.emits"], ops), "count"),
        "workloads.self_us_per_op": (self_us("workloads"), "us"),
        "trace.unattributed_us_per_op": (unattributed, "us"),
        "trace.overhead_ratio": (traced_us / plain_us, "ratio"),
    }
    for phase in ("build_s", "warm_s", "warmup_window_s"):
        out[f"setup.{phase}"] = (statistics.median(
            r.setup[phase] for r in plain), "s")
    return out


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--slow", default=None, metavar="LAYER:US",
                        help="busy-wait US microseconds on every call "
                             "into LAYER (sensitivity check)")
    args = parser.parse_args(argv)

    import_repro()
    from layers import LAYERS, Tracer
    from scenarios import SCENARIOS, Outcomes, WriteLog
    from repro.cache.kernel import CacheStallError
    from repro.sim.engine import SimulationError, dispatch_count

    if args.workload not in SCENARIOS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(SCENARIOS)}")
    cls = SCENARIOS[args.workload]
    slow_layer, _, delay = (args.slow or "").partition(":")
    if args.slow and slow_layer not in LAYERS:
        parser.error(f"unknown layer {slow_layer!r}")
    outcomes = Outcomes()
    outcomes.install()
    write_log = WriteLog() if args.workload == "sfs-mix" else None
    if write_log is not None:
        write_log.install()
    # Built after the correctness hooks so its originals include them.
    slow = Tracer([slow_layer], timed=False, delay_us=float(delay)) \
        if args.slow else None
    errors = (SimulationError, CacheStallError)

    plain: List[Rep] = []
    traced: List[Rep] = []
    tracer = Tracer(list(LAYERS)) if args.trace else None
    started = time.perf_counter()
    failed_reps: List[str] = []
    while True:
        elapsed = time.perf_counter() - started
        enough = len(plain) >= SUBSEEDS and \
            (tracer is None or len(traced) >= SUBSEEDS)
        if (enough and elapsed >= args.seconds) or elapsed > MAX_RUN_S:
            break
        use_tracer = tracer is not None and len(traced) < len(plain)
        done = len(traced if use_tracer else plain)
        subseed = args.seed * SUBSEEDS + done % SUBSEEDS
        rep = run_rep(cls, subseed, tracer if use_tracer else slow,
                      write_log, dispatch_count, errors)
        if rep.error is not None:
            failed_reps.append(rep.error)
            break
        if use_tracer and traced:
            traced[-1].spans = []  # only the last traced spans are kept
        (traced if use_tracer else plain).append(rep)
    outcomes.remove()
    if write_log is not None:
        write_log.remove()

    problems: List[str] = list(failed_reps)
    reps = plain + traced
    models = {r.subseed: fingerprint(r.model)
              for r in first_per_subseed(reps)}
    for rep in reps:
        if fingerprint(rep.model) != models[rep.subseed]:
            problems.append(f"sub-seed {rep.subseed} simulated different "
                            f"results in two repetitions")
    layers = {r.subseed: fingerprint(r.layer_counts)
              for r in first_per_subseed(traced)}
    for rep in traced:
        if fingerprint(rep.layer_counts) != layers[rep.subseed]:
            problems.append(f"sub-seed {rep.subseed} counted different "
                            f"layer calls in two traced repetitions")
        checks = rep.layer_counts["checks"]
        for name, expected in rep.model["counter_check"].items():
            if checks[name] != expected:
                problems.append(f"wrapped calls {name}={checks[name]} "
                                f"but the program counted {expected}")
    attempted = sum(r.ops + r.checked for r in reps) + len(failed_reps)
    failed = sum(r.mismatched for r in reps) + outcomes.error_replies \
        + len(failed_reps)
    correct = not problems and failed == 0 and bool(plain)

    metrics: Dict[str, Dict[str, float]] = {}
    details: Dict[str, Any] = {"workload": args.workload,
                               "provenance": provenance(args.seed),
                               "problems": problems}
    if plain and (tracer is None or traced):
        details.update({
            "repetitions": {"plain": len(plain), "traced": len(traced)},
            "host_ops_per_s_reps": [round(r.ops / r.window_s, 1)
                                    for r in plain],
            "host_ops_per_s_unpaced": best_window_rate(plain, paced=False),
            "pace_ms_median": statistics.median(
                p for r in plain for p in r.pace_s) * 1e3,
            "model": pool_models(plain),
            "model_fingerprint": fingerprint(
                [models[k] for k in sorted(models)]),
        })
        if slow is not None:
            details["slow"] = {
                "layer": slow_layer, "delay_us": float(delay),
                "calls_per_op": per_op(
                    sum(r.layer_counts[slow_layer] for r in plain),
                    sum(r.ops for r in plain))}
        if tracer is None:
            for name, value in end_to_end_metrics(plain).items():
                metrics[name] = {"value": value, "unit": END_TO_END[name]}
        else:
            for name, (value, unit) in per_layer_metrics(plain,
                                                         traced).items():
                metrics[name] = {"value": value, "unit": unit}
            details["layer_fingerprint"] = fingerprint(
                [layers[k] for k in sorted(layers)])
            details["entries"] = traced[-1].entries
            details["missing_entries"] = tracer.missing
            OUT_DIR.mkdir(exist_ok=True)
            out = OUT_DIR / f"trace-{args.workload}-{args.seed}.json"
            out.write_text(json.dumps({"entries": traced[-1].entries,
                                       "spans": traced[-1].spans}))
            details["spans_file"] = str(out.relative_to(ROOT))
    print(json.dumps(details, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
