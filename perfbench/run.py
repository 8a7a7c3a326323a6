#!/usr/bin/env python3
"""Repo benchmark: end-to-end and per-layer metrics of the distributed JVM
profiler on three workloads.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
                             [--size full|tiny]

Run from the root of a checkout.  The script builds perfbench/ (which
compiles ../src) with CMake into $CARGO_TARGET_DIR, or .bench_build when that
is unset, runs the perfbench binary for one workload, checks its outputs and
prints one JSON object as the last line of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer metrics
derived from the span file of a traced run.  `attempted` and `failed` count
epochs; error_rate = failed / attempted.  `--seed heldout` selects the seed
kept out of sizing (HELD_OUT_SEED).  See perfbench/README.md.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("nbody_governed", "serving_tenants", "shared_fold")
HELD_OUT_SEED = 7349
# Host timings are taken over the fastest tenth of a run's timed episodes
# (by window time), at least MIN_FAST_EPISODES of them, and scaled to the
# reference host speed.  Every episode of a seed does bit-identical work, but
# a shared host can swing, in phases of seconds, between an undisturbed speed
# and a contended one well below it, and whole runs can fall in a slow phase.
# The fast tenth drops the slow phases within a run; the calibration loop the
# binary runs before each episode (the same fixed work every time, none of it
# the library's) measures the phase the fast episodes ran in, and every host
# timing is multiplied by REFERENCE_PROBE_S / (their median loop time).  A
# slower program slows every episode and leaves the loop alone, so it shows
# in full.  See perfbench/README.md, "Steadiness".
FAST_FRACTION = 0.1
MIN_FAST_EPISODES = 3
# The calibration loop's time on an undisturbed reference host (4-core
# x86_64 VM, Xeon, 2.0 GHz): host timings are reported at that speed.
REFERENCE_PROBE_S = 0.011
# The first episode of a run warms caches and the allocator; host timings
# skip it (its deterministic outputs are still checked).
WARMUP_EPISODES = 1
# Host seconds a run may spend after its measuring budget (checks, oracle
# replays) before the benchmark gives up on it.
CHECK_ALLOWANCE_S = 120

END_TO_END_UNITS = {
    "setup_s": "s",
    "accesses_per_s": "accesses/s",
    "epoch_ms_p50": "ms",
    "epoch_ms_tail": "ms",
    "peak_rss_mb": "MiB",
    "sim_makespan_s": "sim_s",
    "sim_overhead_pct": "%",
    "tcm_accuracy": "fraction",
    "success_rate": "fraction",
}

PER_LAYER_UNITS = {
    "dsm.step_s": "s",
    "dsm.ns_per_access": "ns/access",
    "dsm.accesses": "count",
    "dsm.object_faults": "count",
    "dsm.local_hit_ratio": "fraction",
    "dsm.diffs_sent": "count",
    "dsm.intervals_closed": "count",
    "profiling.oal_entries": "count",
    "profiling.log_ratio": "entries/access",
    "stackprof.stack_samples": "count",
    "sticky.footprint_touches": "count",
    "profiling.pump_s": "s",
    "profiling.pump_ns_per_entry": "ns/entry",
    "profiling.ring_published": "count",
    "profiling.ring_backpressure": "count",
    "profiling.ring_dropped": "count",
    "core.epoch_self_s": "s",
    "profiling.densify_s": "s",
    "profiling.build_s": "s",
    "profiling.retained_objects": "count",
    "profiling.retained_readers": "count",
    "profiling.map_mass_ratio": "ratio",
    "profiling.accuracy_min": "fraction",
    "governor.tighten": "count",
    "governor.backoff": "count",
    "governor.converge": "count",
    "governor.rate_changes": "count",
    "governor.resampled_objects": "count",
    "balance.suggestions": "count",
    "migration.executed": "count",
    "migration.deferred": "count",
    "migration.prefetched_bytes": "bytes",
    "migration.homes_migrated": "count",
    "migration.host_s": "s",
    "net.bytes_object_data": "bytes",
    "net.bytes_oal": "bytes",
    "net.bytes_control": "bytes",
    "net.bytes_migration": "bytes",
    "export.snapshots_submitted": "count",
    "export.snapshots_coalesced": "count",
    "export.lines_appended": "count",
    "export.append_writes": "count",
    "export.flush_s": "s",
    "cluster.round_s": "s",
    "cluster.arbiter_s": "s",
    "cluster.borrow_rounds": "count",
    "setup.vm_s": "s",
    "setup.build_s": "s",
    "runtime.objects": "count",
    "runtime.makespan_max_s": "sim_s",
    "trace.coverage_pct": "%",
    "trace.overhead_pct": "%",
}

# Spans whose self times must cover the traced wall time.
COVERED_SPANS = ("setup", "dsm.step", "profiling.pump", "core.run_epoch",
                 "cluster.round")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True,
                   help="workload seed (an integer, or 'heldout')")
    p.add_argument("--seconds", required=True, type=float,
                   help="host seconds of episodes to measure")
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    p.add_argument("--size", default="full", choices=("full", "tiny"),
                   help="tiny is a seconds-scale smoke size, not a measurement")
    args = p.parse_args(argv)
    if args.seed == "heldout":
        args.seed = HELD_OUT_SEED
    else:
        try:
            args.seed = int(args.seed)
        except ValueError:
            p.error(f"--seed must be an integer or 'heldout', not {args.seed!r}")
        if args.seed < 0:
            p.error("--seed must be non-negative")
    if args.seconds < 0:
        p.error("--seconds must be non-negative")
    return args


# --- build -------------------------------------------------------------------

def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build(bdir):
    """Configures (once) and builds perfbench; returns the binary path."""
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        cfg = ["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"]
        subprocess.run(cfg, check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", bdir, "-j", jobs], check=True,
                   stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(bdir, "perfbench")


# --- run metadata ------------------------------------------------------------

def git_revision():
    try:
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                           capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def source_digest():
    """SHA-256 over the library and benchmark sources (a revision stand-in
    for checkouts that are not git repositories)."""
    h = hashlib.sha256()
    for top in ("src", os.path.basename(HERE)):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".cpp", ".hpp", ".py", ".txt", ".md")):
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    return h.hexdigest()


def run_metadata(raw, args):
    return {
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "trace": args.trace,
        "build_type": raw["build_type"],
        "optimized": raw["optimized"],
        "compiler": raw["compiler"],
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "git_revision": git_revision(),
        "source_sha256": source_digest(),
    }


# --- statistics --------------------------------------------------------------

def fast_episodes(episodes):
    """The FAST_FRACTION of `episodes` with the shortest timed window, at
    least MIN_FAST_EPISODES."""
    k = max(MIN_FAST_EPISODES, math.ceil(FAST_FRACTION * len(episodes)))
    return sorted(episodes, key=lambda e: e["window_s"])[:k]


def timed(episodes, traced=False):
    """Episodes whose host timings count (warm-up dropped, when possible)."""
    eps = [e for e in episodes if e["traced"] == traced]
    return eps[WARMUP_EPISODES:] if len(eps) > WARMUP_EPISODES else eps


def end_to_end(raw):
    eps = timed(raw["episodes"])
    # The first two episodes run before the calibration loop first does.
    probed = [e for e in eps if e["probe_s"] > 0]
    fast = fast_episodes(probed)
    first = raw["episodes"][0]
    # > 1 when the fast episodes ran on a host slower than the reference.
    slowdown = statistics.median(e["probe_s"] for e in fast) / REFERENCE_PROBE_S
    measured = {
        "setup_s": statistics.median([e["setup_s"] for e in eps] + raw["extra_setup_s"]),
        "accesses_per_s": statistics.median(e["accesses"] / e["window_s"] for e in fast),
        "epoch_ms_p50": statistics.median(x for e in fast for x in e["epoch_ms"]),
        "epoch_ms_tail": statistics.median(max(e["epoch_ms"]) for e in fast),
    }
    values = {
        "setup_s": measured["setup_s"] / slowdown,
        "accesses_per_s": measured["accesses_per_s"] * slowdown,
        "epoch_ms_p50": measured["epoch_ms_p50"] / slowdown,
        "epoch_ms_tail": measured["epoch_ms_tail"] / slowdown,
        "peak_rss_mb": raw["peak_rss_mb"],
        "sim_makespan_s": first["sim_makespan_s"],
        "sim_overhead_pct": 100.0 * first["profiling_s"] / first["app_s"],
        "tcm_accuracy": raw["tcm_accuracy"],
    }
    epochs = len(first["epoch_ms"])
    notes = [f"host timings over the {len(fast)} fastest of the {len(probed)} timed "
             f"episodes that followed a calibration loop; epoch_ms_p50 over "
             f"their {len(fast) * epochs} epoch samples; epoch_ms_tail is p100 "
             f"of each episode's {epochs} epochs (its slowest), median over "
             f"those {len(fast)} episodes",
             f"host slowdown {slowdown:.4f} (calibration loop "
             f"{1e3 * slowdown * REFERENCE_PROBE_S:.3f} ms, reference "
             f"{1e3 * REFERENCE_PROBE_S:.3f} ms); as measured, before scaling: " +
             ", ".join(f"{k} {v:.6g}" for k, v in measured.items())]
    return values, notes


# --- span file -> per-layer metrics -------------------------------------------

def load_spans(path):
    with open(path, encoding="utf-8") as f:
        return [json.loads(line) for line in f if line.strip()]


def episode_layers(spans, epoch_span):
    """Per-layer metrics of one traced episode's spans."""
    dur = {s["id"]: (s["end_ns"] - s["start_ns"]) * 1e-9 for s in spans}
    child = {}
    for s in spans:
        if s["parent"] >= 0:
            child[s["parent"]] = child.get(s["parent"], 0.0) + dur[s["id"]]
    self_time = {}
    total = {}
    attrs = {}
    for s in spans:
        name = s["name"]
        self_time[name] = self_time.get(name, 0.0) + dur[s["id"]] - child.get(s["id"], 0.0)
        total[name] = total.get(name, 0.0) + dur[s["id"]]
        bucket = attrs.setdefault(name, {})
        for k, v in s["attrs"].items():
            bucket[k] = bucket.get(k, 0.0) + v
    [root] = [s for s in spans if s["name"] == "episode"]
    wall = dur[root["id"]]

    def a(span, key):
        return attrs.get(span, {}).get(key, 0.0)

    last_epoch = max((s for s in spans if s["name"] == epoch_span),
                     key=lambda s: s["epoch"])
    accesses = a("dsm.step", "accesses")
    entries = a("profiling.pump", "entries")
    m = {
        "dsm.step_s": total.get("dsm.step", 0.0),
        "dsm.ns_per_access": total.get("dsm.step", 0.0) * 1e9 / accesses,
        "dsm.accesses": accesses,
        "dsm.object_faults": a("dsm.step", "object_faults"),
        "dsm.local_hit_ratio": 1.0 - a("dsm.step", "object_faults") / accesses,
        "dsm.diffs_sent": a("dsm.step", "diffs_sent"),
        "dsm.intervals_closed": a("dsm.step", "intervals_closed"),
        "profiling.oal_entries": a("dsm.step", "oal_entries"),
        "profiling.log_ratio": a("dsm.step", "oal_entries") / accesses,
        "stackprof.stack_samples": a("dsm.step", "stack_samples"),
        "sticky.footprint_touches": a("dsm.step", "footprint_touches"),
        "profiling.pump_s": total.get("profiling.pump", 0.0),
        "profiling.pump_ns_per_entry":
            total.get("profiling.pump", 0.0) * 1e9 / entries if entries else 0.0,
        "profiling.ring_published": a(epoch_span, "ring_published"),
        "profiling.ring_backpressure": a(epoch_span, "ring_backpressure"),
        "profiling.ring_dropped": a(epoch_span, "ring_dropped"),
        "core.epoch_self_s": self_time.get(epoch_span, 0.0),
        "profiling.densify_s": a(epoch_span, "densify_s"),
        "profiling.build_s": a(epoch_span, "build_s"),
        "profiling.retained_objects": last_epoch["attrs"]["retained_objects"],
        "profiling.retained_readers": last_epoch["attrs"]["retained_readers"],
        "governor.tighten": a(epoch_span, "tighten"),
        "governor.backoff": a(epoch_span, "backoff"),
        "governor.converge": a(epoch_span, "converge"),
        "governor.rate_changes": a(epoch_span, "rate_changes"),
        "governor.resampled_objects": a(epoch_span, "resampled_objects"),
        "balance.suggestions": a(epoch_span, "suggestions"),
        "migration.executed": a(epoch_span, "executed"),
        "migration.deferred": a(epoch_span, "deferred"),
        "migration.prefetched_bytes": a(epoch_span, "prefetched_bytes"),
        "migration.homes_migrated": a(epoch_span, "homes_migrated"),
        "migration.host_s": a(epoch_span, "migration_s"),
        "net.bytes_object_data": a(epoch_span, "bytes_object_data"),
        "net.bytes_oal": a(epoch_span, "bytes_oal"),
        "net.bytes_control": a(epoch_span, "bytes_control"),
        "net.bytes_migration": a(epoch_span, "bytes_migration"),
        "export.snapshots_submitted": a("export.flush", "snapshots_submitted"),
        "export.snapshots_coalesced": a("export.flush", "snapshots_coalesced"),
        "export.lines_appended": a("export.flush", "lines_appended"),
        "export.append_writes": a("export.flush", "append_writes"),
        "export.flush_s": total.get("export.flush", 0.0),
        "cluster.round_s": total.get("cluster.round", 0.0),
        "cluster.arbiter_s": a("cluster.round", "arbiter_s"),
        "cluster.borrow_rounds": a("cluster.round", "borrow_round"),
        "setup.vm_s": a("setup", "vm_s"),
        "setup.build_s": a("setup", "build_s"),
        "runtime.objects": a("setup", "objects"),
        "trace.coverage_pct":
            100.0 * sum(self_time.get(n, 0.0) for n in COVERED_SPANS) / wall,
    }
    shares = {n: self_time.get(n, 0.0) / wall for n in COVERED_SPANS if n in self_time}
    return m, shares


def per_layer(raw):
    spans = load_spans(raw["span_file"])
    by_episode = {}
    for s in spans:
        by_episode.setdefault(s["episode"], []).append(s)
    traced_ids = [i for i, e in enumerate(raw["episodes"]) if e["traced"]]
    rows, share_rows = [], []
    for i in traced_ids[WARMUP_EPISODES:] or traced_ids:
        m, shares = episode_layers(by_episode[i], raw["epoch_span"])
        rows.append(m)
        share_rows.append(shares)
    values = {k: statistics.median(r[k] for r in rows) for k in rows[0]}
    values["profiling.map_mass_ratio"] = raw["map_mass_ratio"]
    values["profiling.accuracy_min"] = raw["tcm_accuracy_min"]
    values["runtime.makespan_max_s"] = raw["episodes"][0]["sim_makespan_max_s"]
    traced_wall = statistics.median(e["wall_s"] for e in timed(raw["episodes"], True))
    plain_wall = statistics.median(e["wall_s"] for e in timed(raw["episodes"], False))
    values["trace.overhead_pct"] = 100.0 * (traced_wall / plain_wall - 1.0)
    shares = {n: statistics.median(r.get(n, 0.0) for r in share_rows)
              for n in COVERED_SPANS if any(n in r for r in share_rows)}
    largest = max(shares, key=shares.get)
    notes = ["self-time share of traced wall: " +
             ", ".join(f"{n} {100 * v:.1f}%" for n, v in
                       sorted(shares.items(), key=lambda kv: -kv[1])),
             f"largest self-time span: {largest}",
             f"per-layer values are medians over {len(rows)} traced episodes"]
    return values, notes


# --- checks -------------------------------------------------------------------

def validate_exports(dirs):
    """Runs the repo's independent export validator over each tenant's
    artifacts; returns failed check records."""
    validator = os.path.join(ROOT, "tools", "validate_export.py")
    failures = []
    for d in dirs:
        r = subprocess.run([sys.executable, validator, d], capture_output=True,
                           text=True, timeout=120)
        if r.returncode != 0:
            failures.append({"name": "validate_export", "ok": False,
                             "detail": f"{d}: {r.stdout.strip()[-300:]}"})
    return failures


def main(argv):
    args = parse_args(argv)
    for need in ("src/core/djvm.hpp", "tools/validate_export.py"):
        if not os.path.exists(os.path.join(ROOT, need)):
            log(f"perfbench: {need} not found under {ROOT}; run from a full checkout")
            return 2
    bdir = build_dir()
    try:
        binary = build(bdir)
    except (OSError, subprocess.CalledProcessError) as e:
        log(f"perfbench: build failed: {e}")
        return 2

    scratch = os.path.join(bdir, "runs",
                           f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}")
    shutil.rmtree(scratch, ignore_errors=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--scratch", scratch, "--size", args.size]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=args.seconds + CHECK_ALLOWANCE_S)
    except subprocess.TimeoutExpired:
        log("perfbench: run timed out")
        return 2
    if proc.stderr:
        log(proc.stderr.rstrip())
    if proc.returncode != 0 or not proc.stdout.strip():
        log(f"perfbench: binary exited with code {proc.returncode}")
        return proc.returncode or 2
    raw = json.loads(proc.stdout.strip().splitlines()[-1])
    meta = run_metadata(raw, args)

    checks = raw["checks"] + validate_exports(raw["export_dirs"])
    failed_checks = [c for c in checks if not c["ok"]]
    attempted = sum(e["attempted"] for e in raw["episodes"])
    failed = attempted if failed_checks else sum(e["failed"] for e in raw["episodes"])
    error_rate = failed / attempted

    if args.trace == 0:
        values, notes = end_to_end(raw)
        values["success_rate"] = 1.0 - error_rate
        units = END_TO_END_UNITS
    else:
        trace_dir = os.path.join(bdir, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        kept = os.path.join(trace_dir, f"{args.workload}-seed{args.seed}.spans.jsonl")
        shutil.copyfile(raw["span_file"], kept)
        values, notes = per_layer(raw)
        notes.append(f"span file: {os.path.relpath(kept, ROOT)}")
        units = PER_LAYER_UNITS
    shutil.rmtree(scratch, ignore_errors=True)

    metrics = {k: {"value": values[k], "unit": units[k]} for k in units}
    correct = not failed_checks and all(math.isfinite(v["value"]) for v in metrics.values())

    print(f"# {args.workload} seed {args.seed} ({args.size}, trace {args.trace})")
    for k, v in metrics.items():
        print(f"  {k:32s} {v['value']:.6g} {v['unit']}")
    print(f"  error_rate {error_rate:.6g} ({failed} of {attempted} epochs failed)")
    for n in notes:
        print(f"  {n}")
    for c in failed_checks:
        print(f"  CHECK FAILED {c['name']}: {c['detail']}")
    print("# meta " + json.dumps(meta, sort_keys=True))
    results = os.path.join(bdir, "results")
    os.makedirs(results, exist_ok=True)
    with open(os.path.join(results, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as f:
        json.dump({"meta": meta, "metrics": metrics, "checks": checks,
                   "error_rate": error_rate}, f, indent=1)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
