#!/usr/bin/env python3
"""Ficus benchmark: one command, three workloads, every metric by name and unit.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source tree.  It builds perfbench/episode.exe
with dune, then runs episodes (one fresh process each: build a cluster,
populate it, run a closed-loop single client for a fixed seeded op
stream, converge, check) until S seconds have passed, and at least
MIN_EPISODES.  Each episode gets a process of its own so no state
survives from one to the next.  The first two episodes take the same
input, so their deterministic counts must agree exactly; later episodes
take further inputs derived from the seed, so that one run's medians
span several inputs.  Times are read from the episode's reference-speed
clock (perfbench/speed.ml).

--trace 0 reports the end-to-end metrics from untraced episodes.
--trace 1 alternates untraced and traced episodes, one pair per input:
the traced ones give the per-layer metrics, and the pairs give the
tracing overhead.  The spans of the last traced episode are written to
perfbench/out/.

The last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("zipf_replay", "bigdir", "partition_heal")
EXE = os.path.join("_build", "default", "perfbench", "episode.exe")
MIN_EPISODES = 2
RUN_LIMIT = 170  # seconds: no episode may push a run past this

# (name, unit) of every end-to-end metric, in print order; perfbench/README.md
# defines each.
END_TO_END = [
    ("ops_per_sec", "ops/s"),
    ("read_p50_us", "us"),
    ("update_p50_us", "us"),
    ("op_p99_us", "us"),
    ("stall_p99_ms", "ms"),
    ("converge_s", "s"),
    ("converge_ticks", "ticks"),
    ("prop_lag_p50_ticks", "ticks"),
    ("prop_lag_p99_ticks", "ticks"),
    ("rpcs_per_op", "RPCs/op"),
    ("repl_bytes_per_update", "B"),
    ("disk_writes_per_op", "I/Os/op"),
    ("disk_reads_per_op", "I/Os/op"),
    ("op_error_ratio", "failed/attempted"),
    ("setup_s", "s"),
    ("peak_heap_mb", "MiB"),
]

# Counters the per-layer table reads straight from the load-phase deltas.
LAYER_COUNTS = {
    "logical": ["logical.fallback", "logical.retry_pass", "logical.skipped_doubtful"],
    "net/nfs": ["net.rpc.calls", "net.rpc.failed", "net.datagrams.sent",
                "net.datagrams.dropped", "nfs.client.readdir_hits"],
    "physical": ["phys.lookup", "phys.update", "phys.install", "phys.install.bytes",
                 "phys.merge_dir", "phys.ctl.getdirvvs"],
    "storage": ["disk.reads", "disk.writes", "cache.hits"],
    "journal": ["journal.txns", "journal.flushes", "journal.checkpoints"],
    "propagation": ["prop.pull.file", "prop.pull.delta", "prop.bytes", "prop.nvc_deduped",
                    "prop.skipped_dominated", "prop.rpcs_skipped_dead", "prop.delta_fallback"],
    "reconcile": ["recon.passes", "recon.rpcs", "recon.pruned_subtrees", "recon.bytes",
                  "crdt.merges"],
    "gossip": ["gossip.rounds", "gossip.suspect_events", "gossip.dead_events",
               "gossip.alive_events"],
    "obs": ["spans.minted", "spans.evicted"],
}
LOGICAL_OPS = ("read", "write", "create", "rename", "mkdir", "lookup")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def percentile(values, p):
    """Nearest-rank percentile of a non-empty list."""
    s = sorted(values)
    k = max(1, -(-len(s) * p // 100))
    return s[int(k) - 1]


def ratio(num, den):
    return num / den if den else 0.0


def source_id():
    """The commit when run from a git checkout, else a digest of the sources."""
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        lines = out.stdout.split()
        # Only a repository rooted here describes these sources.
        if out.returncode == 0 and os.path.realpath(lines[0]) == os.path.realpath("."):
            return "commit " + lines[1]
    except OSError:
        pass
    h = hashlib.sha256()
    for top in ("lib", "perfbench"):
        for root, dirs, files in os.walk(top):
            dirs.sort()
            for f in sorted(files):
                if f.endswith((".ml", ".mli")) or f == "dune":
                    p = os.path.join(root, f)
                    h.update(p.encode())
                    with open(p, "rb") as fh:
                        h.update(fh.read())
    return "sources sha256:" + h.hexdigest()[:16]


def build():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        log("perfbench: run from the root of a Ficus source tree (no dune-project/lib here)")
        return False
    r = subprocess.run(["dune", "build", "--root", ".", "./perfbench/episode.exe"],
                       stdout=sys.stderr, stderr=sys.stderr)
    return r.returncode == 0 and os.path.isfile(EXE)


def input_seed(seed, i, trace):
    """The input seed of episode i (from 0) of a run with --seed seed."""
    k = i // 2 if trace else max(0, i - 1)
    return seed + k * 7919


def run_episode(workload, seed, traced, spans, timeout):
    cmd = [EXE, "--workload", workload, "--seed", str(seed), "--trace", "1" if traced else "0"]
    if spans:
        cmd += ["--spans", spans]
    r = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout)
    if r.returncode != 0:
        raise RuntimeError(f"episode failed ({r.returncode}): {r.stderr.strip()[-2000:]}")
    return json.loads(r.stdout.strip().splitlines()[-1])


def stream_digest(workload, seed):
    r = subprocess.run([EXE, "--workload", workload, "--seed", str(seed), "--stream-digest"],
                       capture_output=True, text=True, timeout=60)
    if r.returncode != 0:
        raise RuntimeError("stream digest failed: " + r.stderr.strip())
    return r.stdout.strip()


def fingerprint(ep):
    """Everything an episode measured that must not depend on wall-clock."""
    counts = {k: v for k, v in ep["counts"].items() if not k.endswith(".us")}
    return (counts, ep["ops"], ep["updates"], ep["failed"], ep["converge_ticks"],
            ep["clock_end"], ep["lag"])


def episode_metrics(e):
    """One episode's end-to-end metrics, each with the base it was computed from."""
    c, ops, upd = e["counts"], e["ops"], e["updates"]
    g = lambda k: c.get(k, 0)
    reads, upds, stalls = e["lat_read_us"], e["lat_update_us"], e["stall_ms"]
    return {
        "ops_per_sec": (ratio(ops, e["load_s"]), f"{ops} ops / {e['load_s']:.3f} s"),
        "read_p50_us": (statistics.median(reads) if reads else 0.0, f"n={len(reads)}"),
        "update_p50_us": (statistics.median(upds) if upds else 0.0, f"n={len(upds)}"),
        "op_p99_us": (percentile(reads + upds, 99), f"n={len(reads) + len(upds)}"),
        "stall_p99_ms": (percentile(stalls, 99) if stalls else 0.0, f"n={len(stalls)}"),
        "converge_s": (e["converge_s"], f"{e['converge_ticks']} ticks"),
        "converge_ticks": (e["converge_ticks"], ""),
        "prop_lag_p50_ticks": (e["lag"]["p50"], f"n={e['lag']['count']}"),
        "prop_lag_p99_ticks": (e["lag"]["p99"], f"n={e['lag']['count']}"),
        "rpcs_per_op": (ratio(g("net.rpc.calls"), ops), f"{g('net.rpc.calls')} / {ops} ops"),
        "repl_bytes_per_update": (
            ratio(g("prop.bytes") + g("recon.bytes"), upd),
            f"({g('prop.bytes')} + {g('recon.bytes')}) B / {upd} updates"),
        "disk_writes_per_op": (ratio(g("disk.writes"), ops), f"{g('disk.writes')} / {ops} ops"),
        "disk_reads_per_op": (ratio(g("disk.reads"), ops), f"{g('disk.reads')} / {ops} ops"),
        "op_error_ratio": (ratio(e["failed"], ops), f"{e['failed']} / {ops}"),
        "setup_s": (e["setup_s"], ""),
        "peak_heap_mb": (e["heap_mb"], ""),
    }


def end_to_end(eps):
    """Each end-to-end metric: the mean over the episodes of one input, then
    the median over inputs; bases from the first episode."""
    per = [episode_metrics(e) for e in eps]
    seeds = sorted({e["seed"] for e in eps})
    def value(name):
        return statistics.median(
            statistics.mean(p[name][0] for p, e in zip(per, eps) if e["seed"] == s)
            for s in seeds)
    def base(name):
        first = per[0][name][1]
        return (f"median over {len(seeds)} inputs of {len(per)} episodes"
                + (f"; first: {first}" if first else ""))

    return {name: (value(name), base(name)) for name, _ in END_TO_END}


def per_layer(traced, untraced):
    """Per-layer metrics from traced episodes (times: median over episodes)."""
    c = traced[0]["counts"]
    g = lambda k: c.get(k, 0)
    med = lambda f: statistics.median(f(e) for e in traced)
    span = lambda e, name, i: e["spans"].get(name, [0, 0.0, 0.0])[i]

    def span_sum(e, prefix, i):
        return sum(v[i] for k, v in e["spans"].items() if k.startswith(prefix))

    m = {}
    m["syscall.calls"] = (span_sum(traced[0], "syscall.", 0), "count", "")
    m["syscall.self_us"] = (med(lambda e: span_sum(e, "syscall.", 2)), "us",
                            "syscall spans minus their logical children")
    m["logical.calls"] = (span_sum(traced[0], "logical.", 0), "count", "")
    for op in LOGICAL_OPS:
        m[f"logical.us.{op}"] = (med(lambda e: span(e, "logical." + op, 1)), "us",
                                 f"{span(traced[0], 'logical.' + op, 0)} calls")
    for layer, keys in LAYER_COUNTS.items():
        for k in keys:
            m[k] = (g(k), "count", layer)
    m["phys.chunkmap.hit_ratio"] = (
        ratio(g("phys.chunkmap.hit"), g("phys.chunkmap.hit") + g("phys.chunkmap.miss")),
        "ratio", f"{g('phys.chunkmap.hit')} hits / "
                 f"{g('phys.chunkmap.hit') + g('phys.chunkmap.miss')} probes")
    m["cache.hit_ratio"] = (
        ratio(g("cache.hits"), g("cache.hits") + g("cache.misses")), "ratio",
        f"{g('cache.hits')} hits / {g('cache.hits') + g('cache.misses')} block reads")
    m["prop.chunks_hit_ratio"] = (
        ratio(g("prop.chunks_hit"), g("prop.chunks_hit") + g("prop.chunks_miss")), "ratio",
        f"{g('prop.chunks_hit')} hits / {g('prop.chunks_hit') + g('prop.chunks_miss')} chunks")
    m["prop.lag.count"] = (traced[0]["lag"]["count"], "count",
                           f"lag samples against {g('phys.install')} phys.install")
    for d in ("prop", "recon", "gossip"):
        m[f"prof.{d}.us"] = (med(lambda e: e["counts"].get(f"prof.{d}.us", 0)), "us",
                             "Cluster.profile phase self-time")
    prof_us = lambda e: sum(v for k, v in e["counts"].items()
                            if k.startswith("prof.") and k.endswith(".us"))
    m["tick.calls"] = (span(traced[0], "tick", 0), "count", "load and convergence")
    m["tick.us"] = (med(lambda e: span(e, "tick", 1)), "us", "")
    m["tick.driver_us"] = (med(lambda e: span(e, "tick", 1) - prof_us(e)), "us",
                           "tick.us minus the Cluster.profile phases")
    rate = lambda es: ratio(sum(e["ops"] for e in es), sum(e["load_s"] for e in es))
    t_ops, u_ops = rate(traced), rate(untraced)
    m["trace.ops_per_sec"] = (t_ops, "ops/s", "traced episodes")
    m["trace.untraced_ops_per_sec"] = (u_ops, "ops/s", "untraced episodes of this run")
    m["trace.overhead_pct"] = (100.0 * (1.0 - ratio(t_ops, u_ops)), "%",
                               "1 - traced/untraced ops_per_sec")
    return m


def fmt(v):
    return f"{v:.6g}" if isinstance(v, float) else str(v)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()

    if not build():
        log("perfbench: build failed")
        return 1
    started = time.time()
    nproc = os.cpu_count()
    print(f"# perfbench {a.workload} seed={a.seed} seconds={a.seconds:g} trace={a.trace} "
          f"nproc={nproc} {source_id()}")

    problems = []
    if stream_digest(a.workload, a.seed) == stream_digest(a.workload, a.seed + 1):
        problems.append(f"seeds {a.seed} and {a.seed + 1} give the same op stream")

    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    spans_path = os.path.join("perfbench", "out", f"{a.workload}.trace.json")
    episodes = []
    # Start another episode only while it should finish inside the run's
    # time, judged by the slowest episode so far.
    slowest = 0.0
    while len(episodes) < MIN_EPISODES or time.time() - started + slowest < a.seconds:
        t0 = time.time()
        traced = a.trace == 1 and len(episodes) % 2 == 1
        seed = input_seed(a.seed, len(episodes), a.trace == 1)
        timeout = max(10.0, RUN_LIMIT - (time.time() - started))
        ep = run_episode(a.workload, seed, traced, spans_path if traced else None, timeout)
        episodes.append(ep)
        slowest = max(slowest, time.time() - t0)
        log(f"episode {len(episodes)} seed {seed}{' traced' if traced else ''}: "
            f"setup {ep['setup_s']:.2f}s "
            f"load {ep['load_s']:.2f}s converge {ep['converge_s']:.2f}s "
            f"check {ep['check_s']:.2f}s")

    first = episodes[0]
    print(f"# ocaml {first['ocaml']} gc {json.dumps(first['gc'], sort_keys=True)} "
          f"episodes={len(episodes)} seeds={[e['seed'] for e in episodes]} "
          f"kernel_ms={statistics.median(e['kernel_ms'] for e in episodes):.4f}")
    # Episodes of one input must agree exactly with the first of them.
    firsts = {}
    for i, ep in enumerate(episodes, 1):
        j, base = firsts.setdefault(ep["seed"], (i, ep))
        if fingerprint(ep) != fingerprint(base):
            diff = sorted(k for k in set(base["counts"]) | set(ep["counts"])
                          if base["counts"].get(k) != ep["counts"].get(k)
                          and not k.endswith(".us"))
            problems.append(f"episode {i} counts differ from episode {j}: {diff[:8]}")
    for i, ep in enumerate(episodes, 1):
        if not ep["converged"]:
            problems.append(f"episode {i} did not converge in its tick budget")
        if ep["wrong"] or ep["wrong_final"]:
            problems.append(f"episode {i}: {ep['wrong']} reads and {ep['wrong_final']} final "
                            "contents differ from the model")
    attempted = sum(e["ops"] for e in episodes)
    failed = sum(e["failed"] for e in episodes)
    correct = not problems
    status = "" if correct else "  [FAILED RUN]"

    untraced = [e for e in episodes if not e["traced"]]
    e2e = end_to_end(untraced)
    print(f"# end-to-end, {a.workload}{status}")
    for name, unit in END_TO_END:
        v, base_txt = e2e[name]
        print(f"{name:24s} {fmt(v):>14s} {unit:16s} {base_txt}")

    # The JSON result carries exactly the metrics BENCHMARK.json declares.
    with open("BENCHMARK.json") as fh:
        declared = json.load(fh)["per_layer" if a.trace == 1 else "end_to_end"]
    values = {name: v for name, (v, _) in e2e.items()}
    if a.trace == 1:
        traced = [e for e in episodes if e["traced"]]
        layers = per_layer(traced, untraced)
        print(f"# per-layer (traced), {a.workload}{status}")
        for name, (v, unit, note) in layers.items():
            print(f"{name:28s} {fmt(v):>14s} {unit:8s} {note}")
        values = {name: v for name, (v, _, _) in layers.items()}
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    for p in problems:
        print("# FAILED: " + p)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
