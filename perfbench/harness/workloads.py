"""The workloads, run untraced (end-to-end metrics) or traced (per-layer
metrics). See ../README.md for what each one stresses and why."""

import json
import math
import os
import statistics
import time

from . import check, gen, procs, stats
from .spans import Recorder

with open(os.path.join(procs.ROOT, "perfbench", "reference.json")) as _f:
    REFERENCE = json.load(_f)

SETUP_REPEATS = 31
DAEMON_SPAWNS = 31
HOT_FILLS = 3
# Zipf picks per connection; a connection cycles through its list.
HOT_PICKS = 1 << 16
# serve-hot's load is one connection: the daemon answers cache hits one at
# a time, so a second connection added no throughput (4,024 against 4,096
# replies/s) and only queued behind the first (p50 0.39 against 0.15 ms).
# The daemon and the load client are kept on one CPU: left to the
# scheduler, whether it put the two on one CPU or on two set the run's
# throughput (2,458-3,609 replies/s over four runs, against 3,720-4,069
# pinned, the two interleaved).
HOT_CONNECTIONS = 1
# serve-cold cycles through a pool of distinct queries larger than the
# daemon's 128-entry LRU cache, so every request misses: a key comes back
# only after 159 others were inserted, and it was evicted by then. The
# timed window is split over COLD_DAEMONS daemons in turn, because a
# daemon keeps its own pace for its whole life (one ran 10% slower than
# the one before it in every 4 s of its run), so one daemon per run would
# make the run's figure that daemon's luck. Each daemon first serves
# COLD_WARMUP queries (every circuit and M stratum of the pool) outside
# the window.
COLD_POOL = 160
COLD_DAEMONS = 3
COLD_WARMUP = 48
# Queries of serve-cold that the traced run also sends through every layer
# probe (the first ones of the pool are served in every run).
COLD_PROBED = 16
PROTOCOL_LINES = 64
# Spans of the layered probe whose work the plain run does not do: the
# front end (Artifacts.build redoes it), the timed sweep (Artifacts.report
# sweeps again) and the ROMDD width walk. trace.overhead leaves them out,
# so it measures the cost of tracing, not of the duplicated work.
EXTRA_LAYER_SPANS = ("defects", "encode", "order", "mdd.traversal", "width.romdd")


class Run:
    """What one run measured and checked."""

    def __init__(self, workload, seed, seconds, trace):
        self.workload, self.seed, self.seconds, self.trace = workload, seed, seconds, trace
        self.attempted = 0
        self.failures = []
        self.metrics = {}
        self.shown = []
        self.details = {}
        self.rec = Recorder()

    def op(self, reason):
        """Count one operation; ``reason`` is None when its output checked out."""
        self.attempted += 1
        if reason:
            self.failures.append(reason)

    def put(self, name, value, unit, note=None):
        """A metric of the result line; ``value`` None means not measured."""
        self.metrics[name] = (value, unit, note)
        self.show(name, value, unit, note)

    def show(self, name, value, unit, note=None):
        """A figure printed for the reader but not part of the result line."""
        self.shown.append((name, value, unit, note))


def probe_one(run, mode, line, parent, flags=()):
    """One probe process over one query, as a span under ``parent``."""
    with run.rec.span(" ".join(["probe." + mode, *flags]), parent) as sid:
        recs, fin = procs.probe(mode, [line], flags)
    return recs[0], fin, sid


# --------------------------------------------------------------------------
# eval-table4


def eval_table4(run):
    rows = REFERENCE["rows"]
    queries = gen.table4_rows(REFERENCE)
    lines = [q.line for q in queries]
    if run.trace:
        refs = layer_probes(run, queries, rows)
        serve_layers_of_rows(run, queries, refs)
        return
    setups = []
    for _ in range(SETUP_REPEATS):
        recs, fin = procs.probe("setup", lines)
        if not all(r.get("ok") for r in recs):
            raise procs.BenchError("setup probe failed: %r" % recs)
        setups.append(fin.wall_s)
    wall = {r["name"]: [] for r in rows}
    rss = {r["name"]: [] for r in rows}
    t0 = time.monotonic()
    while True:
        for row, line in zip(rows, lines):
            recs, fin = procs.probe("run", [line])
            run.op(check.check_row(recs[0], row))
            wall[row["name"]].append(fin.wall_s)
            rss[row["name"]].append(fin.maxrss_mb)
        if time.monotonic() - t0 >= run.seconds:
            break
    per_row = {n: statistics.median(v) for n, v in wall.items()}
    for n in per_row:
        run.show("eval_s." + n, per_row[n], "s", "median of %d" % len(wall[n]))
        run.show("peak_rss_mb." + n, max(rss[n]), "MB")
    run.put("p50_ms", 1000.0 * sum(per_row.values()), "ms", "Table 4 pass: sum of row medians")
    run.show("p90_ms", None, "ms", "not measured: %d passes, fewer than 10 beyond p90" % len(wall["ms6"]))
    run.put("rps", run.attempted / sum(sum(v) for v in wall.values()), "1/s", "rows per second")
    run.put("peak_rss_mb", max(max(v) for v in rss.values()), "MB")
    run.put("setup_s", statistics.median(setups), "s", "median of %d" % len(setups))


def serve_layers_of_rows(run, queries, refs):
    """eval-table4 does no serving; its traced run sends each row twice to a
    daemon (a miss, then a hit) so the serve layers are measured on it too."""
    daemon = procs.Daemon()
    try:
        before = daemon.stats()
        with run.rec.span("load", None) as load:
            records = procs.load([q.line for q in queries], 170, shared=[0, 1, 0, 1], connections=1)
        after = daemon.stats()
    finally:
        daemon.stop()
    record_requests(run, load, records)
    served = check_replies(run, queries, records, refs)
    serve_layer_metrics(run, served, served, refs, before, after)
    protocol_metrics(run, [q.line for q in queries])


# --------------------------------------------------------------------------
# serve-hot and serve-cold


def spawn_daemons(cpu=None):
    """Set-up shared by the serve workloads: spawn the daemon until health
    answers, several times; the last one is kept."""
    times = []
    for k in range(DAEMON_SPAWNS):
        daemon = procs.Daemon(cpu)
        times.append(daemon.startup_s)
        if k < DAEMON_SPAWNS - 1:
            daemon.stop()
    return daemon, statistics.median(times)


def serve_hot(run):
    queries = gen.hot_queries(run.seed)
    lines = [q.line for q in queries]
    refs = reference_runs(run, lines)
    cpu = min(os.sched_getaffinity(0))
    daemon, spawn_s = spawn_daemons(cpu)
    # The daemon's peak RSS is set by pipeline garbage during the fill and
    # depends on when the OCaml GC runs, so the fill is repeated on fresh
    # daemons and the median peak reported; the last daemon also serves the
    # timed load.
    fills, peaks = [], []
    try:
        for k in range(HOT_FILLS):
            if k:
                peaks.append(daemon.stop())
                daemon = procs.Daemon(cpu)
            fill = procs.load(lines, 170, shared=list(range(len(lines))), connections=1, cpu=cpu)
            fills.append(max(r[2] for r in fill) - min(r[1] for r in fill))
            fill_served = check_replies(run, queries, fill, refs)
        before = daemon.stats()
        cycled = [gen.zipf_picks(len(lines), run.seed * 7919 + k + 1, HOT_PICKS)
                  for k in range(HOT_CONNECTIONS)]
        with run.rec.span("load", None) as load:
            records = procs.load(lines, run.seconds, cycled=cycled, cpu=cpu)
        after = daemon.stats()
    finally:
        peaks.append(daemon.stop())
    served = check_replies(run, queries, records, refs)
    if run.trace:
        record_requests(run, load, records)
        instances = list({q.eval_line(): q for q in queries}.values())
        layer_probes(run, instances, None)
        serve_layer_metrics(run, served, fill_served, refs, before, after)
        protocol_metrics(run, lines)
        return
    sent = {b: 0 for b in gen.HOT_CIRCUITS}
    for i, _, _, _ in records:
        sent[queries[i].benchmark] += 1
    for b, share in gen.hot_shares().items():
        run.show("share." + b, sent[b] / len(records), "fraction",
                 "of requests sent; Zipf expects %.3f" % share)
    fill_s = statistics.median(fills)
    end_to_end(run, records, served, statistics.median(peaks),
               "daemon, median of %d" % len(peaks), spawn_s + fill_s, HOT_CONNECTIONS)
    run.show("setup_s.spawn", spawn_s, "s", "median of %d spawns" % DAEMON_SPAWNS)
    run.show("setup_s.fill", fill_s, "s", "median of %d fills of %d queries" % (HOT_FILLS, len(lines)))
    run.show("peak_rss_mb.max", max(peaks), "MB", "largest of %d daemons" % len(peaks))


def serve_cold(run):
    queries = gen.cold_queries(run.seed, COLD_POOL)
    lines = [q.line for q in queries]
    # After its warm-up a daemon continues the cycle where the warm-up left
    # off, so no key comes back within COLD_POOL requests.
    picks = [(COLD_WARMUP + k) % COLD_POOL for k in range(40 * COLD_POOL)]
    window = run.seconds / COLD_DAEMONS
    daemon, spawn_s = spawn_daemons()
    warm, records, loads, warm_s, peaks, rss = [], [], [], [], [], []
    cache = {"hits": 0, "misses": 0, "evictions": 0}
    for k in range(COLD_DAEMONS):
        if k:
            daemon = procs.Daemon()
        try:
            w = procs.load(lines, 170, shared=list(range(COLD_WARMUP)))
            warm += w
            warm_s.append(max(r[2] for r in w))
            # The peak over a fixed amount of work: over the timed window it
            # would grow with the number of requests the host's speed allows.
            peaks.append(daemon.peak_rss_mb())
            before = daemon.stats()["cache"]
            with run.rec.span("load", None) as load:
                recs = procs.load(lines, window, shared=picks)
            after = daemon.stats()["cache"]
        finally:
            rss.append(daemon.stop())
        if len(recs) >= len(picks):
            raise procs.BenchError("serve-cold ran out of picks")
        records += recs
        loads.append((load, recs))
        for key in cache:
            cache[key] += after[key] - before[key]
    sent = sorted({r[0] for r in warm + records})
    refs = dict(zip(sent, reference_runs(run, [lines[i] for i in sent])))
    check_replies(run, queries, warm, refs)
    served = check_replies(run, queries, records, refs)
    if run.trace:
        for load, recs in loads:
            record_requests(run, load, recs)
        instances = [q for q in queries if not q.expect_budget][:COLD_PROBED]
        layer_probes(run, instances, None)
        zero = {key: 0 for key in cache}
        serve_layer_metrics(run, served, served, refs, {"cache": zero}, {"cache": cache})
        protocol_metrics(run, [lines[i] for i in sent[:PROTOCOL_LINES]])
        return
    windows = sum(max(r[2] for r in recs) for _, recs in loads)
    end_to_end(run, records, served, statistics.median(peaks),
               "daemon after its warm-up, median of %d" % len(peaks),
               spawn_s + statistics.median(warm_s), 2, windows)
    run.show("peak_rss_mb.max", max(rss), "MB", "largest daemon, whole life")
    run.show("setup_s.spawn", spawn_s, "s", "median of %d spawns" % DAEMON_SPAWNS)
    run.show("setup_s.warmup", statistics.median(warm_s), "s",
             "%d queries, 2 connections, median of %d daemons" % (COLD_WARMUP, len(warm_s)))
    run.show("cache.hits", cache["hits"], "count", "0 expected: every request misses")
    run.show("cache.evictions", cache["evictions"], "count")


def reference_runs(run, lines):
    """Solo runs of the served queries, outside the timed window. The
    traced run needs their solo times, so it runs them one at a time."""
    if run.trace:
        with run.rec.span("reference", None):
            return procs.probe("run", lines)[0]
    return procs.probe_parallel("run", lines)


def check_replies(run, queries, records, refs):
    """Check every reply; returns (index, client seconds, reply) of the
    replies that checked out, and counts the rest as failed."""
    served = []
    for i, t0, t1, raw in records:
        try:
            reply = json.loads(raw) if raw else None
        except ValueError:
            reply = None
        reason = check.check_reply(queries[i], reply, refs[i])
        run.op(reason)
        if reason is None:
            served.append((i, t1 - t0, reply))
    return served


def end_to_end(run, records, served, rss, rss_note, setup_s, connections, window=None):
    """End-to-end figures of a load phase; a failed request counts as an
    infinitely slow one. ``window`` is the length of the load in seconds,
    by default the time of its last reply."""
    lat = [1000.0 * s for _, s, _ in served] + [math.inf] * (len(records) - len(served))
    run.put("p50_ms", stats.percentile(lat, 50), "ms", "%d replies" % len(lat))
    if stats.tail_reportable(len(lat), 90):
        run.show("p90_ms", stats.percentile(lat, 90), "ms", "%d beyond it" % stats.beyond(len(lat), 90))
    else:
        run.show("p90_ms", None, "ms", "not measured: fewer than 10 replies beyond p90")
    window = window or max(r[2] for r in records)
    run.put("rps", len(served) / window, "1/s", "%d connection(s), closed loop" % connections)
    run.put("peak_rss_mb", rss, "MB", rss_note)
    run.put("setup_s", setup_s, "s")


def record_requests(run, load, records):
    """Client-side request spans under the ``load`` span."""
    base = run.rec.spans[load]["start"]
    for _, t0, t1, _ in records:
        run.rec.add("request", base + t0, base + t1, load)


# --------------------------------------------------------------------------
# per-layer metrics (traced runs)


def layer_probes(run, queries, rows):
    """Send each query through every layer probe, each in its own process:
    untraced run (the reference of the others), observed run, traced layer
    run, bare ROBDD build, direct route and a 2-domain parallel build.
    ``rows`` (eval-table4 only) are the reference.json rows to check
    against. Returns the untraced run records."""
    refs, acc = [], {}
    nproc = len(os.sched_getaffinity(0))

    def add(key, value):
        acc[key] = acc.get(key, 0) + value

    bdd_widths, mdd_widths = [], []
    for k, q in enumerate(queries):
        line = q.eval_line()
        with run.rec.span("query", None, query=line) as top:
            off, fin_off, _ = probe_one(run, "run", line, top)
            if rows:
                run.op(check.check_row(off, rows[k]))
            else:
                run.op(None if off.get("ok") else "solo run failed: %r" % (off,))
            refs.append(off)
            on, fin_on, _ = probe_one(run, "run", line, top, ("--obs",))
            run.op(check.check_same_yields(on, off, "observed"))
            lay, fin_lay, sid = probe_one(run, "layers", line, top)
            run.op(check.check_same_yields(lay, off, "layered"))
            run.rec.import_probe(lay.get("spans", []), sid)
            bdd, _, _ = probe_one(run, "bdd", line, top)
            direct, fin_dir, _ = probe_one(run, "direct", line, top)
            run.op(check.check_same_yields(direct, off, "direct"))
            if nproc >= 2:
                par, _, _ = probe_one(run, "run", line, top, ("--par", "2"))
                run.op(check.check_same_yields(par, off, "parallel"))
                add("par_s", par.get("build_convert_s", 0.0))
        if not (lay.get("ok") and bdd.get("ok")):
            continue
        add("off_s", fin_off.wall_s)
        add("on_s", fin_on.wall_s)
        add("traced_s", fin_lay.wall_s)
        for s in lay["spans"]:
            if s["name"] in ("encode", "order", "mdd.traversal"):
                add(s["name"] + "_s", s["end_s"] - s["start_s"])
            if s["name"] in EXTRA_LAYER_SPANS:
                add("extra_s", s["end_s"] - s["start_s"])
        for key in ("m", "binary_vars", "gates", "convert_s", "romdd_nodes",
                    "mdd_nodes_created", "gc_minor_words", "gc_promoted_words",
                    "gc_major_collections"):
            add(key, lay[key])
        add("seq_s", lay["build_s"] + lay["convert_s"])
        for key in ("build_s", "peak_nodes", "final_nodes", "created", "unique_hits",
                    "cache_hits", "cache_misses", "gc_runs", "reclaimed", "heap_bytes"):
            add("bdd_" + key, bdd[key])
        add("direct_s", direct.get("s", 0.0))
        acc["direct_rss"] = max(acc.get("direct_rss", 0.0), fin_dir.maxrss_mb)
        bdd_widths.append(bdd["robdd_widths"])
        mdd_widths.append(lay["romdd_widths"])

    if not bdd_widths:
        raise procs.BenchError("no probe query ran through every layer")
    put = run.put
    n = "summed over %d probe queries" % len(queries)
    put("defects.m", acc["m"], "count", n)
    put("encode.s", acc["encode_s"], "s", n)
    put("encode.binary_vars", acc["binary_vars"], "count", n)
    put("encode.gates", acc["gates"], "count", n)
    put("order.s", acc["order_s"], "s", n)
    put("bdd.build_s", acc["bdd_build_s"], "s", n)
    put("bdd.peak_nodes", acc["bdd_peak_nodes"], "count", n)
    put("bdd.final_nodes", acc["bdd_final_nodes"], "count", n)
    put("bdd.created", acc["bdd_created"], "count", n)
    mk = acc["bdd_unique_hits"] + acc["bdd_created"]
    put("bdd.unique_hit_ratio", acc["bdd_unique_hits"] / mk, "ratio", "base bdd.mk_calls")
    put("bdd.mk_calls", mk, "count")
    lookups = acc["bdd_cache_hits"] + acc["bdd_cache_misses"]
    put("bdd.cache_hit_ratio", acc["bdd_cache_hits"] / lookups, "ratio", "base bdd.cache_lookups")
    put("bdd.cache_lookups", lookups, "count")
    put("bdd.gc_runs", acc["bdd_gc_runs"], "count")
    put("bdd.reclaimed", acc["bdd_reclaimed"], "count")
    put("bdd.max_level_width", max(max(w) for w in bdd_widths), "count", "max over levels and queries")
    put("bdd.bytes_per_peak_node", acc["bdd_heap_bytes"] / acc["bdd_peak_nodes"], "B",
        "base bdd.heap_mb over bdd.peak_nodes")
    put("bdd.heap_mb", acc["bdd_heap_bytes"] / 1e6, "MB", "top-heap growth over the build")
    put("mdd.convert_s", acc["convert_s"], "s", "the report's romdd-convert stage")
    put("mdd.traversal_s", acc["mdd.traversal_s"], "s", n)
    put("mdd.romdd_nodes", acc["romdd_nodes"], "count", n)
    put("mdd.nodes_created", acc["mdd_nodes_created"], "count", n)
    put("mdd.max_level_width", max(max(w) for w in mdd_widths), "count", "max over levels and queries")
    put("gc.minor_words", acc["gc_minor_words"], "words", "the report's stage_gc")
    put("gc.promoted_words", acc["gc_promoted_words"], "words")
    put("gc.major_collections", acc["gc_major_collections"], "count")
    put("direct.s", acc["direct_s"], "s", "own process, fresh manager")
    put("direct.peak_rss_mb", acc["direct_rss"], "MB", "max over queries")
    if nproc >= 2:
        put("par.s", acc["par_s"], "s", "build+convert on 2 domains")
        put("par.speedup", acc["seq_s"] / acc["par_s"], "ratio", "base par.seq_s")
    else:
        why = "not measured: %d CPU available, 2 domains need 2" % nproc
        put("par.s", None, "s", why)
        put("par.speedup", None, "ratio", why)
    put("par.seq_s", acc["seq_s"], "s", "sequential build+convert")
    put("obs.overhead", acc["on_s"] / acc["off_s"] - 1.0, "fraction", "base obs.off_s")
    put("obs.off_s", acc["off_s"], "s", "untraced runs, process start to exit")
    put("trace.overhead", (acc["traced_s"] - acc["extra_s"]) / acc["off_s"] - 1.0, "fraction",
        "layered traced run, less the work it repeats or adds, against obs.off_s")
    run.details["robdd_widths"] = bdd_widths
    run.details["romdd_widths"] = mdd_widths
    return refs


def serve_layer_metrics(run, served, misses_from, refs, before, after):
    """Cache, server, transport and executor figures of a daemon session.
    ``served`` are the replies of the measured phase; executor wait is read
    from the cache misses among ``misses_from``."""
    hits = after["cache"]["hits"] - before["cache"]["hits"]
    misses = after["cache"]["misses"] - before["cache"]["misses"]
    run.put("cache.hit_ratio", hits / max(1, hits + misses), "ratio", "base cache.lookups")
    run.put("cache.lookups", hits + misses, "count")
    run.put("cache.evictions", after["cache"]["evictions"] - before["cache"]["evictions"], "count")
    timed = [(s, r) for _, s, r in served if "elapsed_ms" in r]
    run.put("server.p50_ms", stats.percentile([r["elapsed_ms"] for _, r in timed], 50), "ms",
            "the reply's elapsed_ms")
    run.put("transport.p50_ms",
            stats.percentile([1000.0 * s - r["elapsed_ms"] for s, r in timed], 50), "ms",
            "client latency minus elapsed_ms")
    waits = [r["elapsed_ms"] - 1000.0 * refs[i]["solo_s"]
             for i, _, r in misses_from if r.get("cache") == "miss" and "elapsed_ms" in r]
    run.put("executor.wait_p50_ms", stats.percentile(waits, 50), "ms",
            "elapsed_ms minus solo run, over %d misses" % len(waits))


def protocol_metrics(run, lines):
    recs, _ = procs.probe("protocol", lines)
    for key in ("parse", "resolve", "key"):
        run.put("protocol.%s_us" % key, sum(r[key + "_us"] for r in recs) / len(recs), "us",
                "mean over %d request lines" % len(recs))


WORKLOADS = {"eval-table4": eval_table4, "serve-hot": serve_hot, "serve-cold": serve_cold}
