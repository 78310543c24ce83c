"""Arithmetic of the SSB repo benchmark: turns one raw ssb_bench record into
the end-to-end metrics (untraced run) or the per-layer metrics (traced run).

Kept apart from run.py so that test_metrics.py can check it without a build.
"""

import math
import statistics
from collections import defaultdict, namedtuple

# Field order of one entry of the record's "samples" list (see ssb_bench.cc).
SAMPLE_FIELDS = (
    "pass_", "traced", "query", "ok", "rows_ok", "host_s", "modeled_s",
    "queue_wait_s", "epoch_s", "cache_hit", "retries", "tuples", "bytes_read",
    "far_accesses", "estimate_s", "candidates", "instances", "edges",
)
Sample = namedtuple("Sample", SAMPLE_FIELDS)
Span = namedtuple("Span", "query name parent start end")

# A tail percentile needs this many samples beyond it to be reported.
TAIL_MIN_BEYOND = 10
TAIL_CANDIDATES = (99, 95, 90)

# Counter-delta entries that are levels (maxima), not cumulative counts.
LEVELS = ("cache_bytes", "segments_max", "state_bytes")

SOLO_LAYERS = ("plan", "core.lower", "core.run")
SERVE_LAYERS = ("sched.submit", "sched.wait")


def median(values):
    values = list(values)
    return statistics.median(values) if values else 0.0


def samples_beyond(n, pct):
    """Samples above the nearest-rank `pct` percentile of n samples."""
    return n - math.ceil(pct * n / 100)


def choose_tail(n):
    """Highest of p99/p95/p90 with at least TAIL_MIN_BEYOND samples beyond it
    at n samples; None when even p90 has fewer."""
    for pct in TAIL_CANDIDATES:
        if samples_beyond(n, pct) >= TAIL_MIN_BEYOND:
            return pct
    return None


def percentile(values, pct):
    """Nearest-rank percentile (the value at rank ceil(pct/100 * n))."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    return ordered[max(1, math.ceil(pct * len(ordered) / 100)) - 1]


def tail(values):
    """(value, label, sample count, samples beyond) of the chosen tail. With too
    few samples for p90 the maximum is reported and labelled as such."""
    n = len(values)
    pct = choose_tail(n)
    if pct is None:
        return (max(values) if values else 0.0), "max", n, 0
    return percentile(values, pct), "p%d" % pct, n, samples_beyond(n, pct)


def client_latency_s(s):
    """Latency the client observes: admission queue wait plus modeled run time
    (the queue wait is zero for solo queries)."""
    return s.queue_wait_s + s.modeled_s


def failed(s):
    """A query fails when its status is not OK or its rows differ from the
    reference."""
    return not (s.ok and s.rows_ok)


def count_failures(samples):
    return sum(1 for s in samples if failed(s))


def slo_attainment(samples, limit_ms):
    """Share of attempted queries answered correctly within the latency limit;
    a failed query misses the limit whatever its latency."""
    if not samples:
        return 0.0
    met = sum(1 for s in samples
              if not failed(s) and client_latency_s(s) * 1e3 <= limit_ms)
    return met / len(samples)


def self_times(spans):
    """Self time of each span: its duration minus the part of it that its
    children cover (overlapping children are counted once)."""
    children = defaultdict(list)
    for i, sp in enumerate(spans):
        if sp.parent >= 0:
            children[sp.parent].append(i)
    out = []
    for i, sp in enumerate(spans):
        covered, cursor = 0.0, sp.start
        for c in sorted(children[i], key=lambda c: spans[c].start):
            lo = max(spans[c].start, cursor, sp.start)
            hi = min(spans[c].end, sp.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append(sp.end - sp.start - covered)
    return out


def _by_pass(samples):
    passes = defaultdict(list)
    for s in samples:
        passes[s.pass_].append(s)
    return [passes[k] for k in sorted(passes)]


def virtual_makespan_s(samples, serve):
    """Virtual time the samples' queries occupied the server. Solo queries run
    one after another on an idle server, so their makespan is the sum of their
    latencies; a serve batch spans its first arrival to its last completion."""
    if not serve:
        return sum(s.modeled_s for s in samples)
    total = 0.0
    for batch in _by_pass(samples):
        first = min(s.epoch_s - s.queue_wait_s for s in batch)
        last = max(s.epoch_s + s.modeled_s for s in batch)
        total += last - first
    return total


def modeled_sweep_s(samples, serve):
    """Summed modeled latency of one pass: the median over solo sweeps (each
    runs the same 13 queries), the mean over serve batches, whose sums take a
    few discrete values (one per miss count) that a median jumps between."""
    sums = [sum(s.modeled_s for s in p) for p in _by_pass(samples)]
    if not sums:
        return 0.0
    return statistics.mean(sums) if serve else median(sums)


def _ratio(num, den):
    return num / den if den else 0.0


def load(record):
    samples = [Sample(*row) for row in record["samples"]]
    spans = [Span(*row) for row in record["spans"]]
    return samples, spans


def end_to_end(record, slo_ms):
    """End-to-end metrics of an untraced run, plus the details that name the
    tail percentiles and their sample counts."""
    samples, _ = load(record)
    serve = record["workload"] == "ssb-serve-rw"
    n = len(samples)
    n_failed = count_failures(samples)
    good = [s for s in samples if not failed(s)]
    client_ms = [client_latency_s(s) * 1e3 for s in samples]
    mod_tail, mod_label, mod_n, mod_beyond = tail(client_ms)
    makespan = virtual_makespan_s(samples, serve)
    metrics = {
        "setup_s": (median(record["setup_s"]), "s"),
        "peak_rss_mb": (median(record["peak_rss_mb"]), "MiB"),
        "correct_fraction": (_ratio(n - n_failed, n), "fraction"),
        "modeled_sweep_ms": (modeled_sweep_s(samples, serve) * 1e3, "ms"),
        "modeled_latency_p50_ms": (median(client_ms), "ms"),
        "modeled_latency_tail_ms": (mod_tail, "ms"),
        "modeled_qps": (_ratio(len(good), makespan), "1/s"),
        "slo_attainment": (slo_attainment(samples, slo_ms), "fraction"),
    }
    details = {
        "modeled_latency_tail": {"percentile": mod_label, "samples": mod_n,
                                 "beyond": mod_beyond},
        "correct_fraction": {"ok": n - n_failed, "attempted": n},
        "setup": {"measure": "median over set-ups", "set_ups": len(record["setup_s"])},
        "peak_rss": {"measure": "median over the first passes of the RSS "
                                "high-water mark of a pass from a trimmed heap",
                     "passes": len(record["peak_rss_mb"])},
        "modeled_sweep": {"passes": len(_by_pass(samples)),
                          "queries_per_pass": len(record["queries"])},
        "modeled_qps": {"ok": len(good), "virtual_makespan_s": makespan},
        "slo": {"limit_ms": slo_ms},
    }
    return metrics, details, n, n_failed


def per_layer(record, parity_bound):
    """Per-layer metrics of a traced run: layer self times from the spans,
    work counts from the traced passes and counter deltas, the tracing
    overhead against the interleaved untraced passes, and the traced/untraced
    modeled-sweep parity."""
    samples, spans = load(record)
    serve = record["workload"] == "ssb-serve-rw"
    traced = [s for s in samples if s.traced]
    untraced = [s for s in samples if not s.traced]
    passes = record["passes"]
    traced_passes = [p for p in passes if p["traced"]]

    def delta(key, which=traced_passes):
        values = [p["delta"][key] for p in which]
        return max(values, default=0) if key in LEVELS else sum(values)

    selfs = defaultdict(list)
    for sp, t in zip(spans, self_times(spans)):
        selfs[sp.name].append(t)
    run_s = sum(sp.end - sp.start for sp in spans if sp.name == "core.run")
    traced_sweeps = _by_pass(traced)

    def per_sweep(field):
        return median(sum(getattr(s, field) for s in p) for p in traced_sweeps)

    def qps(which, which_passes):
        wall = sum(p["wall_s"] for p in which_passes)
        return _ratio(len(which), wall)

    untraced_qps = qps(untraced, [p for p in passes if not p["traced"]])
    traced_qps = qps(traced, traced_passes)
    parity = parity_deviation(traced, untraced, serve)

    program_lookups = delta("program_hits") + delta("program_misses")
    cache_lookups = delta("cache_hits") + delta("cache_misses")
    share_total = delta("share_builds") + delta("share_attaches")
    hits = [client_latency_s(s) * 1e3 for s in traced if s.cache_hit]
    misses = [client_latency_s(s) * 1e3 for s in traced if not s.cache_hit]
    estimates = [s for s in traced if s.estimate_s >= 0]
    est_sum = sum(s.estimate_s for s in estimates)
    mod_sum = sum(s.modeled_s for s in estimates)
    ht_peak = delta("state_bytes")
    ht_bytes = max(0, ht_peak - record["placed_bytes"])
    tuples = sum(s.tuples for s in traced)

    # Host-wall figures move by more than a tenth between runs on a shared
    # host, so they are diagnostics here, taken over the untraced passes.
    host_ms = [s.host_s * 1e3 for s in untraced]
    host_tail, host_label, host_n, host_beyond = tail(host_ms)
    host_qps = median(_ratio(len(p), passes[p[0].pass_]["wall_s"])
                      for p in _by_pass(untraced))

    ms = lambda name: median(selfs[name]) * 1e3  # noqa: E731
    metrics = {
        "failed_fraction": (_ratio(count_failures(samples), len(samples)), "fraction"),
        "host.qps": (host_qps, "1/s"),
        "host.latency_p50_ms": (median(host_ms), "ms"),
        "host.latency_tail_ms": (host_tail, "ms"),
        "plan.optimize_ms": (ms("plan"), "ms"),
        "plan.candidates": (median(s.candidates for s in estimates), "count"),
        "plan.estimate_ratio": (_ratio(est_sum, mod_sum), "ratio"),
        "core.lower_ms": (ms("core.lower"), "ms"),
        "core.instances": (per_sweep("instances") if estimates else 0, "count/sweep"),
        "core.edges": (per_sweep("edges") if estimates else 0, "count/sweep"),
        "core.run_ms": (ms("core.run"), "ms"),
        "core.program_cache_hit_rate": (_ratio(delta("program_hits"), program_lookups),
                                        "ratio"),
        "jit.tuples_per_run_s": (_ratio(tuples, run_s), "1/s"),
        "jit.vectorizer_fallbacks": (delta("vec_fallbacks"), "count"),
        "jit.tuples": (per_sweep("tuples"), "count/sweep"),
        "jit.bytes_read": (per_sweep("bytes_read"), "B/sweep"),
        "jit.far_accesses": (per_sweep("far_accesses"), "count/sweep"),
        "memory.remote_roundtrips": (_ratio(delta("remote_roundtrips"),
                                            len(traced_passes)), "count/sweep"),
        "memory.ht_bytes_peak": (ht_bytes / 2**20, "MiB"),
        "sched.queue_wait_p50_ms": (median(s.queue_wait_s for s in traced) * 1e3, "ms"),
        "sched.submit_us": (median(selfs["sched.submit"]) * 1e6, "us"),
        "sched.wait_ms": (ms("sched.wait"), "ms"),
        "sched.retries": (sum(s.retries for s in samples), "count"),
        "reuse.cache_hit_rate": (_ratio(delta("cache_hits"), cache_lookups), "ratio"),
        "reuse.share_attach_rate": (_ratio(delta("share_attaches"), share_total), "ratio"),
        "reuse.hit_latency_ms": (median(hits), "ms"),
        "reuse.miss_latency_ms": (median(misses), "ms"),
        "reuse.cache_evictions": (delta("cache_evictions"), "count"),
        "sim.timeline_segments_max": (delta("segments_max"), "count"),
        "trace.overhead_pct": ((_ratio(untraced_qps, traced_qps) - 1) * 100, "%"),
        "trace.parity_dev": (parity, "ratio"),
    }
    layers = SERVE_LAYERS if serve else SOLO_LAYERS
    details = {
        "self_time_ms": {name: {"median": median(selfs[name]) * 1e3,
                                "total": sum(selfs[name]) * 1e3,
                                "spans": len(selfs[name])}
                         for name in ("query",) + layers},
        "reported_as_zero": (
            {"plan.*, core.lower_ms, core.instances, core.edges, core.run_ms, "
             "jit.tuples_per_run_s": "these calls run inside the scheduler, "
             "which the benchmark spans only at Submit/Wait"}
            if serve else
            {"sched.*, reuse.* (but reuse.miss_latency_ms)":
             "solo queries bypass the scheduler and run with reuse off"}),
        "host.qps": {"measure": "median over untraced passes of queries / pass wall",
                     "passes": len(_by_pass(untraced))},
        "host.latency_tail": {"percentile": host_label, "samples": host_n,
                              "beyond": host_beyond},
        "bases": {
            "core.program_cache_hit_rate": {"hits": delta("program_hits"),
                                            "lookups": program_lookups},
            "reuse.cache_hit_rate": {"hits": delta("cache_hits"),
                                     "lookups": cache_lookups},
            "reuse.share_attach_rate": {"attaches": delta("share_attaches"),
                                        "builds": delta("share_builds")},
            "reuse.hit_latency_ms": {"samples": len(hits)},
            "reuse.miss_latency_ms": {"samples": len(misses)},
            "plan.estimate_ratio": {"estimate_s": est_sum, "modeled_s": mod_sum},
            "jit.tuples_per_run_s": {"tuples": tuples, "run_s": run_s},
            "memory.ht_bytes_peak": {"peak_bytes": ht_peak,
                                     "placed_bytes": record["placed_bytes"]},
            "trace.overhead_pct": {"untraced_qps": untraced_qps,
                                   "traced_qps": traced_qps,
                                   "untraced_samples": len(untraced),
                                   "traced_samples": len(traced)},
            "trace.parity_dev": {"bound": parity_bound},
        },
        "counters": {
            "traced": {k: delta(k) for k in passes[0]["delta"]} if passes else {},
            "untraced": {k: delta(k, [p for p in passes if not p["traced"]])
                         for k in passes[0]["delta"]} if passes else {},
        },
    }
    parity_ok = bool(traced) and bool(untraced) and parity <= parity_bound
    return metrics, details, len(samples), count_failures(samples), parity_ok


def parity_deviation(traced, untraced, serve):
    """Relative gap between the modeled sweeps of the traced and the untraced
    passes (a serve batch's median latency moves with its arrivals; its summed
    work does not)."""
    t, u = modeled_sweep_s(traced, serve), modeled_sweep_s(untraced, serve)
    return abs(t - u) / u if u else math.inf
