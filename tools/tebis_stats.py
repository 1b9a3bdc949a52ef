#!/usr/bin/env python3
"""Pretty-printer for Tebis telemetry scrapes (PR 5, cluster mode PR 10).

Reads either a single-node scrape -- the JSON payload produced by the
kStatsScrape admin RPC (TebisClient::ScrapeStats), RegionServer::ScrapeJson(),
or SimCluster::ScrapeJson() -- shape:

    {"node": "...", "metrics": {"name{k=v,...}": value, ...},
     "slow_ops": [...], "spans": {"traceEvents": [...]}}

or (with --cluster, auto-detected) the federated document the master's scrape
fan-out assembles (Master::ClusterStatsJson / ClusterScraper::ClusterJson):

    {"cluster": {...}, "nodes": {...}, "totals": {...}, "metrics": {...},
     "histograms": {...}, "slow_ops": {...}}

and renders:
  * metrics grouped by subsystem prefix (kv., repl., backup., net., ...),
    label sets aligned, values humanized (ns -> ms, bytes -> MiB);
  * per-trace span trees reconstructed from the chrome trace events,
    ordered by start time, with durations (request trees and compaction
    pipelines alike);
  * cluster mode: per-node health columns with staleness markers, counter
    totals, merged histograms with interpolated percentiles and their
    exemplars, and every node's slow-op ring.

Usage:
    tebis_stats.py [scrape.json]          # read file (default: stdin)
    tebis_stats.py --cluster cluster.json # federated document
    tebis_stats.py --trace 0x8000...      # exemplar -> trace lookup
    tebis_stats.py --traces-out out.json  # also write chrome://tracing JSON
    tebis_stats.py --raw                  # no humanization of values
"""

import argparse
import json
import re
import sys
from collections import defaultdict

METRIC_RE = re.compile(r"^(?P<name>[^{]+)(?:\{(?P<labels>.*)\})?$")

# Order spans appear in their pipeline, for stable tree rendering. Ranks 0-4
# are the compaction shipping pipeline (PR 5); 10+ are the request path
# (PR 10) -- the two families never share a trace id (request ids have bit 63
# set), so one table serves both.
SPAN_ORDER = {"claim": 0, "merge_build": 1, "ship_segment": 2,
              "rewrite_segment": 3, "commit": 4,
              "client": 10, "primary_apply": 11, "engine_apply": 12,
              "doorbell": 13, "backup_commit": 14}

# Indentation depth per request-path span (client wraps primary wraps engine
# wraps doorbell; backup_commit is the doorbell's remote half).
SPAN_DEPTH = {"client": 1, "primary_apply": 2, "engine_apply": 3,
              "doorbell": 4, "backup_commit": 4}

# Mirrors Histogram's bucket layout (src/common/histogram.h): 64 power-of-two
# groups x kSubBuckets linear sub-buckets.
SUB_BUCKETS = 32


def parse_metric_key(key):
    """Split 'name{k=v,k2=v2}' into (name, {k: v})."""
    m = METRIC_RE.match(key)
    if m is None:
        return key, {}
    labels = {}
    raw = m.group("labels")
    if raw:
        for pair in raw.split(","):
            k, _, v = pair.partition("=")
            labels[k] = v
    return m.group("name"), labels


def bucket_upper_bound(index):
    """Inclusive upper bound of bucket `index` (Histogram::BucketUpperBound)."""
    if index < SUB_BUCKETS:
        return index
    group = (index - SUB_BUCKETS) // SUB_BUCKETS
    sub = (index - SUB_BUCKETS) % SUB_BUCKETS
    if group >= 58:  # saturates in the C++ too
        return (1 << 64) - 1
    return ((SUB_BUCKETS + sub + 1) << group) - 1


def bucket_lower_bound(index):
    return 0 if index == 0 else bucket_upper_bound(index - 1) + 1


def percentile_from_buckets(buckets, count, max_value, p):
    """Percentile estimate from a sparse [[index, count], ...] bucket list.

    Interpolates linearly *within* the landing bucket instead of reporting its
    upper bound, and clamps that bucket's bound to the observed max -- the
    fix for the last-bucket boundary: the top bucket's nominal bound is a
    power-of-two edge (up to 2^64-1 after saturation), so the old
    report-the-bound behavior inflated p99 by up to 2x whenever the target
    sample sat in the final occupied bucket.
    """
    if count == 0:
        return 0
    target = p / 100.0 * count
    seen = 0
    for index, n in sorted(buckets):
        if n == 0:
            continue
        if seen + n >= target:
            lo = bucket_lower_bound(index)
            hi = min(bucket_upper_bound(index), max_value)
            if hi <= lo:
                return min(hi, max_value)
            fraction = (target - seen) / n
            return min(int(lo + fraction * (hi - lo)), max_value)
        seen += n
    return max_value


def humanize(name, value):
    if not isinstance(value, (int, float)):
        return str(value)
    if name.endswith("_ns") or "_ns_" in name:
        if value >= 1e9:
            return f"{value / 1e9:.3f} s"
        if value >= 1e6:
            return f"{value / 1e6:.3f} ms"
        if value >= 1e3:
            return f"{value / 1e3:.3f} us"
        return f"{value:.0f} ns"
    if "bytes" in name:
        if value >= 1 << 30:
            return f"{value / (1 << 30):.2f} GiB"
        if value >= 1 << 20:
            return f"{value / (1 << 20):.2f} MiB"
        if value >= 1 << 10:
            return f"{value / (1 << 10):.2f} KiB"
        return f"{value:.0f} B"
    if isinstance(value, float):
        return f"{value:g}"
    return f"{value}"


def print_metrics(metrics, raw):
    # subsystem -> [(name, labels-str, value)]
    groups = defaultdict(list)
    for key, value in metrics.items():
        name, labels = parse_metric_key(key)
        subsystem = name.split(".", 1)[0] if "." in name else "(other)"
        label_str = ",".join(f"{k}={v}" for k, v in sorted(labels.items()))
        groups[subsystem].append((name, label_str, value))

    for subsystem in sorted(groups):
        rows = sorted(groups[subsystem])
        print(f"\n== {subsystem} ==")
        name_w = max(len(r[0]) for r in rows)
        label_w = max(len(r[1]) for r in rows)
        for name, label_str, value in rows:
            shown = str(value) if raw else humanize(name, value)
            print(f"  {name:<{name_w}}  {label_str:<{label_w}}  {shown}")


def print_filter_summary(metrics):
    """Derived bloom-filter effectiveness (PR 7): per-level skip and
    false-positive rates on the primary read path (kv.filter_*, labeled by
    level) plus the aggregate over the backup replica read path
    (backup.filter_*). Rates are ratios of raw counters, so this section is
    unaffected by --raw."""
    # scope -> {"checks": n, "negatives": n, "false_positives": n}
    scopes = defaultdict(lambda: defaultdict(int))
    for key, value in metrics.items():
        name, labels = parse_metric_key(key)
        for prefix, scope in (("kv.filter_", labels.get("level", "?")),
                              ("backup.filter_", "backup")):
            if name.startswith(prefix):
                field = name[len(prefix):]
                if field in ("checks", "negatives", "false_positives"):
                    scopes[scope][field] += value
    rows = [(scope, c) for scope, c in sorted(scopes.items()) if c.get("checks")]
    if not rows:
        return
    print("\n== filter effectiveness ==")
    for scope, c in rows:
        checks = c["checks"]
        negatives = c.get("negatives", 0)
        false_pos = c.get("false_positives", 0)
        maybes = checks - negatives
        fp_rate = f"{100.0 * false_pos / maybes:.2f}% fp" if maybes else "no maybes"
        print(f"  {scope:<8} {checks:>10} checks"
              f"  {100.0 * negatives / checks:6.2f}% skipped"
              f"  {fp_rate}")


def print_integrity_summary(metrics):
    """Derived integrity health (PR 8): scrub coverage, corruption
    detections by path, repair traffic, and any levels still quarantined.
    Raw-counter ratios and sums, so this section is unaffected by --raw."""
    totals = defaultdict(int)
    read_corruptions = defaultdict(int)
    for key, value in metrics.items():
        name, labels = parse_metric_key(key)
        if name.startswith("integrity."):
            totals[name[len("integrity."):]] += value
        elif name == "kv.read_corruptions":
            read_corruptions[labels.get("source", "?")] += value
        elif name == "backup.segments_crc_rejected":
            totals["ship_crc_rejected"] += value
    if not totals and not read_corruptions:
        return
    print("\n== integrity ==")
    print(f"  scrubbed          {humanize('bytes', totals.get('scrub_bytes', 0))}")
    found = totals.get("corruptions_found", 0)
    repaired = totals.get("corruptions_repaired", 0)
    print(f"  corruptions       {found} found, {repaired} repaired"
          f" ({found - repaired} outstanding)")
    if read_corruptions:
        by_src = ", ".join(f"{v} from {k}" for k, v in sorted(read_corruptions.items()))
        print(f"  read-path hits    {by_src}")
    print(f"  repair traffic    {totals.get('repair_fetches', 0)} fetched,"
          f" {totals.get('repair_serves', 0)} served to peers")
    if totals.get("ship_crc_rejected"):
        print(f"  ship rejects      {totals['ship_crc_rejected']} shipped segments"
              " failed payload crc")
    quarantined = totals.get("quarantined_levels", 0)
    status = "none -- healthy" if not quarantined else f"{quarantined} LEVELS DEGRADED"
    print(f"  quarantined       {status}")


def aggregate_metrics(metrics, wanted_prefix):
    """Sum counters and fold histogram suffix keys for one name prefix.

    Returns (totals, hists): totals[full_name] sums plain values across label
    sets; hists[full_name][suffix] sums counts and keeps the max of
    p50/p99/max (a conservative cluster-wide view)."""
    totals = defaultdict(int)
    hists = defaultdict(dict)
    hist_re = re.compile(r"^(?P<name>" + re.escape(wanted_prefix) +
                         r"[^{]+?)(?:\{.*\})?_(?P<suffix>count|p50|p99|max)$")
    for key, value in metrics.items():
        m = hist_re.match(key)
        if m is not None:
            name, suffix = m.group("name"), m.group("suffix")
            if suffix == "count":
                hists[name][suffix] = hists[name].get(suffix, 0) + value
            else:
                hists[name][suffix] = max(hists[name].get(suffix, 0), value)
            continue
        name, _ = parse_metric_key(key)
        if name.startswith(wanted_prefix) and not name.endswith("_exemplars"):
            totals[name] += value
    return totals, hists


def print_write_path_summary(metrics):
    """Derived write-path health (PR 9): group-commit batching on the engine
    (wp.batch_* from KvStore::WriteBatch) and doorbell coalescing on the
    replication plane (wp.doorbell* from PrimaryRegion). Histogram samples
    arrive as name{labels}_count/_p50/_p99/_max keys. Raw-counter ratios, so
    unaffected by --raw."""
    totals, hists = aggregate_metrics(metrics, "wp.")
    if not totals and not hists:
        return
    print("\n== write path ==")
    groups = totals.get("wp.batch_groups", 0)
    ops = totals.get("wp.batch_ops", 0)
    if groups:
        print(f"  group commit      {groups} groups, {ops} ops"
              f" ({ops / groups:.1f} ops/group)")
    size_h = hists.get("wp.batch_size", {})
    if size_h.get("count"):
        print(f"  batch size        p50 {size_h.get('p50', 0)}"
              f"  p99 {size_h.get('p99', 0)}  max {size_h.get('max', 0)}"
              f"  ({size_h['count']} groups sampled)")
    lat_h = hists.get("wp.group_commit_latency_ns", {})
    if lat_h.get("count"):
        print(f"  group latency     p50 {humanize('_ns', lat_h.get('p50', 0))}"
              f"  p99 {humanize('_ns', lat_h.get('p99', 0))}"
              f"  max {humanize('_ns', lat_h.get('max', 0))}")
    doorbells = totals.get("wp.doorbells", 0)
    records = totals.get("wp.doorbell_records", 0)
    if doorbells:
        print(f"  doorbells         {doorbells} writes carried {records} records"
              f" ({records / doorbells:.1f} records/doorbell coalesced)")


# The health gauge family (PR 10): HealthWatchdog publishes one gauge per
# subsystem detector plus the node rollup; 0 green / 1 yellow / 2 red.
HEALTH_GAUGES = ["health.node", "health.flow_control", "health.compaction",
                 "health.integrity", "health.replication"]
HEALTH_COLORS = {0: "green", 1: "yellow", 2: "red"}


def health_color(value):
    return HEALTH_COLORS.get(int(value), f"?{value}")


def print_health_summary(metrics, default_node="?"):
    """Watchdog verdicts (PR 10), one row per node seen in the labels.

    A single-node scrape publishes the gauges unlabeled; `default_node`
    (the document's own node name) fills the row label there."""
    # node -> {gauge: value}
    nodes = defaultdict(dict)
    for key, value in metrics.items():
        name, labels = parse_metric_key(key)
        if name in HEALTH_GAUGES:
            nodes[labels.get("node", default_node)][name] = value
    if not nodes:
        return
    print("\n== health ==")
    for node, gauges in sorted(nodes.items()):
        overall = health_color(gauges.get("health.node", 0))
        detail = "  ".join(
            f"{g.split('.', 1)[1]}={health_color(v)}"
            for g, v in sorted(gauges.items()) if g != "health.node")
        print(f"  {node:<12} {overall:<7} {detail}")


def parse_exemplars(text):
    """'0x<trace>@<value>,...' -> [(trace-hex-str, value), ...]."""
    out = []
    for item in str(text).split(","):
        trace, _, value = item.partition("@")
        if trace and value:
            out.append((trace, int(value)))
    return out


def print_request_latency_summary(metrics, raw):
    """Sampled request latency (PR 10): the trace.request_latency_ns
    histograms, one row per op label, with their exemplars so a bad
    percentile can be chased to the trace that produced it."""
    rows = {}
    exemplars = {}
    for key, value in metrics.items():
        if "trace.request_latency_ns" not in key:
            continue
        _, labels = parse_metric_key(key.rsplit("_", 1)[0]
                                     if key.endswith(("_count", "_p50", "_p99", "_max"))
                                     else key)
        op = labels.get("op", "?")
        if key.endswith("_exemplars"):
            exemplars.setdefault(op, []).extend(parse_exemplars(value))
        else:
            suffix = key.rsplit("_", 1)[1]
            if suffix in ("count", "p50", "p99", "max"):
                rows.setdefault(op, {})[suffix] = value
    rows = {op: r for op, r in rows.items() if r.get("count")}
    if not rows:
        return
    print("\n== request latency (sampled) ==")
    fmt = (lambda v: str(v)) if raw else (lambda v: humanize("_ns", v))
    for op, r in sorted(rows.items()):
        print(f"  {op:<8} {r['count']:>8} sampled"
              f"  p50 {fmt(r.get('p50', 0))}"
              f"  p99 {fmt(r.get('p99', 0))}"
              f"  max {fmt(r.get('max', 0))}")
        for trace, value in exemplars.get(op, []):
            print(f"           exemplar {trace} @ {fmt(value)}")


def print_slow_ops(records, indent="  "):
    for r in records:
        stages = (f"engine {humanize('_ns', r.get('engine_ns', 0))}"
                  f" doorbell {humanize('_ns', r.get('doorbell_ns', 0))}"
                  f" backup {humanize('_ns', r.get('backup_commit_ns', 0))}")
        trace = r.get("trace", "0x0")
        trace_note = f"  trace {trace}" if trace not in ("0x0", "0") else ""
        print(f"{indent}{r.get('op', '?'):<7} key={r.get('key_prefix', '')!r:<20}"
              f" region {r.get('region', '?')} epoch {r.get('epoch', '?')}"
              f"  total {humanize('_ns', r.get('total_ns', 0))} ({stages}){trace_note}")


def print_slow_ops_section(doc):
    records = doc.get("slow_ops", [])
    if not records:
        return
    print(f"\n== slow ops ({len(records)} recorded) ==")
    print_slow_ops(records)


def print_traces(spans, trace_filter=None):
    events = spans.get("traceEvents", []) if isinstance(spans, dict) else spans
    pid_names = {}
    complete = []
    for ev in events:
        if ev.get("ph") == "M" and ev.get("name") == "process_name":
            pid_names[ev.get("pid")] = ev.get("args", {}).get("name", "?")
        elif ev.get("ph") == "X":
            complete.append(ev)
    if trace_filter:
        complete = [ev for ev in complete
                    if ev.get("args", {}).get("trace") == trace_filter]
    if not complete:
        print("\n(no spans recorded)" if not trace_filter
              else f"\n(no spans for trace {trace_filter})")
        return

    # (trace id, compaction id) identifies one pipeline run even when a
    # stream id is reused across compactions within an epoch. Request traces
    # (bit-63 ids) always carry compaction 0, so the pair is just the id.
    traces = defaultdict(list)
    for ev in complete:
        args = ev.get("args", {})
        traces[(args.get("trace", "?"), args.get("compaction", "?"))].append(ev)

    print(f"\n== traces ({len(traces)} trees, {len(complete)} spans) ==")
    for (trace_id, compaction), evs in sorted(
            traces.items(), key=lambda item: min(e["ts"] for e in item[1])):
        evs.sort(key=lambda e: (SPAN_ORDER.get(e["name"], 99), e["ts"]))
        base_ts = min(e["ts"] for e in evs)
        request = any(e["name"] in SPAN_DEPTH for e in evs)
        kind = "request" if request else f"compaction #{compaction}"
        print(f"\n  trace {trace_id} ({kind})")
        for ev in evs:
            node = pid_names.get(ev.get("pid"), "?")
            args = ev.get("args", {})
            depth = SPAN_DEPTH.get(
                ev["name"], 1 if SPAN_ORDER.get(ev["name"], 99) < 2 else 2)
            extra = ""
            if args.get("bytes"):
                extra += f"  {humanize('bytes', args['bytes'])}"
            src, dst = args.get("src_level", -1), args.get("dst_level", -1)
            if src >= 0 or dst >= 0:
                extra += f"  L{src}->L{dst}"
            print(f"  {'  ' * depth}{ev['name']:<16} [{node}]"
                  f"  +{(ev['ts'] - base_ts) / 1000.0:9.3f} ms"
                  f"  dur {ev.get('dur', 0) / 1000.0:9.3f} ms{extra}")


def print_cluster(doc, raw, trace_filter):
    """The federated document: health columns, totals, merged histograms with
    interpolated percentiles, exemplars, per-node slow-op rings."""
    cluster = doc.get("cluster", {})
    print(f"cluster: {cluster.get('nodes', '?')} nodes,"
          f" {cluster.get('stale_nodes', 0)} stale,"
          f" {cluster.get('rounds', 0)} scrape rounds,"
          f" health {cluster.get('health', '?')}")

    nodes = doc.get("nodes", {})
    if nodes:
        print("\n== nodes ==")
        name_w = max(len(n) for n in nodes)
        for name, state in sorted(nodes.items()):
            flags = ""
            if state.get("stale"):
                flags = f"  STALE ({state.get('missed_scrapes', '?')} missed scrapes)"
            print(f"  {name:<{name_w}}  {state.get('health', '?'):<7}{flags}")

    totals = doc.get("totals", {})
    if totals:
        groups = defaultdict(list)
        for name, value in totals.items():
            groups[name.split(".", 1)[0] if "." in name else "(other)"].append(
                (name, value))
        print("\n== cluster totals (counters summed) ==")
        for subsystem in sorted(groups):
            for name, value in sorted(groups[subsystem]):
                shown = str(value) if raw else humanize(name, value)
                print(f"  {name:<44} {shown}")

    metrics = doc.get("metrics", {})
    print_health_summary(metrics)
    print_filter_summary(metrics)
    print_integrity_summary(metrics)
    print_write_path_summary(metrics)

    histograms = doc.get("histograms", {})
    if histograms:
        print("\n== merged histograms ==")
        fmt = (lambda n, v: str(v)) if raw else humanize
        for name, h in sorted(histograms.items()):
            count, mx = h.get("count", 0), h.get("max", 0)
            buckets = h.get("buckets", [])
            # Recompute from the merged buckets with within-bucket
            # interpolation (the embedded p50/p99 are bucket upper bounds).
            p50 = percentile_from_buckets(buckets, count, mx, 50)
            p99 = percentile_from_buckets(buckets, count, mx, 99)
            print(f"  {name:<36} count {count:>8}"
                  f"  p50 {fmt(name, p50)}  p99 {fmt(name, p99)}"
                  f"  max {fmt(name, mx)}")
            for e in h.get("exemplars", []):
                marker = " <--" if trace_filter and e.get("trace") == trace_filter else ""
                print(f"      exemplar {e.get('trace')} @ {fmt(name, e.get('value', 0))}"
                      f" [{e.get('node', '?')}]{marker}")

    slow = doc.get("slow_ops", {})
    if slow:
        print("\n== slow ops ==")
        for node, records in sorted(slow.items()):
            print(f"  {node}:")
            print_slow_ops(records, indent="    ")

    if trace_filter:
        hits = []
        for name, h in histograms.items():
            for e in h.get("exemplars", []):
                if e.get("trace") == trace_filter:
                    hits.append((name, e))
        for node, records in slow.items():
            for r in records:
                if r.get("trace") == trace_filter:
                    hits.append((f"slow-op ring on {node}", r))
        print(f"\n== trace {trace_filter} ==")
        if hits:
            for where, _ in hits:
                print(f"  seen in {where}")
            print("  (fetch the owning node's scrape for the span tree)")
        else:
            print("  not referenced by any exemplar or slow-op record")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("scrape", nargs="?", help="scrape JSON file (default: stdin)")
    parser.add_argument("--cluster", action="store_true",
                        help="input is the master's federated cluster document"
                             " (auto-detected from the payload shape)")
    parser.add_argument("--trace", metavar="ID",
                        help="look up one trace id (as printed by exemplars,"
                             " e.g. 0x8000abc...): filter span trees to it and"
                             " mark every exemplar/slow-op referencing it")
    parser.add_argument("--traces-out", metavar="FILE",
                        help="write the embedded chrome://tracing JSON to FILE")
    parser.add_argument("--raw", action="store_true",
                        help="print raw numbers (no ns/bytes humanization)")
    args = parser.parse_args()

    if args.scrape:
        with open(args.scrape) as f:
            doc = json.load(f)
    else:
        doc = json.load(sys.stdin)

    if args.cluster or "cluster" in doc:
        print_cluster(doc, args.raw, args.trace)
        return

    print(f"node: {doc.get('node', '?')}")
    print_metrics(doc.get("metrics", {}), args.raw)
    print_health_summary(doc.get("metrics", {}), doc.get("node", "?"))
    print_filter_summary(doc.get("metrics", {}))
    print_integrity_summary(doc.get("metrics", {}))
    print_write_path_summary(doc.get("metrics", {}))
    print_request_latency_summary(doc.get("metrics", {}), args.raw)
    print_slow_ops_section(doc)
    print_traces(doc.get("spans", {}), args.trace)

    if args.traces_out:
        with open(args.traces_out, "w") as f:
            json.dump(doc.get("spans", {}), f)
        print(f"\nwrote chrome://tracing JSON to {args.traces_out}"
              " (load via chrome://tracing or ui.perfetto.dev)")


if __name__ == "__main__":
    main()
