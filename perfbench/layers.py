"""Per-layer metrics of the benchmark (--trace 1).

run.py records the request stream of a socket run; the OCaml tracer
(perfbench/_tracer) replays it in-process, once through the server's router
and once through a mirror of it with a span around every call into a layer.
This module turns the tracer's output into the per-layer metrics, checks
the replayed replies, and verifies the accounting identity: for every
request kind, the mean self times of all spans plus the mean unattributed
time equal the mean traced latency.
"""

import json
import math
import os
import subprocess
import sys

import bench

MB = 1e6


def log(*a):
    print(*a, file=sys.stderr, flush=True)


def _med(values):
    return bench.median(values) if values else 0.0


def _geomean(values):
    values = [v for v in values if v > 0]
    if not values:
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))


def self_times(spans):
    """{request: {span name: self seconds}} and {request: root seconds}.
    A span's self time is its duration minus its children's durations;
    children never overlap, so this is the part no child covers."""
    child = {}
    for s in spans:
        if s["parent"] >= 0:
            child[s["parent"]] = child.get(s["parent"], 0.0) + s["dur"]
    selfs, roots = {}, {}
    for s in spans:
        own = s["dur"] - child.get(s["idx"], 0.0)
        name = "unattributed" if s["parent"] < 0 else s["name"]
        per = selfs.setdefault(s["req"], {})
        per[name] = per.get(name, 0.0) + own
        if s["parent"] < 0:
            roots[s["req"]] = s["dur"]
    return selfs, roots


def identity(reqs, selfs, roots):
    """Per kind: mean latency and mean self time per span name. Raises if
    the self times do not add up to the latency."""
    by_kind = {}
    for i, r in enumerate(reqs):
        if r["phase"] == "measured":
            by_kind.setdefault(tuple(r["kind"]), []).append(i)
    table = {}
    for kind, idxs in sorted(by_kind.items()):
        n = len(idxs)
        lat = sum(roots[i] for i in idxs) / n
        names = sorted({k for i in idxs for k in selfs[i]})
        mean_self = {k: sum(selfs[i].get(k, 0.0) for i in idxs) / n
                     for k in names}
        total = sum(mean_self.values())
        if abs(total - lat) > 1e-9 * max(1.0, lat) + 1e-12:
            raise AssertionError(f"{kind}: self times {total} != {lat}")
        table["/".join(kind)] = {"latency_s": lat, "self_s": mean_self}
    return table


def replay(tracer, workload, seed, record):
    base = os.path.join(".bench_build", f"trace-{workload}-{seed}")
    with open(base + ".replay", "w") as f:
        for phase, kind, line, _ in record:
            f.write(" ".join((phase,) + tuple(kind)) + "\n")
            f.write(line.decode())
    r = subprocess.run([tracer, base + ".replay", base + ".json"],
                       stdout=sys.stderr, stderr=sys.stderr, timeout=170)
    if r.returncode != 0:
        raise RuntimeError("tracer failed")
    with open(base + ".json") as f:
        doc = json.load(f)
    with open(base + ".json.replies") as f:
        replies = [json.loads(line) for line in f]
    os.remove(base + ".replay")
    os.remove(base + ".json.replies")
    return doc, replies


def check_replies(record, replies, client, expected):
    """The router pass must answer exactly as the socket run did."""
    errors = []
    updates = iter(client.updates)
    for (_, kind, _, _), reply in zip(record, replies):
        err = bench.check_reply(kind, reply, expected)
        if err is None and kind[2] == "update":
            got = reply["result"]["outcome"]["metrics"]
            want = next(updates, (None, None, None))[2]
            if got != want:
                err = f"replayed update {kind}: {got} != socket run {want}"
        if err:
            errors.append(err)
    return errors


def traced(tracer, workload, seed, record, client, expected):
    """(per-layer metrics, wrong replies) of one traced replay."""
    doc, replies = replay(tracer, workload, seed, record)
    errors = check_replies(record, replies, client, expected)
    fields = doc["spans_fields"]
    spans = []
    for idx, row in enumerate(doc["spans"]):
        s = dict(zip(fields, row))
        s["idx"], s["dur"] = idx, s["end"] - s["start"]
        spans.append(s)
    reqs = doc["requests"]
    selfs, roots = self_times(spans)
    table = identity(reqs, selfs, roots)
    for kind, row in table.items():
        parts = ", ".join(f"{k} {v * 1e3:.2f}" for k, v in
                          sorted(row["self_s"].items(), key=lambda kv: -kv[1])
                          if v >= 5e-5)
        log(f"  {kind:26s} {row['latency_s'] * 1e3:8.2f} ms = {parts}")

    measured = {i for i, r in enumerate(reqs) if r["phase"] == "measured"}
    mreqs = [reqs[i] for i in sorted(measured)]

    def span_by_req(name, key="dur"):
        per = {}
        for s in spans:
            if s["req"] in measured and s["name"] == name:
                per[s["req"]] = per.get(s["req"], 0.0) + s[key]
        return per

    def span_vals(name, key="dur"):
        return list(span_by_req(name, key).values())

    def fact(k, pred=lambda r: True):
        return [r[k] for r in mreqs if k in r and pred(r)]

    imp = lambda r: "time_s" in r and not r["kind"][1].startswith("doop")  # noqa: E731
    csc = lambda r: imp(r) and r["kind"][1] == "csc"  # noqa: E731
    dl = lambda r: "derived" in r  # noqa: E731

    def ratio(key):
        per_prog = []
        progs = {r["kind"][0] for r in mreqs if imp(r)}
        for p in sorted(progs):
            a = fact(key, lambda r: imp(r) and r["kind"][:2] == [p, "csc"])
            b = fact(key, lambda r: imp(r) and r["kind"][:2] == [p, "ci"])
            if a and b and _med(b) > 0:
                per_prog.append(_med(a) / _med(b))
        return _geomean(per_prog)

    solved_alloc = [s["alloc_bytes"] / MB for s in spans
                    if s["req"] in measured
                    and s["name"] in ("driver.outcome", "inc.update")
                    and reqs[s["req"]].get("time_s") is not None]
    dl_alloc = [s["alloc_bytes"] / MB for s in spans
                if s["req"] in measured and s["name"] == "driver.outcome"
                and dl(reqs[s["req"]])]
    updates = [r for r in mreqs if "inc_mode" in r]
    upd_ratio = [d / reqs[i]["fresh_s"]
                 for i, d in span_by_req("inc.update").items()
                 if reqs[i].get("fresh_s")]
    socket_lat = [dt for phase, _, _, dt in record if phase == "measured"]
    handle = [r["handle_s"] for r in mreqs]
    sess = doc["session"]
    looked = sess["measured_hits"] + sess["measured_misses"]
    traced_total = sum(roots[i] for i in measured)

    m = {
        "lang.compile_s": (_med(span_vals("lang.compile")), "s"),
        "lang.alloc_mb": (_med([a / MB for a in
                                span_vals("lang.compile", "alloc_bytes")]), "MB"),
        "lang.ir_stmts": (_med(fact("ir_stmts")), "count"),
        "workloads.source_s": (_med(span_vals("workloads.source")), "s"),
        "workloads.alloc_mb": (_med([a / MB for a in span_vals(
            "workloads.source", "alloc_bytes")]), "MB"),
        "pta.solve_s": (_med(fact("time_s", imp)), "s"),
        "pta.project_s": (_med([r["o_time"] - r["time_s"] for r in mreqs
                                if imp(r)]), "s"),
        "pta.propagated": (_med(fact("propagated", imp)), "count"),
        "pta.pfg_edges": (_med(fact("pfg_edges", imp)), "count"),
        "pta.wl_pushes": (_med(fact("wl_pushes", imp)), "count"),
        "pta.ptrs": (_med(fact("ptrs", imp)), "count"),
        "pta.heap_words_peak": (_med(fact("heap_words_peak", imp)), "words"),
        "pta.alloc_mb": (_med(solved_alloc), "MB"),
        "core.shortcuts": (_med(fact("shortcuts", csc)), "count"),
        "core.load_shortcuts": (_med(fact("load_shortcuts", csc)), "count"),
        "core.csc_ci_edge_ratio": (ratio("pfg_edges"), "ratio"),
        "pta.csc_ci_solve_ratio": (ratio("time_s"), "ratio"),
        "inc.update_s": (_med(span_vals("inc.update")), "s"),
        "inc.fresh_s": (_med(fact("fresh_s")), "s"),
        "inc.update_fresh_ratio": (_med(upd_ratio), "ratio"),
        "inc.dirty_methods": (_med(fact("dirty_methods")), "count"),
        "inc.retracted": (_med(fact("retracted")), "count"),
        "inc.preloaded": (_med(fact("preloaded")), "count"),
        "inc.reuse_pct": (_med(fact("reuse_pct")), "%"),
        "inc.fallback_frac": (
            sum(r["inc_mode"] == "fresh" for r in updates) / len(updates)
            if updates else 0.0, "fraction"),
        "clients.metrics_s": (_med(fact("metrics_s")), "s"),
        "checks.check_s": (_med(span_vals("checks.check")), "s"),
        "checks.alloc_mb": (_med([a / MB for a in span_vals(
            "checks.check", "alloc_bytes")]), "MB"),
        "checks.diagnostics": (_med(fact("diagnostics")), "count"),
        "taint.taint_s": (_med(span_vals("taint.taint")), "s"),
        "taint.reports": (_med(fact("reports")), "count"),
        "driver.cache_hit_ratio": (
            sess["measured_hits"] / looked if looked else 0.0, "fraction"),
        "driver.evictions": (sess["measured_evictions"], "count"),
        "driver.cache_mb": (sess["bytes"] / MB, "MB"),
        "driver.render_s": (_med(span_vals("driver.render")), "s"),
        "driver.reply_kb": (_med([r["reply_bytes"] / 1024 for r in mreqs]),
                            "KiB"),
        "server.handle_s": (_med(handle), "s"),
        "server.ipc_s": (_med([s - h for s, h in zip(socket_lat, handle)]),
                         "s"),
        "datalog.solve_s": (_med(span_vals("datalog.solve")), "s"),
        "datalog.derived": (_med(fact("derived", dl)), "count"),
        "datalog.alloc_mb": (_med(dl_alloc), "MB"),
        "gc.minor_mb": (_med(fact("minor_mb")), "MB"),
        "gc.major_collections": (sum(fact("major_collections")), "count"),
        "unattributed_s": (_med([selfs[i].get("unattributed", 0.0)
                                 for i in measured]), "s"),
        "trace.overhead_frac": (traced_total / sum(handle) - 1, "fraction"),
    }
    return m, errors
