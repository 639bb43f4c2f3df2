"""Workload plans, reply checks and statistics of the request-level benchmark.

Pure functions only; run.py does the I/O (build, server, socket, tracer).

A *kind* is a (program, analysis, command) triple. Every workload has a
fixed round: a multiset of kinds chosen so that the reported percentiles
land inside one kind's latency cluster, never in the gap between two. The
seed changes only the order inside a round, the cache-busting tags and
which edits an edit chain makes.
"""

import hashlib
import json
import math
import random
import re

MIN_BEYOND = 10  # samples that must lie beyond a reported percentile
MIN_MEASURED = 100  # so that p90 has MIN_BEYOND samples beyond it

# --------------------------------------------------------------- workloads

# Costs that chose these mixes (median client-observed latency per kind,
# one 2-vCPU Xeon container) are in NOTES.md.
WORKLOADS = {
    "cold-analyze": {
        "mix": [
            (("eclipse", "ci", "analyze"), 1),
            (("eclipse", "csc", "analyze"), 1),
            (("hsqldb", "ci", "analyze"), 2),
            (("jython", "ci", "analyze"), 1),
            (("hsqldb", "csc", "analyze"), 3),
            (("jython", "csc", "analyze"), 2),
            (("findbugs", "doop-csc", "analyze"), 3),
        ],
        "warmup_passes": ["analyze", "analyze"],
    },
    "warm-query": {
        "mix": [],  # filled below
        "by_name": True,
        "warmup_passes": ["analyze", "check", "taint", "callgraph"],
    },
    "edit-session": {
        "chains": True,
        "mix": [
            (("eclipse", "ci", "analyze"), 1),
            (("eclipse", "ci", "update"), 4),
            (("eclipse", "csc", "analyze"), 1),
            (("eclipse", "csc", "update"), 4),
        ],
        "warmup_passes": ["chain"],
    },
}

_WARM_WEIGHTS = {"analyze": 1, "callgraph": 2, "check": 1, "taint": 1}
WORKLOADS["warm-query"]["mix"] = [
    ((prog, a, cmd), w)
    for prog in ("eclipse", "hsqldb", "jedit", "jython")
    for a in ("ci", "csc")
    for cmd, w in sorted(_WARM_WEIGHTS.items())
]

# ci_request_p50_s and csc_request_p50_s are over requests naming exactly
# these analyses; doop-csc counts only in the all-request metrics
FAMILIES = ("ci", "csc")


def pairs(workload):
    """The (program, analysis) pairs of a workload, sorted."""
    return sorted({(p, a) for (p, a, _), _ in WORKLOADS[workload]["mix"]})


def programs(workload):
    return sorted({p for p, _ in pairs(workload)})


def round_multiset(workload):
    """The fixed multiset of kinds of one measured round, as a sorted list."""
    out = []
    for kind, weight in WORKLOADS[workload]["mix"]:
        out.extend([kind] * weight)
    return sorted(out)


def round_kinds(workload, seed, r):
    """Kinds of measured round [r] in the order the seed gives them."""
    rng = random.Random(f"{workload}/{seed}/round/{r}")
    kinds = round_multiset(workload)
    if WORKLOADS[workload].get("chains"):
        # an edit chain must stay contiguous: the session anchors one
        # (revision, analysis) at a time, so interleaving chains would turn
        # every update into a fresh solve. Sorted, a pair's kinds are its
        # analyze followed by its updates.
        chains = pairs(workload)
        rng.shuffle(chains)
        return [k for pair in chains for k in kinds if k[:2] == pair]
    rng.shuffle(kinds)
    return kinds


def warmup_passes(workload):
    """Warm-up requests: one pass per entry, each over every (program,
    analysis) pair of the workload."""
    passes = []
    for cmd in WORKLOADS[workload]["warmup_passes"]:
        one = []
        for prog, a in pairs(workload):
            if cmd == "chain":
                one += [(prog, a, "analyze"), (prog, a, "update")]
            else:
                one.append((prog, a, cmd))
        passes.append(one)
    return passes


# ------------------------------------------------------------------ edits

_OP_HEAD = re.compile(r"\n  void (op\d+_\d+)\(int salt\) \{")
_CLASS_HEAD = re.compile(r"\nclass (\w+)")


def match_brace(src, i):
    """Index of the brace closing the one at [i], skipping strings and
    comments; None if unbalanced."""
    depth = 0
    n = len(src)
    while i < n:
        c = src[i]
        if c == '"':
            i += 1
            while i < n and src[i] != '"':
                i += 2 if src[i] == "\\" else 1
        elif src.startswith("//", i):
            i = src.find("\n", i)
            if i < 0:
                return None
        elif src.startswith("/*", i):
            i = src.find("*/", i)
            if i < 0:
                return None
            i += 1
        elif c == "{":
            depth += 1
        elif c == "}":
            depth -= 1
            if depth == 0:
                return i
        i += 1
    return None


def driver_ops(src):
    """Every [DriverD.opD_J(int salt)] of a suite program:
    (class, method, body) with the body between its braces."""
    ops = []
    classes = [(m.start(), m.group(1)) for m in _CLASS_HEAD.finditer(src)]
    for m in _OP_HEAD.finditer(src):
        cls = [c for s, c in classes if s < m.start()][-1]
        if not cls.startswith("Driver"):
            continue
        open_ = m.end() - 1
        close = match_brace(src, open_)
        ops.append((cls, m.group(1), src[open_ + 1 : close]))
    return ops


def apply_replace(src, cls, meth, body):
    """The source after replacing [cls.meth]'s body, spelled exactly as the
    server's patcher spells it, so the digest of the result can be
    predicted."""
    c = re.search(r"\nclass " + re.escape(cls) + r"\b", src)
    m = re.compile(r"\n  void " + re.escape(meth) + r"\(int salt\) \{").search(
        src, c.end()
    )
    open_ = m.end() - 1
    close = match_brace(src, open_)
    return src[: open_ + 1] + "\n" + body + "\n  " + src[close:]


def pick_edit(rng, ops):
    """Replace the body of one op with the body of another: both are
    self-contained statement lists over [salt] and locals."""
    target = rng.randrange(len(ops))
    donor = rng.randrange(len(ops) - 1)
    if donor >= target:
        donor += 1
    cls, meth, _ = ops[target]
    return {"op": "replace", "class": cls, "method": meth,
            "body": ops[donor][2].strip("\n")}


def digest(src):
    return hashlib.md5(src.encode()).hexdigest()


def tag(src, label):
    """A cache-busting comment: a new revision with the same program."""
    return src + "\n// perfbench " + label + "\n"


# --------------------------------------------------------------- checking


def callgraph_edges(dot):
    return sum(1 for line in dot.splitlines() if "->" in line)


def kind_key(prog, analysis):
    return prog + "/" + analysis


def check_reply(kind, reply, expected):
    """None if [reply] is a correct answer to a request of [kind], else the
    reason it is not. [expected] is the committed table (expected.json).
    Update outcomes are checked against a fresh analyze separately."""
    prog, analysis, cmd = kind
    if not isinstance(reply, dict) or reply.get("ok") is not True:
        err = reply.get("error") if isinstance(reply, dict) else reply
        return f"{cmd} {prog}/{analysis}: not ok: {err}"
    res = reply.get("result", {})
    key = kind_key(prog, analysis)
    if cmd == "update":
        outcome = res.get("outcome", {})
        if outcome.get("timeout") is not False or "metrics" not in outcome:
            return f"update {key}: no outcome"
        return None
    if res.get("analysis") != analysis:
        return f"{cmd} {key}: answered for {res.get('analysis')!r}"
    if cmd == "analyze":
        got, want = res.get("metrics"), expected["analyze"].get(key)
    elif cmd in ("check", "taint"):
        got, want = res.get("count"), expected[cmd].get(key)
    elif cmd == "callgraph":
        got, want = callgraph_edges(res.get("dot", "")), expected[cmd].get(key)
    else:
        return f"unexpected command {cmd}"
    if want is None:
        return f"{cmd} {key}: no expected value committed"
    if got != want:
        return f"{cmd} {key}: got {got}, expected {want}"
    return None


# ------------------------------------------------------------- statistics


def percentile(values, q):
    """Nearest-rank [q]-quantile of [values]. Raises ValueError unless at
    least MIN_BEYOND samples lie strictly beyond the rank it returns."""
    n = len(values)
    rank = max(1, math.ceil(q * n))
    if n - rank < MIN_BEYOND:
        raise ValueError(
            f"p{round(q * 100)} of {n} samples has {n - rank} beyond it "
            f"(need {MIN_BEYOND})"
        )
    return sorted(values)[rank - 1]


# ------------------------------------------------------------ speed scale

# Every reported time is scaled to a host on which one unit of the speed
# reference (perfbench/_ref) takes REF_UNIT_S, the kernel's median on the
# 2-vCPU Xeon host of NOTES.md. The reference is timed in short blocks
# interleaved with the requests, so a host that runs 1.5x slower for a
# while slows both and the scaled time stays put.
REF_UNIT_S = 0.0033
REF_NEIGHBOURS = 9  # reference blocks that make one local speed estimate


def local_unit(t, blocks, k=REF_NEIGHBOURS):
    """Median reference unit time of the [k] blocks nearest in time to [t].
    [blocks] is a list of (time, seconds per unit)."""
    if not blocks:
        raise ValueError("no reference blocks")
    near = sorted(blocks, key=lambda b: abs(b[0] - t))[:k]
    return median([u for _, u in near])


def scaled(seconds, unit):
    """[seconds] measured while one reference unit took [unit], scaled to a
    host where it takes REF_UNIT_S."""
    return seconds * REF_UNIT_S / unit


def median(values):
    s = sorted(values)
    n = len(s)
    if n == 0:
        raise ValueError("median of no samples")
    return s[n // 2] if n % 2 else (s[n // 2 - 1] + s[n // 2]) / 2


def result_line(correct, attempted, failed, metrics):
    """The benchmark's last stdout line. [metrics] maps name -> (value,
    unit)."""
    return json.dumps(
        {
            "correct": correct,
            "attempted": attempted,
            "failed": failed,
            "metrics": {
                k: {"value": v, "unit": u} for k, (v, u) in metrics.items()
            },
        }
    )
