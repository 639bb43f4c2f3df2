#!/usr/bin/env python3
"""Request-level benchmark of the `cutshortcut serve` daemon.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. The script builds the CLI with
dune, starts `cutshortcut serve` on a unix socket, and drives it from one
connection in a closed loop: the next request is sent only once the
previous reply has arrived and been parsed. Every reply is checked.

--trace 0 prints the end-to-end metrics. --trace 1 makes the same socket
run, then replays the exact request stream in-process through a small
OCaml tracer (perfbench/_tracer) that times the calls into each layer, and
prints the per-layer metrics. The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics"}. The exit code is non-zero on
any wrong reply, build failure or missing source tree.

Every reported time is scaled by a speed reference (perfbench/_ref), a
fixed OCaml kernel timed in short blocks between the requests, so that a
host whose speed shifts between runs does not move the figures; the raw
times go to stderr and the machine record.

--capture-expected rewrites perfbench/expected.json from the current code
(after cross-checking imperative ci against Datalog doop-ci).
"""

import argparse
import gc
import json
import os
import random
import shutil
import socket
import subprocess
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import bench  # noqa: E402
import layers  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
WORK = ".bench_build"
EXE = os.path.join("_build", "default", "bin", "main.exe")
SETUP_REPS = 3
REF_EVERY_S = 0.5  # measured seconds between two speed-reference blocks
REF_BLOCK_UNITS = 8
MAX_MEM_MB = 8192  # no eviction: warm-query must stay all hits


def log(*a):
    print(*a, file=sys.stderr, flush=True)


def die(msg, code=2):
    log("perfbench: " + msg)
    sys.exit(code)


# ------------------------------------------------------------------ build


def dune_cmd():
    if shutil.which("dune"):
        return ["dune"]
    if shutil.which("opam"):
        return ["opam", "exec", "--", "dune"]
    die("dune not found on PATH")


def build_cli():
    for f in ("dune-project", os.path.join("bin", "main.ml"), "lib"):
        if not os.path.exists(f):
            die(f"no source tree here ({f} missing); run from a checkout")
    r = subprocess.run(
        dune_cmd() + ["build", "--root", ".", "./bin/main.exe"],
        stdout=sys.stderr, stderr=sys.stderr,
    )
    if r.returncode != 0 or not os.path.exists(EXE):
        die("building the CLI failed", 1)


def build_tracer():
    """Build perfbench/_tracer against a copy of the library tree, so the
    tracer is its own dune project and never part of the repository's
    build."""
    src = os.path.abspath(os.path.join(WORK, "tracer-src"))
    shutil.rmtree(src, ignore_errors=True)
    os.makedirs(src)
    shutil.copy("dune-project", src)
    shutil.copytree("lib", os.path.join(src, "lib"))
    shutil.copytree(os.path.join(HERE, "_tracer"), os.path.join(src, "tracer"))
    bdir = os.path.abspath(os.path.join(WORK, "tracer-build"))
    r = subprocess.run(
        dune_cmd() + ["build", "--root", src, "--build-dir", bdir,
                      "./tracer/trace.exe"],
        stdout=sys.stderr, stderr=sys.stderr,
    )
    exe = os.path.join(bdir, "default", "tracer", "trace.exe")
    if r.returncode != 0 or not os.path.exists(exe):
        die("building the tracer failed", 1)
    return exe


def build_ref():
    """Build the speed reference, a dune project of its own that does not
    link the library."""
    bdir = os.path.abspath(os.path.join(WORK, "ref-build"))
    r = subprocess.run(
        dune_cmd() + ["build", "--root", os.path.join(HERE, "_ref"),
                      "--build-dir", bdir, "./ref.exe"],
        stdout=sys.stderr, stderr=sys.stderr,
    )
    exe = os.path.join(bdir, "default", "ref.exe")
    if r.returncode != 0 or not os.path.exists(exe):
        die("building the speed reference failed", 1)
    return exe


def suite_source(prog):
    r = subprocess.run([EXE, "gen", prog], capture_output=True, text=True)
    if r.returncode != 0:
        die(f"gen {prog} failed: {r.stderr.strip()}", 1)
    return r.stdout


# ---------------------------------------------------------------- machine


def ref_loop():
    """A fixed pure-Python CPU loop; its time is reported, never used."""
    t = time.perf_counter()
    s = 0
    for i in range(1_000_000):
        s += i * i
    return time.perf_counter() - t


# the same loop in two fresh interpreters, both starting at a shared
# instant so that they really overlap
_LOOP = ("import sys, time\nstart = float(sys.argv[1])\n"
         "while time.time() < start:\n    time.sleep(0.001)\n"
         "def f():\n    t = time.perf_counter()\n    s = 0\n"
         "    for i in range(1_000_000):\n        s += i * i\n"
         "    return time.perf_counter() - t\nprint(f())")


def effective_cores():
    """Two overlapping spinning processes against one: 2.0 means two real
    cores, 1.0 means they share one."""
    one = ref_loop()
    start = str(time.time() + 0.3)
    procs = [subprocess.Popen([sys.executable, "-c", _LOOP, start],
                              stdout=subprocess.PIPE, text=True)
             for _ in range(2)]
    both = [float(p.communicate()[0]) for p in procs]
    return round(2 * one / max(both), 2)


def machine_record():
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        ocaml = subprocess.run(["ocamlfind", "ocamlopt", "-version"],
                               capture_output=True, text=True).stdout.strip()
    except OSError:
        ocaml = "unknown"
    return {"nproc": os.cpu_count(), "effective_cores": effective_cores(),
            "ocaml": ocaml or "unknown", "cpu": cpu}


class Speed:
    """The speed reference process. [block] runs REF_BLOCK_UNITS units while
    the server is idle and records (time, seconds per unit)."""

    def __init__(self, exe):
        self.proc = subprocess.Popen([exe], stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True)
        self.blocks = []
        self.spent = 0.0  # wall seconds inside blocks, to leave out of timings

    def block(self):
        t0 = time.perf_counter()
        self.proc.stdin.write(f"{REF_BLOCK_UNITS}\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            die("the speed reference died", 1)
        t1 = time.perf_counter()
        self.blocks.append(((t0 + t1) / 2, float(line) / REF_BLOCK_UNITS))
        self.spent += t1 - t0

    def stop(self):
        try:
            self.proc.stdin.close()
        except OSError:
            pass
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


# ----------------------------------------------------------------- server


class Server:
    def __init__(self, tag):
        self.sock_path = os.path.join(WORK, f"s{os.getpid()}-{tag}.sock")
        self.log = open(os.path.join(WORK, f"serve-{tag}.log"), "w")
        self.proc = subprocess.Popen(
            [EXE, "serve", "--socket", self.sock_path,
             "--max-mem", str(MAX_MEM_MB)],
            stdin=subprocess.DEVNULL, stdout=self.log, stderr=self.log,
        )
        deadline = time.monotonic() + 30
        while True:
            try:
                self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
                self.sock.connect(self.sock_path)
                break
            except OSError:
                self.sock.close()
                if self.proc.poll() is not None or time.monotonic() > deadline:
                    self.stop()
                    die("server did not start", 1)
                time.sleep(0.01)
        self.rfile = self.sock.makefile("rb")

    def call(self, line):
        """Send one request line; return the parsed reply and the seconds
        from send to parsed reply."""
        t0 = time.perf_counter()
        self.sock.sendall(line)
        raw = self.rfile.readline()
        reply = json.loads(raw) if raw else {"ok": False, "error": "hung up"}
        return reply, time.perf_counter() - t0

    def peak_rss_mb(self):
        with open(f"/proc/{self.proc.pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
        return float("nan")

    def stop(self):
        if self.proc.poll() is None:
            try:
                self.sock.sendall(b'{"cmd": "shutdown"}\n')
                self.rfile.readline()
            except OSError:
                pass
        try:
            self.sock.close()
        except OSError:
            pass
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.log.close()


# ----------------------------------------------------------------- client


class Client:
    """Builds request lines for kinds, follows edit chains, and records
    everything an untimed check or the tracer needs afterwards."""

    def __init__(self, workload, seed, sources, expected):
        self.workload = workload
        self.seed = seed
        self.sources = sources
        self.expected = expected
        self.ops = {p: bench.driver_ops(s) for p, s in sources.items()}
        self.edit_rng = random.Random(f"{workload}/{seed}/edits")
        self.chain = {}  # (prog, analysis) -> (source, digest)
        self.seen = set()
        self.n = 0
        self.updates = []  # (kind, edited source, outcome metrics)

    def request(self, kind):
        """(request line, pending) for [kind]; pending carries what the
        reply check needs."""
        prog, analysis, cmd = kind
        self.n += 1
        req = {"id": self.n, "cmd": cmd, "analysis": analysis}
        pending = {}
        if cmd == "analyze" and not bench.WORKLOADS[self.workload].get("by_name"):
            src = bench.tag(self.sources[prog],
                            f"{self.workload} {self.seed} {self.n}")
            req.update(source=src, name=prog)
            self.chain[(prog, analysis)] = (src, bench.digest(src))
            self.seen = {bench.digest(src)}
            pending["digest"] = bench.digest(src)
        elif cmd == "update":
            src, dig = self.chain[(prog, analysis)]
            while True:
                edit = bench.pick_edit(self.edit_rng, self.ops[prog])
                new = bench.apply_replace(src, edit["class"], edit["method"],
                                          edit["body"])
                if bench.digest(new) not in self.seen:
                    break
            self.seen.add(bench.digest(new))
            req.update(digest=dig, edits=[edit])
            self.chain[(prog, analysis)] = (new, bench.digest(new))
            pending.update(digest=bench.digest(new), source=new)
        else:
            req["program"] = prog
        return (json.dumps(req) + "\n").encode(), pending

    def check(self, kind, reply, pending):
        err = bench.check_reply(kind, reply, self.expected)
        if err is None and "digest" in pending:
            got = (reply["result"]["digest"] if kind[2] == "update"
                   else reply.get("digest"))
            if got != pending["digest"]:
                err = f"{kind}: digest {got} != {pending['digest']}"
        if err is None and kind[2] == "update":
            self.updates.append(
                (kind, pending["source"], reply["result"]["outcome"]["metrics"]))
        return err


def run_warmup(server, client, workload, record, speed):
    errors = []
    for one in bench.warmup_passes(workload):
        speed.block()
        for kind in one:
            line, pending = client.request(kind)
            reply, _ = server.call(line)
            record.append(("warmup", kind, line, None))
            err = client.check(kind, reply, pending)
            if err:
                errors.append(err)
    return errors


def measure(server, client, workload, seed, seconds, record, speed):
    """Whole rounds until [seconds] have passed and at least
    bench.MIN_MEASURED requests have completed, with a speed-reference
    block every REF_EVERY_S seconds (and one at each end). A sample is
    (kind, latency, time, span): span is the wall time since the end of the
    previous sample or block, client work included, so the spans add up to
    the phase's wall time without the blocks.

    The server's peak RSS is read once, at the end of the round that brings
    the phase to bench.MIN_MEASURED requests: the session caches every new
    revision, so a later reading would grow with the host's speed."""
    samples = []
    errors = []
    rss = None
    gc.disable()  # no client-side collector pauses inside the timings
    speed.block()
    t0 = last = prev = time.perf_counter()
    r = 0
    while time.perf_counter() - t0 < seconds or len(samples) < bench.MIN_MEASURED:
        for kind in bench.round_kinds(workload, seed, r):
            line, pending = client.request(kind)
            reply, dt = server.call(line)
            err = client.check(kind, reply, pending)
            now = time.perf_counter()
            samples.append((kind, dt, now - dt / 2, now - prev))
            record.append(("measured", kind, line, dt))
            if err:
                errors.append(err)
            if now - last >= REF_EVERY_S:
                speed.block()
                last = now = time.perf_counter()
            prev = now
        r += 1
        if rss is None and len(samples) >= bench.MIN_MEASURED:
            rss = server.peak_rss_mb()
            prev = time.perf_counter()
    speed.block()
    gc.enable()
    return samples, errors, r, rss


def check_updates(server, client):
    """Untimed: every update outcome must equal a fresh analyze of the same
    revision (tagged, so the server solves it from scratch)."""
    errors = []
    for (prog, analysis, _), src, metrics in client.updates:
        req = {"cmd": "analyze", "analysis": analysis, "name": prog,
               "source": bench.tag(src, "fresh check")}
        reply, _ = server.call((json.dumps(req) + "\n").encode())
        got = reply.get("result", {}).get("metrics") if reply.get("ok") else None
        if got != metrics:
            errors.append(f"update {prog}/{analysis}: outcome {metrics} != "
                          f"fresh analyze {got}")
    return errors


# ---------------------------------------------------------------- metrics


def end_to_end(samples, setups, rss_mb, attempted, failed):
    """[samples] are (kind, latency, span), times already scaled."""
    lat = [dt for _, dt, _ in samples]
    fam = {f: [dt for k, dt, _ in samples if k[1] == f]
           for f in bench.FAMILIES}
    return {
        "setup_s": (bench.median(setups), "s"),
        "request_p50_s": (bench.percentile(lat, 0.5), "s"),
        "request_p90_s": (bench.percentile(lat, 0.9), "s"),
        "requests_per_s": (len(samples) / sum(sp for _, _, sp in samples),
                           "1/s"),
        "ci_request_p50_s": (bench.percentile(fam["ci"], 0.5), "s"),
        "csc_request_p50_s": (bench.percentile(fam["csc"], 0.5), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
        "ok_rate": ((attempted - failed) / attempted, "fraction"),
    }


def per_kind_table(samples):
    by = {}
    for k, dt, _, _ in samples:
        by.setdefault(k, []).append(dt)
    for k in sorted(by):
        v = by[k]
        log(f"  {'/'.join(k):28s} n={len(v):4d} p50={bench.median(v):.4f}s "
            f"min={min(v):.4f}s max={max(v):.4f}s")


def declared_metrics(section):
    """Metric names BENCHMARK.json declares for [section], in order; None
    when there is no BENCHMARK.json next to the checkout's perfbench/."""
    path = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        return [m["name"] for m in json.load(f)[section]]


def load_expected():
    with open(os.path.join(HERE, "expected.json")) as f:
        return json.load(f)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(bench.WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--capture-expected", action="store_true")
    args = ap.parse_args()
    if not args.capture_expected and args.workload is None:
        ap.error("--workload is required")

    build_cli()
    os.makedirs(WORK, exist_ok=True)
    if args.capture_expected:
        import capture
        capture.capture(Server)
        return
    tracer = build_tracer() if args.trace else None
    speed = Speed(build_ref())
    try:
        run_workload(args, tracer, speed)
    finally:
        speed.stop()


def run_workload(args, tracer, speed):
    wl = args.workload
    expected = load_expected()
    sources = {p: suite_source(p) for p in bench.programs(wl)}
    machine = machine_record()
    machine["ref_loop_before_s"] = ref_loop()

    # set-up: spawn + warm-up passes, several times; the last one stays up
    errors, attempted = [], 0
    record = []
    reps = 1 if args.trace else SETUP_REPS
    raw_setups = []
    server = None
    try:
        for i in range(reps):
            if server is not None:
                server.stop()
            client = Client(wl, args.seed, sources, expected)
            speed.block()
            spent0 = speed.spent
            t0 = time.perf_counter()
            server = Server(f"{wl}-{args.seed}-{i}")
            record = []
            errors += run_warmup(server, client, wl, record, speed)
            t1 = time.perf_counter()
            raw_setups.append(((t0 + t1) / 2,
                               t1 - t0 - (speed.spent - spent0)))
            attempted += len(record)
        blocks0 = len(speed.blocks)
        samples, errs, rounds, rss = measure(
            server, client, wl, args.seed, args.seconds, record, speed)
        blocks = speed.blocks[blocks0:]
        errors += errs
        attempted += len(samples)
        errors += check_updates(server, client)
    finally:
        if server is not None:
            server.stop()
    machine["ref_loop_after_s"] = ref_loop()
    unit = bench.median([u for _, u in blocks])
    # a set-up is scaled by the blocks nearest to it: its own, those of the
    # neighbouring set-ups and the first ones of the measured phase
    setups = [bench.scaled(raw, bench.local_unit(t, speed.blocks))
              for t, raw in raw_setups]
    scaled = []
    for k, dt, t, span in samples:
        u = bench.local_unit(t, blocks)
        scaled.append((k, bench.scaled(dt, u), bench.scaled(span, u)))
    raw_lat = [dt for _, dt, _, _ in samples]
    wall = sum(span for _, _, _, span in samples)
    machine.update(
        workload=wl, seed=args.seed, rounds=rounds, measured=len(samples),
        ref_unit_s=unit, ref_unit_min_s=min(u for _, u in blocks),
        ref_unit_max_s=max(u for _, u in blocks),
        raw_setup_s=bench.median([raw for _, raw in raw_setups]),
        raw_request_p50_s=bench.median(raw_lat),
        raw_requests_per_s=len(samples) / wall)
    print("machine " + json.dumps(machine))
    log(f"{wl} seed {args.seed}: {len(samples)} requests in {wall:.2f}s "
        f"({rounds} rounds), setups {[round(s, 3) for s in setups]}")
    per_kind_table(samples)
    for e in errors[:20]:
        log("WRONG: " + e)
    failed = len(errors)

    if args.trace:
        metrics, t_errors = layers.traced(tracer, wl, args.seed, record,
                                          client, expected)
        failed += len(t_errors)
        attempted += len(record)
        for e in t_errors[:20]:
            log("WRONG (traced): " + e)
    else:
        metrics = end_to_end(scaled, setups, rss, attempted, failed)
    declared = declared_metrics("per_layer" if args.trace else "end_to_end")
    if declared is not None and declared != list(metrics):
        die(f"metrics {list(metrics)} differ from BENCHMARK.json {declared}", 1)
    for k, (v, u) in metrics.items():
        log(f"  {k:28s} {v:.6g} {u}")
    print(bench.result_line(failed == 0, attempted, failed, metrics))
    if failed:
        sys.exit(1)


if __name__ == "__main__":
    main()
