"""Capture perfbench/expected.json: the answers every checked reply must
match. Run through `python3 perfbench/run.py --capture-expected`.

Before writing, imperative ci is cross-checked against the independent
Datalog engine (doop-ci) on findbugs: the four precision metrics must agree.
"""

import json
import os
import sys

import bench

HERE = os.path.dirname(os.path.abspath(__file__))


def capture(server_cls):
    srv = server_cls("capture")
    try:
        def ask(req):
            reply, _ = srv.call((json.dumps(req) + "\n").encode())
            if not reply.get("ok"):
                sys.exit(f"capture: {req} failed: {reply}")
            return reply["result"]

        ci = ask({"cmd": "analyze", "program": "findbugs", "analysis": "ci"})
        doop = ask({"cmd": "analyze", "program": "findbugs",
                    "analysis": "doop-ci"})
        if ci["metrics"] != doop["metrics"]:
            sys.exit(f"capture: ci {ci['metrics']} != doop-ci "
                     f"{doop['metrics']} on findbugs")
        table = {"analyze": {}, "check": {}, "taint": {}, "callgraph": {}}
        for wl in bench.WORKLOADS.values():
            for (prog, a, cmd), _ in wl["mix"]:
                key = bench.kind_key(prog, a)
                by_name = {"program": prog, "analysis": a}
                if key not in table["analyze"]:
                    table["analyze"][key] = ask(
                        dict(by_name, cmd="analyze"))["metrics"]
                if cmd in ("check", "taint"):
                    table[cmd][key] = ask(dict(by_name, cmd=cmd))["count"]
                elif cmd == "callgraph":
                    table[cmd][key] = bench.callgraph_edges(
                        ask(dict(by_name, cmd=cmd))["dot"])
    finally:
        srv.stop()
    path = os.path.join(HERE, "expected.json")
    with open(path, "w") as f:
        json.dump(table, f, indent=1, sort_keys=True)
        f.write("\n")
    print(f"wrote {path}; ci = doop-ci on findbugs: {ci['metrics']}")
