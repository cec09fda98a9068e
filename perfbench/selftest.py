#!/usr/bin/env python3
"""Self-test of the benchmark at tiny sizes.

    python3 perfbench/selftest.py

Run from the root of a checkout.  Checks that:
  * every workload in BENCHMARK.json prints, as its last line, a result
    with exactly the contract's keys, and every end-to-end metric
    (untraced) or per-layer metric (traced) with its unit;
  * the run context is printed and the job digest depends only on the
    seed;
  * the negative output check fires on rydberg ising-chain n=300, and
    its serve compile response counts as a failed operation;
  * the serve workload leaves no daemon, socket or store behind when it
    ends normally, when it fails, and when it is sent SIGTERM.
Exits 0 when every check passes.
"""

import glob
import json
import os
import re
import signal
import subprocess
import sys
import time

RUN = [sys.executable, os.path.join("perfbench", "run.py")]
BENCH = os.path.join("_build", "default", "perfbench", "bench.exe")
QTURBO = os.path.join("_build", "default", "bin", "qturbo_cli.exe")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
CONTEXT_KEYS = {"workload", "seed", "job_digest", "nproc", "qturbo_domains",
                "ocaml", "git_rev", "source_digest", "bench_digest",
                "qturbo_digest"}

failures = []


def check(cond, what):
    print(("ok    " if cond else "FAIL  ") + what)
    if not cond:
        failures.append(what)


def run_tiny(workload, seed, trace):
    out = subprocess.run(RUN + ["--workload", workload, "--seed", str(seed),
                                "--seconds", "2", "--trace", str(trace), "--tiny"],
                         capture_output=True, text=True, timeout=600)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or len(lines) < 2:
        return out.returncode, None, None
    return out.returncode, json.loads(lines[-2])["context"], json.loads(lines[-1])


def serve_leftovers():
    """Run directories under perfbench-out and live qturbo daemons whose
    socket lies in one."""
    dirs = glob.glob(os.path.join("perfbench-out", "run-*"))
    daemons = []
    for cmdline in glob.glob("/proc/[0-9]*/cmdline"):
        try:
            with open(cmdline, "rb") as f:
                args = f.read().split(b"\0")
        except OSError:
            continue
        if b"serve" in args and any(b"perfbench-out/run-" in a for a in args):
            daemons.append(cmdline.split("/")[2])
    return dirs, daemons


def check_spec(spec):
    name_ok = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$").match
    unit_ok = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$").match
    check(set(spec) == {"command", "paths", "run_seconds", "workloads",
                        "end_to_end", "per_layer"}, "BENCHMARK.json: keys")
    check(2 <= len(spec["workloads"]) <= 8 and all(
        set(w) == {"name", "why"} and name_ok(w["name"]) and len(w["why"]) <= 200
        and "\n" not in w["why"] for w in spec["workloads"]),
        "BENCHMARK.json: workloads")
    check(all(set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
              for m in spec["end_to_end"])
          and any(m["name"] == "setup_s" and m["unit"] == "s"
                  and m["better"] == "lower" for m in spec["end_to_end"]),
          "BENCHMARK.json: end-to-end metrics")
    check(all(set(m) == {"name", "unit", "better"} for m in spec["per_layer"]),
          "BENCHMARK.json: per-layer metrics")
    metrics = spec["end_to_end"] + spec["per_layer"]
    names = [m["name"] for m in metrics]
    check(len(names) == len(set(names)) and all(map(name_ok, names))
          and all(unit_ok(m["unit"]) and m["better"] in ("lower", "higher")
                  for m in metrics),
          "BENCHMARK.json: names and units")


def main():
    spec = json.load(open("BENCHMARK.json"))
    check_spec(spec)
    units = {trace: {m["name"]: m["unit"] for m in spec[key]}
             for trace, key in ((0, "end_to_end"), (1, "per_layer"))}
    digests = {}
    for w in spec["workloads"]:
        name = w["name"]
        for trace in (0, 1):
            code, ctx, result = run_tiny(name, 1, trace)
            label = f"{name} trace={trace}"
            check(code == 0 and result is not None, f"{label}: exits 0 with a result")
            if result is None:
                continue
            check(set(result) == RESULT_KEYS, f"{label}: result keys")
            check(result["correct"] and result["failed"] == 0
                  and result["attempted"] >= 1, f"{label}: outputs correct")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            check(got == units[trace], f"{label}: every metric with its unit")
            check(all(isinstance(v["value"], (int, float))
                      for v in result["metrics"].values()),
                  f"{label}: every value is a number")
            check(CONTEXT_KEYS <= set(ctx), f"{label}: run context recorded")
            digests.setdefault(name, set()).add(ctx["job_digest"])
        check(len(digests.get(name, ())) == 1,
              f"{name}: same seed, same job digest")
        _, other, _ = run_tiny(name, 2, 0)
        check(other is not None and other["job_digest"] not in digests[name],
              f"{name}: another seed, another job digest")

    neg = subprocess.run(RUN + ["--negative"], capture_output=True, text=True,
                         timeout=600)
    verdict = (json.loads(neg.stdout.strip().splitlines()[-1])
               if neg.stdout.strip() else {})
    check(neg.returncode == 0 and verdict.get("flagged") is True,
          "negative case rydberg ising-chain n=300 is flagged")
    check(neg.returncode == 0 and verdict.get("serve_flagged") is True,
          "negative case as a serve response counts as a failed operation")

    check(serve_leftovers() == ([], []), "serve: nothing left after normal exits")

    env = dict(os.environ, QTURBO_DOMAINS="1")
    broken = subprocess.run([BENCH, "--workload", "serve", "--seed", "1",
                             "--seconds", "2", "--trace", "0", "--tiny",
                             "--qturbo", "/bin/false"],
                            capture_output=True, text=True, env=env, timeout=120)
    check(broken.returncode != 0 and serve_leftovers() == ([], []),
          "serve: nothing left when the daemon fails to start")

    proc = subprocess.Popen([BENCH, "--workload", "serve", "--seed", "1",
                             "--seconds", "30", "--trace", "0", "--tiny",
                             "--qturbo", QTURBO],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=env)
    deadline = time.time() + 60
    while time.time() < deadline and not serve_leftovers()[1]:
        time.sleep(0.05)
    running = serve_leftovers()
    time.sleep(1.0)
    proc.send_signal(signal.SIGTERM)
    out, _ = proc.communicate(timeout=60)
    check(running[1] != [] and proc.returncode != 0
          and serve_leftovers() == ([], []) and b'"correct"' not in out,
          "serve: nothing left after SIGTERM mid-run")

    print("self-test " + ("passed" if not failures else
                          f"FAILED ({len(failures)} checks)"))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
