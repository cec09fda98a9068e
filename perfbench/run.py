#!/usr/bin/env python3
"""Build and run the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload oneshot --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout.  It builds perfbench/bench.exe and
the qturbo binary from source with dune, pins QTURBO_DOMAINS, runs the
benchmark and exits with its status.  The last line of standard output
is the JSON result; everything the build prints goes to standard error.
"""

import argparse
import hashlib
import os
import signal
import subprocess
import sys

# Worker domains per compile, pinned so that runs on machines with
# different core counts do the same work (recorded in each result).
DOMAINS = "1"
BUILD_TIMEOUT = 850
RUN_TIMEOUT = 170
BENCH = os.path.join("_build", "default", "perfbench", "bench.exe")
QTURBO = os.path.join("_build", "default", "bin", "qturbo_cli.exe")


def source_digest():
    """MD5 over every regular file of the library, the CLI and the
    project file, in sorted path order."""
    h = hashlib.md5()
    paths = ["dune-project"]
    for top in ("lib", "bin"):
        for dirpath, _, files in os.walk(top):
            paths += [os.path.join(dirpath, f) for f in files]
    for path in sorted(paths):
        if os.path.isfile(path) and not os.path.islink(path):
            h.update(path.encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()


def git_rev():
    if not os.path.isdir(".git"):
        return "none"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
        return out.stdout.strip() or "none"
    except (OSError, subprocess.SubprocessError):
        return "none"


def local_env(**extra):
    """The environment for the build and the run: no shared dune cache,
    and temporary files inside the checkout."""
    tmp = os.path.join(os.getcwd(), "perfbench-out", "tmp")
    os.makedirs(tmp, exist_ok=True)
    return dict(os.environ, DUNE_CACHE="disabled", TMPDIR=tmp, **extra)


def build():
    env = local_env()
    cmd = ["dune", "build", "--root", ".", "--display", "quiet",
           "./perfbench/bench.exe", "./bin/qturbo_cli.exe"]
    try:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              env=env, timeout=BUILD_TIMEOUT)
    except (OSError, subprocess.SubprocessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return False
    return done.returncode == 0


def run(args):
    cmd = [BENCH, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--qturbo", QTURBO]
    if args.tiny:
        cmd.append("--tiny")
    if args.negative:
        cmd = [BENCH, "--negative"]
    env = local_env(QTURBO_DOMAINS=DOMAINS, PERFBENCH_GIT_REV=git_rev(),
                    PERFBENCH_SOURCE_DIGEST=source_digest())
    child = subprocess.Popen(cmd, env=env)

    def forward(signum, _frame):
        child.send_signal(signum)

    signal.signal(signal.SIGTERM, forward)
    signal.signal(signal.SIGINT, forward)
    try:
        return child.wait(timeout=RUN_TIMEOUT)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        child.terminate()
        try:
            child.wait(timeout=15)
        except subprocess.TimeoutExpired:
            child.kill()
            child.wait()
        return 3


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=["oneshot", "warm-sweep", "serve"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--tiny", action="store_true",
                   help="tiny problem sizes (self-test only)")
    p.add_argument("--negative", action="store_true",
                   help="run the negative output check instead")
    args = p.parse_args()
    if args.workload is None and not args.negative:
        p.error("--workload is required")
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")
            and os.path.isdir("bin")):
        print("perfbench: run from the root of a qturbo checkout "
              "(dune-project, lib/ and bin/ are missing)", file=sys.stderr)
        return 2
    if not build():
        return 2
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
