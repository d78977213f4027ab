#!/usr/bin/env python3
"""Build jqi from source and run one benchmark workload.

    python3 perfbench/run.py --workload warm-td --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --self-test

Run from the root of a jqi source tree.  The script builds the server
(bin/jqinfer.exe) and the benchmark client (perfbench/main.exe) with
dune, then runs the client, whose last stdout line is the result object.
It exits non-zero, without a result, when the tree has no jqi sources.

--self-test checks metric names and op-script determinism, then runs
every workload (also warm-td, which BENCHMARK.json leaves out) briefly,
traced and untraced, and checks that each run is correct and emits
every metric BENCHMARK.json declares.  Its windows ask for 1 s and so
end at the 200-session minimum, which need not give every percentile
its samples; the sample-count check is turned off for them.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

SERVER = os.path.join("_build", "default", "bin", "jqinfer.exe")
CLIENT = os.path.join("_build", "default", "perfbench", "main.exe")
WORKLOADS = ["warm-td", "cold-l2s", "churn-paged"]


def die(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    for required in ("dune-project", os.path.join("bin", "jqinfer.ml"), "lib"):
        if not os.path.exists(required):
            die("no jqi source tree here (missing %s); run from the repository root" % required)
    # Build output goes to stderr so stdout stays the client's alone.
    rc = subprocess.call(
        ["dune", "build", "--root", ".", "./bin/jqinfer.exe", "./perfbench/main.exe"],
        stdout=sys.stderr,
    )
    if rc != 0:
        die("build failed (exit %d)" % rc)


def provenance():
    commit = "none"
    if os.path.exists(".git"):
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], capture_output=True, text=True, check=True
            ).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    digest = hashlib.sha256()
    for top in ("lib", "bin", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".ml", ".mli")) or name in ("dune", "dune-project"):
                    path = os.path.join(dirpath, name)
                    digest.update(path.encode() + b"\0")
                    with open(path, "rb") as f:
                        digest.update(f.read())
    return commit, digest.hexdigest()


def client(args, **kw):
    return subprocess.run([CLIENT, "--jqinfer", SERVER] + args, **kw)


def self_test():
    rc = client(["--self-test"]).returncode
    if rc != 0:
        return rc
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    declared = {
        0: [m["name"] for m in bench["end_to_end"]],
        1: [m["name"] for m in bench["per_layer"]],
    }
    ok = True
    for workload in WORKLOADS:
        for trace in (0, 1):
            out = client(
                ["--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace),
                 "--allow-undersampled"],
                capture_output=True,
                text=True,
            )
            last = out.stdout.strip().splitlines()[-1] if out.stdout.strip() else "{}"
            result = json.loads(last)
            missing = [m for m in declared[trace] if m not in result.get("metrics", {})]
            good = not missing and result.get("correct") is True and out.returncode == 0
            ok = ok and good
            print("%s %s --trace %d is correct and emits every declared metric%s"
                  % ("ok  " if good else "FAIL", workload, trace,
                     "" if not missing else ": missing " + ", ".join(missing)))
    return 0 if ok else 1


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=40)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-test", action="store_true")
    a = p.parse_args()
    build()
    if a.self_test:
        sys.exit(self_test())
    if a.workload is None:
        die("--workload is required")
    commit, digest = provenance()
    sys.stdout.flush()
    # exec, so the client gets the caller's signals and stops its server
    args = [
        "--workload", a.workload,
        "--seed", str(a.seed),
        "--seconds", str(a.seconds),
        "--trace", str(a.trace),
        "--commit", commit,
        "--source-digest", digest,
    ]
    os.execv(CLIENT, [CLIENT, "--jqinfer", SERVER] + args)


if __name__ == "__main__":
    main()
