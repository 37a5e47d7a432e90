#!/usr/bin/env python3
"""Build the program from source, then run one benchmark workload.

    python3 bench/perf/run.py --workload NAME|all --seed N [--seconds S]
                              [--trace 0|1] [--out DIR]

Builds perf.exe and commsetc.exe with dune in the repository this file
belongs to, then runs perf.exe from the repository root. The last line
of standard output is perf.exe's result line (build output goes to
standard error). Everything written stays under the repository's _build
directory. Exits 2 without a result when there is no source to build.
"""

import argparse
import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
WORKLOADS = ["compute", "builtin"]


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                         capture_output=True, text=True)
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def run_one(exe, env, workload, args):
    cmd = [exe, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--out", args.out]
    # perf.exe and the daemon it spawns share a new session, so a daemon
    # orphaned by a crash can still be found and stopped here
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, start_new_session=True)
    try:
        rc = proc.wait()
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    return rc


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--out", default=os.path.join("_build", "perf"))
    args = ap.parse_args()

    missing = [p for p in ("dune-project", "lib", os.path.join("bin", "commsetc.ml"))
               if not os.path.exists(os.path.join(ROOT, p))]
    if missing:
        print("run.py: no program source to build (missing %s)" % ", ".join(missing),
              file=sys.stderr)
        return 2

    tmp = os.path.join(ROOT, "_build", "perf-tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, DUNE_CACHE="disabled", TMPDIR=tmp,
               XDG_CACHE_HOME=os.path.join(tmp, "cache"))
    build = subprocess.run(
        ["dune", "build", "--root", ROOT, "./bench/perf/perf.exe", "./bin/commsetc.exe"],
        cwd=ROOT, env=env, stdout=sys.stderr)
    if build.returncode != 0:
        print("run.py: build failed", file=sys.stderr)
        return 2

    env["COMMSET_PERF_GIT_SHA"] = git_sha()
    exe = os.path.join(ROOT, "_build", "default", "bench", "perf", "perf.exe")
    rcs = [run_one(exe, env, w, args)
           for w in (WORKLOADS if args.workload == "all" else [args.workload])]
    return max(rcs)


if __name__ == "__main__":
    sys.exit(main())
