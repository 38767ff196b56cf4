#!/usr/bin/env python3
"""Build and run the contiver benchmark from the root of a checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/perfbench.exe with dune (the first build compiles the
library from source), then runs it with the same arguments plus a host
stamp: the git commit when the checkout is a repository, and a digest of
the library and benchmark sources either way. The program's last line
of standard output is the result object. Exits non-zero, printing no
result, when the checkout has no source tree to build.
"""

import hashlib
import os
import subprocess
import sys

ROOT = os.getcwd()
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "perfbench.exe")


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def source_digest():
    h = hashlib.sha256()
    for top in ("lib", "perfbench"):
        for d, dirs, files in sorted(os.walk(os.path.join(ROOT, top))):
            dirs[:] = sorted(x for x in dirs if x != "results")
            for f in sorted(files):
                if f.endswith((".ml", ".mli", ".c", "dune", ".json")):
                    p = os.path.join(d, f)
                    h.update(os.path.relpath(p, ROOT).encode())
                    with open(p, "rb") as fh:
                        h.update(fh.read())
    return h.hexdigest()[:16]


def commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "none"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "none"


def main():
    for var in ("CONTIVER_FAULTS", "CONTIVER_KERNEL_DOMAINS"):
        if os.environ.get(var):
            fail("refusing to time a run with %s set" % var)
    for need in ("dune-project", "lib"):
        if not os.path.exists(os.path.join(ROOT, need)):
            fail("no %s here: run from the root of a contiver checkout" % need)
    # Keep dune's shared build cache out of it: the build writes only
    # under _build in the checkout.
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "./perfbench/perfbench.exe"],
        cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0 or not os.path.exists(EXE):
        fail("build failed")
    args = sys.argv[1:] + ["--commit", commit(),
                           "--source-digest", source_digest()]
    proc = subprocess.run([EXE] + args, cwd=ROOT)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
