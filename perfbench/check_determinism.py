"""Check that every workload's corpus is a function of the seed alone.

    python3 perfbench/check_determinism.py [--seed N]

Builds each corpus twice from seed N and once from seed N + 1, in scratch
directories under ``.perfbench-work``, and digests every file written plus
the job list with its reference values.  The two builds from N must be
byte-identical and the build from N + 1 must differ.  For ov-fixtures the
corpus is the list of ``gen`` commands: the graph files are the program's
own output, which every run checks against its set-up pass.  Exits 0 when
every check holds.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import sys

import corpus
from run import WORK


def digest(workload: str, seed: int, scratch) -> str:
    if workload == "ov-fixtures":
        return hashlib.sha256(json.dumps(corpus.ov_gen_jobs(seed)).encode()).hexdigest()
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    try:
        plan = corpus.BUILDERS[workload](seed, scratch)
        h = hashlib.sha256(json.dumps(plan, sort_keys=True).encode())
        for path in sorted(scratch.iterdir()):
            h.update(path.name.encode() + b"\0" + path.read_bytes())
        return h.hexdigest()
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    seed = parser.parse_args().seed
    ok = True
    for workload in corpus.WORKLOADS:
        scratch = WORK / f"determinism-{os.getpid()}"
        a, b, c = (digest(workload, s, scratch) for s in (seed, seed, seed + 1))
        same, differs = a == b, a != c
        ok = ok and same and differs
        print(f"{workload:12s} seed {seed} twice: {'identical' if same else 'DIFFERENT'}; "
              f"seed {seed + 1}: {'differs' if differs else 'IDENTICAL'}")
    if WORK.is_dir() and not any(WORK.iterdir()):
        WORK.rmdir()
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
