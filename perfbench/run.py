"""End-to-end and per-layer benchmark of the diamecc command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the checkout is the directory above this file.  The
run builds the workload's corpus from the seed, computes reference values
with scipy, and times how long a fresh interpreter takes to import
``diamecc.cli``.  Then it runs whole passes over the job list through
``cli.main`` for about S seconds, each pass in a fresh interpreter
(``worker.py``): one client, one job at a time.  Times are scaled to a
reference host speed (``calibrate.py``).  Every output is checked against
its method's guarantee.

With ``--trace 0`` the last line reports the end-to-end metrics listed in
BENCHMARK.json; with ``--trace 1`` it reports the per-layer metrics from a
run whose passes alternate between untraced and traced.  Lines before it
give a readable summary, the tail percentile used, ``fail_ratio`` and the
run's provenance.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import corpus
from calibrate import REFERENCE_S, scaled
from checks import check

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench-work"
SETUP_SAMPLES = 9     # fresh interpreters timed for setup_s
MIN_PASSES = 5        # an untraced run always makes at least this many passes
MIN_TRACE_PASSES = 2  # a traced run: at least one untraced and one traced pass
DEADLINE = 170.0      # seconds a whole run may take
TAIL_BEYOND = 10      # samples the tail percentile must leave above it


def fail(message: str, code: int = 1):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def run_worker(work: Path, name: str, jobs, deadline: float, trace_seconds=None) -> dict:
    """One fresh worker: a single untraced pass, or a traced run of about
    ``trace_seconds``."""
    plan_dir = work / f"_{name}"
    plan_dir.mkdir()
    files = {str(i): j["files"] for i, j in enumerate(jobs) if "files" in j}
    plan = {"jobs": [j["argv"] for j in jobs], "files": files, "mode": "once"}
    if trace_seconds is not None:
        plan.update(mode="trace", seconds=trace_seconds, min_passes=MIN_TRACE_PASSES,
                    malloc_jobs=largest_input_per_method(work, jobs))
    mode = plan["mode"]
    (plan_dir / "plan.json").write_text(json.dumps(plan), encoding="utf-8")
    timeout = deadline - perf_counter()
    try:
        proc = subprocess.run([sys.executable, str(Path(__file__).with_name("worker.py")),
                               str(plan_dir / "plan.json")],
                              cwd=work, env=child_env(), timeout=max(timeout, 1.0),
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    except subprocess.TimeoutExpired:
        fail(f"worker ({mode}) did not finish within the run's deadline")
    if proc.returncode != 0:
        fail(f"worker ({mode}) exited with {proc.returncode}:\n{proc.stderr[-3000:]}")
    result = json.loads((plan_dir / "result.json").read_text(encoding="utf-8"))
    if Path(result["diamecc"]).resolve() != (ROOT / "src/diamecc/cli.py").resolve():
        fail(f"worker imported {result['diamecc']}, not this checkout's src/diamecc")
    spans = plan_dir / "spans.jsonl"
    if spans.exists():
        result["spans"] = [json.loads(line) for line in spans.open(encoding="utf-8")]
    return result


def run_passes(work: Path, jobs, seconds: float, deadline: float) -> dict:
    """Untraced passes, each in a fresh interpreter, until the time budget.

    On a shared host each process runs at a speed of its own (about 5%
    apart from one fresh process to the next on the 2-core host the
    benchmark was built on), so passes in separate processes let the
    per-job medians average that out.  Stops once
    MIN_PASSES are done and another pass would overrun ``seconds``.
    """
    merged = {"passes": [], "outputs": {}, "peak_rss_kb": 0}
    t_begin = perf_counter()
    while True:
        one = run_worker(work, f"pass{len(merged['passes'])}", jobs, deadline)
        merged["passes"] += one["passes"]
        merged["outputs"].update(one["outputs"])
        merged["peak_rss_kb"] = max(merged["peak_rss_kb"], one["peak_rss_kb"])
        elapsed = perf_counter() - t_begin
        done = len(merged["passes"])
        if done >= MIN_PASSES and elapsed + elapsed / done > seconds:
            return merged


def largest_input_per_method(work: Path, jobs) -> list:
    """One job per method, the one whose input file is largest.

    The tracemalloc pass runs only these: tracing every allocation makes a
    job about five times slower, and memory peaks on the largest input.
    """
    best = {}
    for i, job in enumerate(jobs):
        path = work / job["graph"]
        size = path.stat().st_size if path.exists() else 0
        if job["method"] not in best or size > best[job["method"]][0]:
            best[job["method"]] = (size, i)
    return sorted(i for _, i in best.values())


def build_corpus(workload: str, seed: int, work: Path, deadline: float) -> dict:
    if workload != "ov-fixtures":
        return corpus.BUILDERS[workload](seed, work)
    gens = corpus.ov_gen_jobs(seed)
    once = run_worker(work, "setup", gens, deadline)
    generated = {}
    for job, rec in zip(gens, once["passes"][0]["jobs"]):
        if rec["rc"] != 0:
            fail(f"set-up gen {' '.join(job['argv'])} exited with {rec['rc']}: {rec['err']}")
        generated.update(zip(job["files"], rec["files"]))
    return corpus.ov_fixtures(seed, work, generated)


def measure_setup(work: Path) -> list:
    """Scaled time for a fresh interpreter to start and import diamecc.cli.

    Each sample runs ``ready.py``, which reports when the import finished and
    a calibration taken in the same process right after.
    """
    env = child_env()
    times = []
    for _ in range(SETUP_SAMPLES):
        t0 = perf_counter()
        out = subprocess.run([sys.executable, str(Path(__file__).with_name("ready.py"))],
                             cwd=work, env=env, check=True, timeout=60,
                             stdout=subprocess.PIPE, text=True).stdout
        ready, calibration = map(float, out.split())
        times.append(scaled(ready - t0, calibration))
    return times


def check_all(plan: dict, result: dict):
    """(attempted, failed, ratios, problems) over every job execution.

    A job fails on a nonzero exit, on output that breaks its guarantee,
    or on output that differs from the job's output in the first pass
    (traced and untraced passes must agree byte for byte).
    """
    jobs, graphs, outputs = plan["jobs"], plan["graphs"], result["outputs"]
    attempted = failed = 0
    ratios, problems, seen = [], [], {}
    first = [rec["out"] for rec in result["passes"][0]["jobs"]]
    for p in result["passes"]:
        for i, rec in zip(p["indices"], p["jobs"]):
            rc, key, err, hashes = rec["rc"], rec["out"], rec["err"], rec["files"]
            cache_key = (i, rc, key, tuple(hashes))
            if cache_key not in seen:
                problem, rs = check(jobs[i], rc, outputs[key], graphs[jobs[i]["graph"]], hashes)
                if problem and err:
                    problem += f" [stderr: {err.strip()[-300:]}]"
                seen[cache_key] = (problem, rs)
            problem, rs = seen[cache_key]
            if problem is None and key != first[i]:
                problem = f"output differs from the first pass ({p['kind']} pass)"
            attempted += 1
            ratios.extend(rs)
            if problem:
                failed += 1
                problems.append(f"{' '.join(jobs[i]['argv'])}: {problem}")
    return attempted, failed, ratios, problems


def tail(samples: list, job_count: int):
    """(percentile, value, samples beyond) for the highest whole percentile
    that leaves TAIL_BEYOND samples above it in a run of MIN_PASSES passes.

    The percentile depends on the job list alone, so every run of a
    workload reports the same one; the value is the nearest-rank sample.
    """
    pct = math.floor(100 * (1 - TAIL_BEYOND / (MIN_PASSES * job_count)))
    ordered = sorted(samples)
    rank = max(1, math.ceil(pct / 100 * len(ordered)))
    return pct, ordered[rank - 1], len(ordered) - rank


def provenance() -> dict:
    def version(mod):
        try:
            return __import__(mod).__version__
        except ImportError:
            return None
    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    src = hashlib.sha256()
    for path in sorted((ROOT / "src/diamecc").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    cpu = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"git_sha": sha, "src_sha256": src.hexdigest(),
            "python": platform.python_version(), "numpy": version("numpy"),
            "scipy": version("scipy"), "nproc": os.cpu_count(),
            "machine": f"{platform.system()} {platform.machine()}, {cpu or 'unknown CPU'}"}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=corpus.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = perf_counter() + DEADLINE
    # On SIGTERM, unwind so the worker is killed and the work directory removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (ROOT / "src/diamecc/cli.py").is_file():
        fail(f"no diamecc sources under {ROOT / 'src'}; run from a full checkout", 3)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        t0 = perf_counter()
        plan = build_corpus(args.workload, args.seed, work, deadline)
        corpus_s = perf_counter() - t0
        setup_times = measure_setup(work)
        if args.trace:
            result = run_worker(work, "trace", plan["jobs"], deadline, args.seconds)
        else:
            result = run_passes(work, plan["jobs"], args.seconds, deadline)
        attempted, failed, ratios, problems = check_all(plan, result)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()

    for problem in problems[:20]:
        print(f"FAILED {problem}", file=sys.stderr)
    plain = [p for p in result["passes"] if p["kind"] == "plain"]
    job_count = len(plan["jobs"])
    if args.trace:
        import layers
        traced = [p for p in result["passes"] if p["kind"] == "traced"]
        values = layers.layer_metrics(result["spans"], set(result["installed"]))
        values["trace.overhead_ratio"] = (statistics.median(p["seconds"] for p in traced)
                                          / statistics.median(p["seconds"] for p in plain))
        malloc = [rec["malloc_peak"] for p in result["passes"] if p["kind"] == "malloc"
                  for rec in p["jobs"]]
        values["mem.py_peak_mb"] = max(malloc) / 2**20
        wanted = spec["per_layer"]
        notes = [f"dense.exponent {values.get('dense.exponent', 0):.3f} "
                 f"(the paper claims O~(n^2), i.e. 2)"]
    else:
        # Job times scaled to the reference host speed (calibrate.py).
        per_job = [[scaled(p["jobs"][i]["s"], p["jobs"][i]["cal"]) for p in plain]
                   for i in range(job_count)]
        times = [t for ts in per_job for t in ts]
        pct, tail_s, beyond = tail(times, job_count)
        values = {
            # One pass timed job by job: the sum of each job's median.
            "batch_s": sum(statistics.median(ts) for ts in per_job),
            "job_ms_p50": statistics.median(times) * 1e3,
            "job_ms_tail": tail_s * 1e3,
            "peak_rss_mb": result["peak_rss_kb"] / 1024,
            "setup_s": statistics.median(setup_times),
            "mean_est_ratio": sum(ratios) / len(ratios) if ratios else 1.0,
        }
        wanted = spec["end_to_end"]
        wall = sum(statistics.median(p["jobs"][i]["s"] for p in plain) for i in range(job_count))
        notes = [f"job_ms_tail is p{pct} of {len(times)} job times ({beyond} beyond it)",
                 f"unscaled: batch {wall:.4g} s wall, median calibration "
                 f"{statistics.median(r['cal'] for p in plain for r in p['jobs']) * 1e3:.3f} ms "
                 f"(reference {REFERENCE_S * 1e3:g} ms)"]
    notes.append(f"fail_ratio {failed / attempted:.6g} (1) = {failed}/{attempted}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted if m["name"] in values}

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{job_count} jobs a pass, corpus built in {corpus_s:.2f} s, passes: "
          + ", ".join(f"{p['kind']} {p['seconds']:.2f} s" for p in result["passes"]))
    for name, m in metrics.items():
        print(f"  {name:40s} {m['value']:14.6g} {m['unit']}")
    for note in notes:
        print(f"  {note}")
    why = next(w["why"] for w in spec["workloads"] if w["name"] == args.workload)
    print(json.dumps({"provenance": provenance(), "why": why}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
