"""Run one workload's job list through ``diamecc.cli.main`` in this interpreter.

    python3 worker.py PLAN.json

The plan names the jobs (CLI argument lists, paths relative to the current
directory), the files each job writes and the mode:

* ``once``  -- one untraced pass over the jobs;
* ``trace`` -- whole passes alternate between untraced and traced until the
  time budget is spent (at least ``min_passes``), then the jobs listed in
  ``malloc_jobs`` run once more under tracemalloc.  Spans go to
  ``spans.jsonl``.

Each job is timed from outside ``cli.main``, so parse, estimator and render
are all inside the time, and a calibration (``calibrate.py``) runs between
jobs.  The result goes to ``result.json`` next to the plan.  The CLI's own
``millis`` field is dropped from every output and never read.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import sys
import traceback
import tracemalloc
from pathlib import Path
from time import perf_counter

from calibrate import Calibration


def canonical(argv, text: str) -> str:
    """The job's output without the run-dependent ``millis`` field."""
    if argv[0] != "run":
        return text
    lines = []
    for line in text.splitlines():
        try:
            report = json.loads(line)
        except json.JSONDecodeError:
            lines.append(line)
            continue
        report.pop("millis", None)
        lines.append(json.dumps(report, sort_keys=True))
    return "\n".join(lines)


def sha256(path) -> str | None:
    try:
        return hashlib.sha256(Path(path).read_bytes()).hexdigest()
    except OSError:
        return None


class Runner:
    def __init__(self, cli_main, jobs, files):
        self.cli_main = cli_main
        self.jobs = jobs
        self.files = files
        self.outputs = {}
        self.calibration = Calibration()

    def run_job(self, index, around=None) -> dict:
        argv = self.jobs[index]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = perf_counter()
            try:
                rc = around(self.cli_main, argv) if around else self.cli_main(argv)
            except SystemExit as exc:
                rc = exc.code if isinstance(exc.code, int) else 1
            except Exception:  # a crash is a failed job, never a dead run
                traceback.print_exc(file=err)
                rc = -1
            seconds = perf_counter() - t0
        text = canonical(argv, out.getvalue())
        key = hashlib.sha1(text.encode()).hexdigest()
        self.outputs[key] = text
        return {"rc": rc, "s": seconds, "out": key, "err": err.getvalue()[-2000:],
                "files": [sha256(p) for p in self.files.get(str(index), ())]}

    def run_pass(self, kind, tracer=None, pass_index=0, indices=None) -> dict:
        """One pass; each job's record carries the mean of the calibrations
        measured just before and just after it (none under tracemalloc)."""
        indices = list(range(len(self.jobs))) if indices is None else indices
        records = []
        t0 = perf_counter()
        before = self.calibration.measure() if kind != "malloc" else None
        for i in indices:
            if tracer is not None:
                tracer.begin_job(pass_index, i)
                rec = self.run_job(i, lambda f, a: tracer.call("cli.main", f, a))
            elif kind == "malloc":
                tracemalloc.reset_peak()
                rec = self.run_job(i)
                rec["malloc_peak"] = tracemalloc.get_traced_memory()[1]
            else:
                rec = self.run_job(i)
            if before is not None:
                after = self.calibration.measure()
                rec["cal"] = (before + after) / 2
                before = after
            records.append(rec)
        return {"kind": kind, "seconds": perf_counter() - t0, "indices": indices,
                "jobs": records}


def traced_passes(runner, plan, spans_path):
    """Alternate untraced and traced passes until the time budget is spent,
    then rerun the ``malloc_jobs`` under tracemalloc.  Writes the spans to
    ``spans_path``; returns the passes and the span names installed."""
    from tracer import Tracer
    tracer = Tracer()
    passes = []
    t_begin = perf_counter()
    while True:
        traced = len(passes) % 2 == 1
        if traced:
            tracer.install()
        try:
            passes.append(runner.run_pass("traced" if traced else "plain",
                                          tracer if traced else None, len(passes)))
        finally:
            if traced:
                tracer.uninstall()
        elapsed = perf_counter() - t_begin
        if len(passes) >= plan["min_passes"] and elapsed + elapsed / len(passes) > plan["seconds"]:
            break
    tracemalloc.start()
    try:
        passes.append(runner.run_pass("malloc", indices=plan["malloc_jobs"]))
    finally:
        tracemalloc.stop()
    tracer.dump(spans_path)
    return passes, sorted(tracer.installed)


def main(plan_path: str) -> int:
    plan = json.loads(Path(plan_path).read_text(encoding="utf-8"))
    import diamecc.cli
    runner = Runner(diamecc.cli.main, plan["jobs"], plan.get("files", {}))
    result = {"diamecc": diamecc.cli.__file__}
    if plan["mode"] == "once":
        result["passes"] = [runner.run_pass("plain")]
    else:
        result["passes"], result["installed"] = traced_passes(
            runner, plan, Path(plan_path).with_name("spans.jsonl"))
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result["outputs"] = runner.outputs
    Path(plan_path).with_name("result.json").write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
