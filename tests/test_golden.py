"""Golden ``run --json`` outputs: every CLI method on a small seeded corpus.

The golden file stores the corpus itself (graph text plus S/T sets) and,
for each command line, the exit code and the JSON report with the
run-time ``millis`` field dropped.  A refactor that keeps estimator
outputs bit-identical passes this test unchanged.

Regenerate only when an output change is intended and explained:

    PYTHONPATH=src python tests/test_golden.py --write
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path
from random import Random

import pytest

from diamecc import Graph, format_graph
from diamecc.cli import RUN_METHODS, SET_METHODS, main

GOLDEN = Path(__file__).with_name("golden") / "cli_run.json"
SEEDS = (0, 7)
NAMES = ("dense60", "sparse40", "complete12", "star15", "dir50", "wund40",
         "wdir30", "zeroone30", "disc20")


def _corpus() -> dict:
    """name -> (graph, S, T); n <= 60, every weight class and orientation."""
    from conftest import (complete_graph, random_connected, random_graph,
                          random_strongly_connected, star_graph)

    zero_one = random_connected(Random(6), 30, 60)
    wrng = Random(16)
    zero_one = Graph(30, [(u, v, wrng.choice((0, 1))) for u, v, _ in zero_one.edges])
    graphs = {
        "dense60": random_connected(Random(1), 60, 450),
        "sparse40": random_connected(Random(2), 40, 50),
        "complete12": complete_graph(12),
        "star15": star_graph(14),
        "dir50": random_strongly_connected(Random(3), 50, 150),
        "wund40": random_connected(Random(4), 40, 80, max_w=6),
        "wdir30": random_strongly_connected(Random(5), 30, 90, max_w=5),
        "zeroone30": zero_one,
        "disc20": random_graph(Random(7), 20, 25, directed=False),
    }
    assert tuple(graphs) == NAMES
    corpus = {}
    for i, (name, g) in enumerate(graphs.items()):
        rng = Random(100 + i)
        k = max(2, g.n // 6)
        corpus[name] = (g, sorted(rng.sample(range(g.n), k)), sorted(rng.sample(range(g.n), k)))
    return corpus


def _command_lines(names) -> list:
    """Every RUN_METHODS entry per graph and seed, plus the option variants."""
    argvs = []
    for name in names:
        for seed in SEEDS:
            base = ["--input", name, "--json", "--seed", str(seed)]
            sets = ["--sets", f"{name}.S", f"{name}.T"]
            for method in RUN_METHODS:
                argvs.append(["run", method, *base, *(sets if method in SET_METHODS else [])])
            argvs.append(["run", "exact", *base, *sets])
            argvs.append(["run", "ecc2d", *base, "--tau", "1/3"])
            argvs.append(["run", "radius", *base, "--tau", "1/4"])
            for inner in ("exact", "diam-lin"):
                argvs.append(["run", "spanner-compose", *base, "--inner", inner])
    return argvs


def _run(argv, workdir: Path):
    """(exit code, report without millis or None) for one command line."""
    files = {"--input", "--sets"}
    resolved, take = [], 0
    for arg in argv:
        if take:
            resolved.append(str(workdir / arg))
            take -= 1
            continue
        resolved.append(arg)
        if arg in files:
            take = 2 if arg == "--sets" else 1
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(resolved)
    report = None
    if code == 0:
        report = json.loads(out.getvalue())
        report.pop("millis")
    return code, report


def _write_inputs(inputs: dict, workdir: Path) -> None:
    for name, item in inputs.items():
        (workdir / name).write_text(item["graph"])
        (workdir / f"{name}.S").write_text("".join(f"{v}\n" for v in item["S"]))
        (workdir / f"{name}.T").write_text("".join(f"{v}\n" for v in item["T"]))


def _load_golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_run_method():
    golden = _load_golden()
    assert sorted(golden["inputs"]) == sorted(NAMES)
    assert {case["argv"][1] for case in golden["runs"]} == set(RUN_METHODS)


@pytest.mark.parametrize("name", NAMES)
def test_golden_cli_outputs(name, tmp_path):
    golden = _load_golden()
    _write_inputs({name: golden["inputs"][name]}, tmp_path)
    cases = [case for case in golden["runs"] if case["argv"][3] == name]
    assert cases
    for case in cases:
        code, report = _run(case["argv"], tmp_path)
        assert (code, report) == (case["exit"], case["report"]), case["argv"]


def write_golden(workdir: Path) -> None:
    inputs = {name: {"graph": format_graph(g), "S": S, "T": T}
              for name, (g, S, T) in _corpus().items()}
    _write_inputs(inputs, workdir)
    runs = []
    for argv in _command_lines(inputs):
        code, report = _run(argv, workdir)
        runs.append({"argv": argv, "exit": code, "report": report})
    GOLDEN.parent.mkdir(exist_ok=True)
    graphs = ",\n".join(f"{json.dumps(name)}: {json.dumps(item, sort_keys=True)}"
                         for name, item in inputs.items())
    lines = ",\n".join(json.dumps(run, sort_keys=True) for run in runs)
    GOLDEN.write_text(f'{{"inputs": {{\n{graphs}\n}},\n"runs": [\n{lines}\n]}}\n')


if __name__ == "__main__":
    import tempfile

    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_golden.py --write")
    sys.path.insert(0, str(Path(__file__).parent))
    with tempfile.TemporaryDirectory() as tmp:
        write_golden(Path(tmp))
    print(f"wrote {GOLDEN}")
