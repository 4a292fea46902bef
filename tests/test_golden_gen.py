"""Golden ``gen`` / ``verify`` outputs for every hardness construction.

For each ``gen`` command line the golden file stores the exit code, the
sha256 of ``PREFIX.graph``, the parsed ``PREFIX.meta.json``, and the exit
code and stdout of ``verify`` on the pair.  A refactor of the builders
that keeps every construction bit-identical passes this test unchanged.

Regenerate only when an output change is intended and explained:

    PYTHONPATH=src python tests/test_golden_gen.py --write
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

import pytest

from diamecc.cli import main
from diamecc.hardness import BUILDERS

GOLDEN = Path(__file__).with_name("golden") / "cli_gen.json"

# (construction, extra gen options); every one runs in both modes.
CASES = (
    ("kov", ("--k", "2", "--n", "3", "--d", "3")),
    ("kov", ("--k", "3", "--n", "2", "--d", "3")),
    ("5v8", ("--n", "2", "--d", "3")),
    ("6v10", ("--n", "2", "--d", "3")),
    ("3km4", ("--k", "3", "--n", "2", "--d", "3")),
    ("3km4", ("--k", "4", "--n", "2", "--d", "3")),
    ("3km4", ("--k", "5", "--n", "2", "--d", "3")),
    ("8v13", ("--n", "2", "--d", "3")),
    ("ecc-und", ("--k", "2", "--n", "3", "--d", "3")),
    ("ecc-und", ("--k", "3", "--n", "2", "--d", "3")),
    ("ecc-und", ("--k", "4", "--n", "2", "--d", "3")),
    ("ecc-dir", ("--n", "3", "--d", "3", "--L", "2")),
    # Usage errors: no files are written.
    ("3km4", ("--k", "2", "--n", "2", "--d", "3")),
    ("8v13", ("--k", "3", "--n", "2", "--d", "3")),
)
SEEDS = (0, 1)


def _command_lines() -> list:
    return [["gen", "--construction", name, *extra, "--mode", mode, "--seed", str(seed)]
            for name, extra in CASES for mode in ("unsat", "planted") for seed in SEEDS]


def _quiet_main(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue()


def _run(argv, workdir: Path) -> dict:
    """Outcome of one ``gen`` command line and of ``verify`` on its files."""
    prefix = workdir / "fix"
    code, _ = _quiet_main([*argv, "--out", str(prefix)])
    case = {"argv": argv, "exit": code, "graph_sha256": None, "meta": None,
            "verify_exit": None, "verify_stdout": None}
    if code == 0:
        graph, meta = f"{prefix}.graph", f"{prefix}.meta.json"
        case["graph_sha256"] = hashlib.sha256(Path(graph).read_bytes()).hexdigest()
        case["meta"] = json.loads(Path(meta).read_text())
        case["verify_exit"], case["verify_stdout"] = _quiet_main(
            ["verify", "--graph", graph, "--meta", meta])
    return case


def _load_golden() -> list:
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_construction():
    cases = _load_golden()
    assert [case["argv"] for case in cases] == _command_lines()
    built = {(case["argv"][2], case["meta"]["mode"]) for case in cases if case["exit"] == 0}
    assert built == {(name, mode) for name in BUILDERS for mode in ("unsat", "planted")}


@pytest.mark.parametrize("index", range(len(CASES)))
def test_golden_gen_verify(index, tmp_path):
    name, extra = CASES[index]
    cases = [case for case in _load_golden()
             if case["argv"][2] == name and tuple(case["argv"][3:3 + len(extra)]) == extra]
    assert len(cases) == 2 * len(SEEDS)
    for case in cases:
        assert _run(case["argv"], tmp_path) == case, case["argv"]


def write_golden(workdir: Path) -> None:
    cases = [_run(argv, workdir) for argv in _command_lines()]
    GOLDEN.parent.mkdir(exist_ok=True)
    lines = ",\n".join(json.dumps(case, sort_keys=True) for case in cases)
    GOLDEN.write_text(f"[\n{lines}\n]\n")


if __name__ == "__main__":
    import tempfile

    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_golden_gen.py --write")
    with tempfile.TemporaryDirectory() as tmp:
        write_golden(Path(tmp))
    print(f"wrote {GOLDEN}")
