"""Command-line interface: run, gen, verify, exit codes, report formats."""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path
from random import Random

import pytest

from diamecc import format_graph
from diamecc import cli
from diamecc import graph as graph_module
from diamecc.cli import main
from conftest import cycle_graph, path_graph, random_connected


@pytest.fixture
def p5(tmp_path):
    path = tmp_path / "p5.txt"
    path.write_text(format_graph(path_graph(5)))
    return str(path)


@pytest.fixture
def sets04(tmp_path):
    s = tmp_path / "S.txt"
    t = tmp_path / "T.txt"
    s.write_text("0\n")
    t.write_text("4\n")
    return str(s), str(t)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestRun:
    def test_diam_folk_on_path(self, capsys, p5):
        code, out, _ = run_cli(capsys, "run", "diam-folk", "--input", p5)
        assert code == 0 and "estimate=4" in out

    def test_exact_diameter_c8(self, capsys, tmp_path):
        path = tmp_path / "c8.txt"
        path.write_text(format_graph(cycle_graph(8)))
        code, out, _ = run_cli(capsys, "run", "exact", "--input", str(path), "--json")
        assert code == 0
        assert json.loads(out)["estimate"] == 4

    def test_st3_json(self, capsys, p5, sets04):
        code, out, _ = run_cli(capsys, "run", "st3", "--input", p5,
                               "--sets", *sets04, "--json")
        assert code == 0
        report = json.loads(out)
        assert report["method"] == "st3"
        assert 4 / 3 <= report["estimate"] <= 4  # D = 4 here
        assert report["witness"] == [0, 4]

    def test_every_method_runs(self, capsys, p5, sets04):
        for method in ("exact", "ecc2", "ecc2d", "ecc-folk", "radius",
                       "diam-folk", "diam-lin", "diam-dense", "ecc-dense",
                       "spanner-compose"):
            code, out, _ = run_cli(capsys, "run", method, "--input", p5, "--json")
            assert code == 0, method
            json.loads(out)
        for method in ("st3", "st2", "st2true", "st-equiv"):
            code, out, _ = run_cli(capsys, "run", method, "--input", p5,
                                   "--sets", *sets04, "--json")
            assert code == 0, method
            json.loads(out)

    def test_reports_deterministic_modulo_millis(self, capsys, p5):
        reports = []
        for _ in range(2):
            code, out, _ = run_cli(capsys, "run", "ecc2", "--input", p5,
                                   "--seed", "7", "--json")
            assert code == 0
            report = json.loads(out)
            report.pop("millis")
            reports.append(report)
        assert reports[0] == reports[1]

    @pytest.mark.parametrize("t", ["5", "-1"])
    def test_exact_sets_out_of_range_is_precondition_error(self, capsys, tmp_path, t):
        p3 = tmp_path / "p3.txt"
        p3.write_text("3 2 undirected unweighted\n0 1\n1 2\n")
        (tmp_path / "S.txt").write_text("0\n")
        (tmp_path / "T.txt").write_text(f"{t}\n")
        code, out, err = run_cli(capsys, "run", "exact", "--input", str(p3), "--sets",
                                 str(tmp_path / "S.txt"), str(tmp_path / "T.txt"))
        assert code == 4 and "out of range" in err and out == ""

    def test_missing_sets_is_usage_error(self, capsys, p5):
        code, _, err = run_cli(capsys, "run", "st3", "--input", p5)
        assert code == 2 and "--sets" in err

    def test_parse_error_exit_code(self, capsys, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("not a graph\n")
        code, _, err = run_cli(capsys, "run", "exact", "--input", str(bad))
        assert code == 3 and "parse error" in err

    def test_vertex_guard_exit_code(self, capsys, tmp_path, monkeypatch):
        # The header alone trips the guard: no Graph is built for it.
        monkeypatch.setattr(graph_module, "Graph", None)
        path = tmp_path / "huge.txt"
        path.write_text("10000000000 0 undirected unweighted\n")
        code, _, err = run_cli(capsys, "run", "diam-folk", "--input", str(path))
        assert code == 3 and "line 1" in err and "10000000 vertices" in err

    @pytest.mark.parametrize("kind", ["directed", "undirected"])
    @pytest.mark.parametrize("method", ["ecc2", "ecc2d", "radius"])
    def test_one_vertex_weight_over_the_budget(self, capsys, tmp_path, kind, method):
        # 23-digit weights go to the line parser, which must apply the
        # 63-bit budget on one vertex too, or the ring's int64 arrays overflow.
        path = tmp_path / "one.txt"
        path.write_text(f"1 70 {kind} weighted\n" + "0 0 10000000000000000000000\n" * 70)
        code, out, err = run_cli(capsys, "run", method, "--input", str(path))
        assert (code, out) == (3, "") and "weights too large" in err
        assert "Traceback" not in err

    def test_precondition_exit_code(self, capsys, tmp_path):
        dag = tmp_path / "dag.txt"
        dag.write_text("3 2 directed unweighted\n0 1\n0 2\n")
        code, _, err = run_cli(capsys, "run", "ecc2d", "--input", str(dag))
        assert code == 4 and "strongly connected" in err

    def test_out_of_memory_exit_code(self, capsys, p5, monkeypatch):
        def exhausted(g, inst, args):
            raise MemoryError

        monkeypatch.setitem(cli.METHODS, "ecc2", (False, True, exhausted))
        code, out, err = run_cli(capsys, "run", "ecc2", "--input", p5)
        assert code == 5 and out == ""
        assert err == "out of memory: ecc2 on n=5, m=4\n"

    def test_unreachable_estimate_serializes_as_null(self, capsys, tmp_path):
        dag = tmp_path / "dag.txt"
        dag.write_text("3 2 directed unweighted\n0 1\n0 2\n")
        code, out, _ = run_cli(capsys, "run", "diam-folk", "--input", str(dag),
                               "--json")
        assert code == 0
        assert json.loads(out)["estimate"] is None

    def test_text_report_shows_unreachable(self, capsys, tmp_path):
        dag = tmp_path / "dag.txt"
        dag.write_text("3 2 directed unweighted\n0 1\n0 2\n")
        code, out, _ = run_cli(capsys, "run", "diam-folk", "--input", str(dag))
        assert code == 0 and " estimate=unreachable " in out
        code, out, _ = run_cli(capsys, "run", "ecc2", "--input", str(dag))
        assert code == 0 and " estimates=1,unreachable,unreachable " in out

    @pytest.mark.parametrize("missing", ["input", "sets"])
    def test_missing_file_is_file_error(self, capsys, tmp_path, p5, sets04, missing):
        absent = str(tmp_path / "absent.txt")
        paths = {"input": p5, "sets": sets04[0], missing: absent}
        code, out, err = run_cli(capsys, "run", "st3", "--input", paths["input"],
                                 "--sets", paths["sets"], sets04[1])
        assert (code, out) == (3, "") and err.startswith("error: ") and absent in err

    def test_tau_is_exact_rational(self, capsys, tmp_path):
        c6 = tmp_path / "c6.txt"
        c6.write_text(format_graph(cycle_graph(6, directed=True)))
        code, out, _ = run_cli(capsys, "run", "ecc2d", "--input", str(c6),
                               "--tau", "1/3", "--json")
        assert code == 0
        assert json.loads(out)["tau"] == "1/3"


    @pytest.mark.parametrize("method", ["ecc2d", "radius"])
    @pytest.mark.parametrize("tau", ["1/0", "nan"])
    def test_bad_tau_is_usage_error(self, capsys, tmp_path, method, tau):
        c6 = tmp_path / "c6.txt"
        c6.write_text(format_graph(cycle_graph(6, directed=True)))
        with pytest.raises(SystemExit) as exc:
            main(["run", method, "--input", str(c6), "--tau", tau])
        err = capsys.readouterr().err
        assert exc.value.code == 2 and f"invalid fraction '{tau}'" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("bad", ["input", "S", "T"])
    def test_non_utf8_input_is_parse_error(self, capsys, tmp_path, p5, sets04, bad):
        undecodable = tmp_path / "bad.txt"
        undecodable.write_bytes(b"# ok\n0\xff\n")
        paths = {"input": p5, "S": sets04[0], "T": sets04[1], bad: str(undecodable)}
        code, out, err = run_cli(capsys, "run", "st3", "--input", paths["input"],
                                 "--sets", paths["S"], paths["T"])
        assert (code, out) == (3, "") and "line 2: not UTF-8 text" in err
        assert "Traceback" not in err
        assert err.startswith(f"parse error: {undecodable}: line 2")
        assert not any(paths[name] in err for name in paths if name != bad)


class TestGenVerify:
    def test_pipeline(self, capsys, tmp_path):
        prefix = str(tmp_path / "fix")
        code, out, _ = run_cli(capsys, "gen", "--construction", "5v8",
                               "--n", "3", "--d", "4", "--mode", "unsat",
                               "--seed", "0", "--out", prefix)
        assert code == 0 and "wrote" in out
        code, out, _ = run_cli(capsys, "verify", "--graph", prefix + ".graph",
                               "--meta", prefix + ".meta.json")
        assert code == 0 and "PASS" in out

    def test_planted_kov_witness(self, capsys, tmp_path):
        prefix = str(tmp_path / "kov")
        code, _, _ = run_cli(capsys, "gen", "--construction", "kov", "--k", "2",
                             "--n", "4", "--d", "3", "--mode", "planted",
                             "--seed", "0", "--out", prefix)
        assert code == 0
        code, out, _ = run_cli(capsys, "verify", "--graph", prefix + ".graph",
                               "--meta", prefix + ".meta.json")
        assert code == 0 and ">= 4" in out

    def test_ecc_dir_needs_L(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "gen", "--construction", "ecc-dir",
                               "--n", "3", "--d", "3", "--out", str(tmp_path / "x"))
        assert code == 2 and "--L" in err

    def test_invalid_k_for_8v13(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "gen", "--construction", "8v13",
                               "--k", "3", "--n", "2", "--d", "3",
                               "--out", str(tmp_path / "x"))
        assert code == 2 and "k=4" in err

    def test_gen_needs_k(self, capsys, tmp_path):
        code, out, err = run_cli(capsys, "gen", "--construction", "kov", "--n", "2",
                                 "--d", "3", "--out", str(tmp_path / "x"))
        assert (code, out) == (2, "") and "kov needs --k" in err

    @pytest.mark.parametrize("shape, message", [
        (("--k", "1", "--n", "2", "--d", "3"), "k must be at least 2"),
        (("--k", "2", "--n", "0", "--d", "3"), "n must be at least 1"),
        (("--k", "2", "--n", "2", "--d", "1"), "d must be at least 2"),
    ], ids=["k", "n", "d"])
    def test_shape_gen_ov_refuses_is_usage_error(self, capsys, tmp_path, shape, message):
        # The size guard passes a shape it cannot estimate, and gen_ov refuses it.
        code, out, err = run_cli(capsys, "gen", "--construction", "kov", *shape,
                                 "--out", str(tmp_path / "x"))
        assert (code, out, err) == (2, "", f"error: {message}\n")
        assert not list(tmp_path.iterdir())

    def test_out_in_missing_directory(self, capsys, tmp_path):
        out = tmp_path / "missing-dir" / "x"
        code, stdout, err = run_cli(capsys, "gen", "--construction", "kov", "--k", "2",
                                    "--n", "2", "--d", "2", "--out", str(out))
        assert (code, stdout) == (3, "") and err.startswith("error: ")
        assert "missing-dir" in err and err.count("\n") == 1
        assert "Traceback" not in err and not out.parent.exists()

    def test_size_guard_exit_code(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "gen", "--construction", "kov",
                               "--k", "4", "--n", "40", "--d", "12",
                               "--out", str(tmp_path / "x"))
        assert code == 5 and "cap" in err

    @pytest.mark.parametrize("construction, k", [("kov", "3"), ("5v8", "3"), ("6v10", "3"),
                                                 ("3km4", "3"), ("8v13", "4"),
                                                 ("ecc-und", "3"), ("ecc-dir", "2")])
    def test_size_guard_draws_no_instance(self, capsys, tmp_path, monkeypatch, construction, k):
        # The guard reads only k, n, d and L, so it refuses before gen_ov
        # would draw k n d bits, billions of them here.
        def drawn(*args):
            raise AssertionError("gen_ov ran before the size guard")

        monkeypatch.setattr(cli, "gen_ov", drawn)
        code, out, err = run_cli(capsys, "gen", "--construction", construction, "--k", k,
                                 "--n", "1000000", "--d", "1000", "--L", "5",
                                 "--max-edges", "10", "--out", str(tmp_path / "x"))
        assert (code, out) == (5, "") and err.startswith("size guard: ")

    @pytest.mark.parametrize("argv", [
        ("kov", "--k", "100000", "--n", "1000", "--d", "1000"),
        ("kov", "--k", "1000000", "--n", "1000", "--d", "1000"),
        ("kov", "--k", "3", "--n", "9" * 4000, "--d", "5"),
        ("ecc-dir", "--n", "9" * 4000, "--d", "5", "--L", "9" * 4000),
    ], ids=["k-1e5", "k-1e6", "n-4000-digits", "ecc-dir-n-and-L-4000-digits"])
    def test_size_guard_on_huge_shapes(self, capsys, tmp_path, monkeypatch, argv):
        # The message must not format a count past Python's 4300-digit string
        # limit, and a huge k must be refused before its estimate is formed.
        def drawn(*args):
            raise AssertionError("gen_ov ran before the size guard")

        monkeypatch.setattr(cli, "gen_ov", drawn)
        code, out, err = run_cli(capsys, "gen", "--construction", *argv, "--max-edges", "10",
                                 "--out", str(tmp_path / "x"))
        assert (code, out) == (5, "") and err.startswith("size guard: ")
        assert "Traceback" not in err and len(err) < 200

    def test_gen_out_of_memory(self, capsys, tmp_path, monkeypatch):
        def exhausted(*args):
            raise MemoryError

        monkeypatch.setattr(cli, "gen_ov", exhausted)
        code, out, err = run_cli(capsys, "gen", "--construction", "kov", "--k", "3",
                                 "--n", "2", "--d", "3", "--out", str(tmp_path / "x"))
        assert (code, out) == (5, "")
        assert err == "out of memory: kov at k=3, n=2, d=3\n"

    def test_verify_out_of_memory(self, capsys, tmp_path, monkeypatch):
        prefix = str(tmp_path / "fix")
        run_cli(capsys, "gen", "--construction", "kov", "--k", "2", "--n", "2",
                "--d", "3", "--out", prefix)

        def exhausted(*args):
            raise MemoryError

        monkeypatch.setattr(cli, "verify_construction", exhausted)
        code, out, err = run_cli(capsys, "verify", "--graph", prefix + ".graph",
                                 "--meta", prefix + ".meta.json")
        assert (code, out) == (5, "")
        assert err == f"out of memory: verify on {prefix}.graph\n"

    def test_tampered_metadata_fails(self, capsys, tmp_path):
        prefix = str(tmp_path / "fix")
        run_cli(capsys, "gen", "--construction", "5v8", "--n", "2", "--d", "3",
                "--mode", "unsat", "--seed", "0", "--out", prefix)
        meta = json.loads((tmp_path / "fix.meta.json").read_text())
        meta["promised_low"] = 4
        (tmp_path / "fix.meta.json").write_text(json.dumps(meta))
        code, out, _ = run_cli(capsys, "verify", "--graph", prefix + ".graph",
                               "--meta", prefix + ".meta.json")
        assert code == 1 and "FAIL" in out

    def test_mismatched_metadata_is_parse_error(self, capsys, tmp_path):
        prefix = str(tmp_path / "fix")
        run_cli(capsys, "gen", "--construction", "kov", "--k", "2", "--n", "2",
                "--d", "3", "--mode", "unsat", "--seed", "0", "--out", prefix)
        meta = json.loads((tmp_path / "fix.meta.json").read_text())
        meta["sets"]["S"] = [0, 99999]
        (tmp_path / "fix.meta.json").write_text(json.dumps(meta))
        code, _, err = run_cli(capsys, "verify", "--graph", prefix + ".graph",
                               "--meta", prefix + ".meta.json")
        assert code == 3

    @pytest.mark.parametrize("scope, detail", [
        ("diameter", "diameter = unreachable"),
        ("st", "d(0,2) = unreachable"),
        ("ecc_from_s", "max ecc = unreachable"),
        ("ecc_out_all", "ecc(0) = unreachable"),
    ])
    def test_unsat_unreachable_detail(self, capsys, tmp_path, scope, detail):
        graph = tmp_path / "u.graph"
        graph.write_text("4 2 directed unweighted\n0 1\n2 3\n")
        meta = tmp_path / "u.meta.json"
        meta.write_text(json.dumps({"mode": "unsat", "scope": scope, "promised_low": 3,
                                    "sets": {"S": [0, 1], "T": [2, 3], "U": [0, 4]}}))
        code, out, _ = run_cli(capsys, "verify", "--graph", str(graph), "--meta", str(meta))
        assert code == 1 and f"({detail})" in out and "inf" not in out

    @pytest.mark.parametrize("S", [3, 70])
    def test_st_fail_names_first_bad_pair(self, capsys, tmp_path, S):
        # Every s in S is adjacent to every t in the next 10 ids except for
        # two missing pairs, which are at distance 3; the first in (s, t)
        # order is named, even when its s is past a 64-source batch.
        missing = {(S - 2, S + 2), (S - 1, S + 1)}
        edges = [(s, t) for s in range(S) for t in range(S, S + 10) if (s, t) not in missing]
        graph = tmp_path / "st.graph"
        graph.write_text(f"{S + 10} {len(edges)} undirected unweighted\n"
                         + "".join(f"{u} {v}\n" for u, v in edges))
        meta = tmp_path / "st.meta.json"
        meta.write_text(json.dumps({"mode": "unsat", "scope": "st", "promised_low": 1,
                                    "sets": {"S": [0, S], "T": [S, S + 10]}}))
        code, out, _ = run_cli(capsys, "verify", "--graph", str(graph), "--meta", str(meta))
        assert (code, out) == (1, f"FAIL: all S-T distances == 1 (d({S - 2},{S + 2}) = 3)\n")

    @pytest.mark.parametrize("scope, sets", [
        ("st", {"S": [0, 0], "T": [1, 2]}),
        ("st", {"S": [0, 1], "T": [2, 2]}),
        ("ecc_from_s", {"S": [1, 1]}),
        ("ecc_out_all", {"U": [2, 2]}),
    ])
    def test_empty_vertex_set_is_parse_error(self, capsys, tmp_path, scope, sets):
        # A promise over an empty set holds vacuously, so it proves nothing:
        # on this graph d(0, 1) = 1 breaks each promise of 0 once the sets
        # hold vertex 0 or the pair (0, 1).
        graph = tmp_path / "e.graph"
        graph.write_text("2 1 directed unweighted\n0 1\n")
        meta = tmp_path / "e.meta.json"
        meta.write_text(json.dumps({"mode": "unsat", "scope": scope, "promised_low": 0,
                                    "sets": sets}))
        code, out, err = run_cli(capsys, "verify", "--graph", str(graph), "--meta", str(meta))
        assert code == 3 and "nonempty" in err and out == ""
        meta.write_text(json.dumps({"mode": "unsat", "scope": scope, "promised_low": 0,
                                    "sets": {"S": [0, 1], "T": [1, 2], "U": [0, 2]}}))
        code, out, _ = run_cli(capsys, "verify", "--graph", str(graph), "--meta", str(meta))
        assert code == 1 and out.startswith("FAIL")

    @pytest.mark.parametrize("edit, message", [
        (lambda meta: [], "JSON object"),
        (lambda meta: {"mode": "unsat", "scope": "diameter"}, "promised_low"),
        (lambda meta: {**meta, "sets": {**meta["sets"], "S": "ab"}}, "'S'"),
        (lambda meta: {**meta, "mode": "both"}, "unknown mode 'both'"),
        (lambda meta: {**meta, "scope": "radius"}, "unknown scope 'radius'"),
        (lambda meta: {**meta, "sets": {"S": meta["sets"]["S"]}}, "lacks vertex set 'T'"),
        # bool is an int subclass, so JSON's true and false would pass as 1 and 0.
        (lambda meta: {**meta, "promised_low": True}, "promised_low must be an integer, got True"),
        (lambda meta: {**meta, "mode": "planted", "promised_high": 1, "witness": [False, True]},
         "bad witness [False, True]"),
        (lambda meta: {**meta, "sets": {**meta["sets"], "S": [False, True]}},
         "set 'S' bounds [False, True]"),
    ], ids=["not-an-object", "no-promise", "non-integer-set-bounds", "unknown-mode",
            "unknown-scope", "missing-set", "boolean-promise", "boolean-witness",
            "boolean-set-bounds"])
    def test_malformed_metadata_is_parse_error(self, capsys, tmp_path, edit, message):
        prefix = str(tmp_path / "fix")
        run_cli(capsys, "gen", "--construction", "kov", "--k", "2", "--n", "2",
                "--d", "3", "--mode", "unsat", "--seed", "0", "--out", prefix)
        meta = edit(json.loads((tmp_path / "fix.meta.json").read_text()))
        (tmp_path / "fix.meta.json").write_text(json.dumps(meta))
        code, out, err = run_cli(capsys, "verify", "--graph", prefix + ".graph",
                                 "--meta", prefix + ".meta.json")
        assert code == 3 and message in err and out == ""

    @pytest.mark.parametrize("bad", ["graph", "meta"])
    def test_non_utf8_file_is_parse_error(self, capsys, tmp_path, bad):
        prefix = str(tmp_path / "fix")
        run_cli(capsys, "gen", "--construction", "kov", "--k", "2", "--n", "2",
                "--d", "3", "--mode", "unsat", "--seed", "0", "--out", prefix)
        path = tmp_path / ("fix.graph" if bad == "graph" else "fix.meta.json")
        path.write_bytes(path.read_bytes().replace(b"\n", b"\xff\n", 1))
        code, out, err = run_cli(capsys, "verify", "--graph", prefix + ".graph",
                                 "--meta", prefix + ".meta.json")
        assert (code, out) == (3, "") and "not UTF-8 text" in err
        assert "Traceback" not in err
        good = tmp_path / ("fix.meta.json" if bad == "graph" else "fix.graph")
        assert err.startswith(f"error: {path}: ") and str(good) not in err


class TestParser:
    def test_built_once_per_process(self, capsys, p5, monkeypatch):
        run_cli(capsys, "run", "diam-folk", "--input", p5)
        built = []
        init = argparse.ArgumentParser.__init__

        def counted(self, *args, **kwargs):
            built.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
        code, out, _ = run_cli(capsys, "run", "diam-folk", "--input", p5, "--json")
        assert code == 0 and json.loads(out)["estimate"] == 4
        # Each call parses into a new Namespace: --json does not carry over.
        code, out, _ = run_cli(capsys, "run", "diam-folk", "--input", p5)
        assert code == 0 and "estimate=4" in out
        assert built == []
        cli._build_parser.cache_clear()  # the spy sees a build once there is one
        run_cli(capsys, "run", "diam-folk", "--input", p5)
        assert built


def test_dense_runs_leave_numpy_ma_unloaded(tmp_path):
    # A process's first plain np.unique imports numpy.ma (about 16 ms on
    # numpy 2.4), which each fresh run of a dense method would pay.
    path = tmp_path / "dense.txt"
    path.write_text(format_graph(random_connected(Random(0), 60, 60 * 60 // 8)))
    script = ("import sys\n"
              "from diamecc import cli\n"
              "for method in ('diam-dense', 'ecc-dense', 'spanner-compose'):\n"
              f"    assert cli.main(['run', method, '--input', {str(path)!r}]) == 0\n"
              "sys.exit('numpy.ma' in sys.modules)\n")
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
