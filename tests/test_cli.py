"""CLI subcommands, exit codes, and flag-only solver settings."""

import json
import os
from pathlib import Path

import numpy as np
import pytest

from affinity.cli import main

DATA = Path(__file__).parent / "data"


def _write_cycle(tmp_path, n=9):
    from affinity.graph import graph_to_json_dict
    from affinity.oracle import build_cycle
    path = tmp_path / "cycle.json"
    path.write_text(json.dumps(graph_to_json_dict(build_cycle(n))))
    return path


def test_compute_exact_er(tmp_path, capsys):
    graph_file = _write_cycle(tmp_path)
    out = tmp_path / "features.json"
    code = main(["compute", "--input", str(graph_file),
                 "--features", "er", "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["manifest"]["kind"] == "exact"
    assert np.allclose(doc["arrays"]["edge_er"], 8.0 / 9.0, atol=1e-9)


def test_compute_feature_aliases(tmp_path):
    graph_file = _write_cycle(tmp_path)
    out = tmp_path / "f.json"
    code = main(["compute", "--input", str(graph_file),
                 "--features", "er,ht,node-emb,edge-emb", "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["manifest"]["families"] == [
        "edge_er", "edge_ht", "node_embedding", "edge_embedding"]


def test_compute_sketched_with_rotation(tmp_path):
    graph_file = _write_cycle(tmp_path)
    out = tmp_path / "rot"
    code = main(["compute", "--input", str(graph_file),
                 "--features", "node-emb", "--epsilon", "0.4", "--seed", "3",
                 "--rotate", "17", "--format", "binary", "--out", str(out)])
    assert code == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["rotation_seeds"] == [17]
    assert manifest["epsilon"] == 0.4


def test_compute_rotation_of_a_graph_without_edges(tmp_path):
    graph_file = tmp_path / "bare.json"
    graph_file.write_text(json.dumps({"num_nodes": 3, "edges": []}))
    out = tmp_path / "rot"
    code = main(["compute", "--input", str(graph_file),
                 "--features", "er,ht,node-emb,edge-emb", "--rotate", "5",
                 "--format", "binary", "--out", str(out)])
    assert code == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["rotation_seeds"] == [5]
    assert manifest["embedding_dim"] == 0


def test_compute_binary_byte_identical(tmp_path):
    graph_file = _write_cycle(tmp_path)
    args = ["compute", "--input", str(graph_file), "--features", "node-emb",
            "--epsilon", "0.3", "--seed", "5", "--format", "binary"]
    assert main(args + ["--out", str(tmp_path / "one")]) == 0
    assert main(args + ["--out", str(tmp_path / "two")]) == 0
    first = (tmp_path / "one" / "node_embedding.bin").read_bytes()
    second = (tmp_path / "two" / "node_embedding.bin").read_bytes()
    assert first == second


def test_compute_missing_file_is_exit_2(tmp_path, capsys):
    code = main(["compute", "--input", str(tmp_path / "missing.json"),
                 "--out", str(tmp_path / "x.json")])
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_compute_bad_feature_is_exit_2(tmp_path, capsys):
    graph_file = _write_cycle(tmp_path)
    code = main(["compute", "--input", str(graph_file),
                 "--features", "bogus", "--out", str(tmp_path / "x.json")])
    assert code == 2


def test_compute_bad_solver_value_is_exit_2(tmp_path, capsys):
    graph_file = _write_cycle(tmp_path)
    for flag, value in (("--tol", "2"), ("--max-iter", "0")):
        code = main(["compute", "--input", str(graph_file), flag, value,
                     "--out", str(tmp_path / "x.json")])
        assert code == 2, flag
        assert "error" in capsys.readouterr().err


def test_compute_solver_failure_is_exit_3(tmp_path, capsys, pcg_route):
    # an unreachable tolerance at a tiny iteration cap cannot converge
    pcg_route()
    graph_file = tmp_path / "g.json"
    from affinity.graph import graph_to_json_dict
    from affinity.oracle import random_connected_graph
    g = random_connected_graph(300, 3.0, seed=0)
    graph_file.write_text(json.dumps(graph_to_json_dict(g)))
    code = main(["compute", "--input", str(graph_file),
                 "--features", "node-emb", "--epsilon", "0.5",
                 "--max-iter", "2",
                 "--out", str(tmp_path / "x.json")])
    assert code == 3
    assert "solver" in capsys.readouterr().err


def test_compute_singular_grounded_laplacian_is_exit_3(tmp_path, capsys):
    # a 3-node path with weights 1e-8 and 1e8 is singular in float64
    graph_file = tmp_path / "g.json"
    graph_file.write_text(json.dumps(
        {"num_nodes": 3, "edges": [[0, 1, 1e-8], [1, 2, 1e8]]}))
    code = main(["compute", "--input", str(graph_file), "--features", "er",
                 "--out", str(tmp_path / "x.json")])
    assert code == 3
    err = capsys.readouterr().err
    assert "solver error" in err and "edge weights from 1e-08 to 1e+08" in err
    assert not (tmp_path / "x.json").exists()


def test_compute_exactly_singular_factor_is_exit_3(tmp_path, capsys):
    # 1 + 1e-17 rounds to 1, so the grounded factor of a 1,000-node unit
    # path whose first edge weighs 1e-17 meets an exactly zero pivot
    graph_file = tmp_path / "g.txt"
    graph_file.write_text("0 1 1e-17\n" + "".join(
        f"{i} {i + 1}\n" for i in range(1, 999)))
    code = main(["compute", "--input", str(graph_file), "--epsilon", "0.5",
                 "--out", str(tmp_path / "x.json")])
    assert code == 3
    err = capsys.readouterr().err
    assert "condition number inf" in err
    assert "edge weights from 1e-17 to 1" in err
    assert not (tmp_path / "x.json").exists()


@pytest.mark.parametrize("name, text", [
    ("g.json", json.dumps({"num_nodes": 3, "edges": [[0, 10 ** 400]]})),
    ("g.txt", f"0 1\n1 {10 ** 400}\n"),
])
def test_compute_endpoint_beyond_float64_is_exit_2(tmp_path, capsys, name,
                                                   text):
    graph_file = tmp_path / name
    graph_file.write_text(text)
    code = main(["compute", "--input", str(graph_file), "--features", "er",
                 "--out", str(tmp_path / "x.json")])
    assert code == 2
    assert "401 digits, beyond the float64 range" in capsys.readouterr().err


@pytest.mark.parametrize("name, text", [
    ("g.json", json.dumps({"num_nodes": 10 ** 15, "edges": []})),
    ("g.txt", f"0 {10 ** 15}\n"),
])
def test_compute_unallocatable_node_count_is_exit_2(tmp_path, capsys, name,
                                                    text):
    # the node arrays need petabytes, so their allocation fails at once
    graph_file = tmp_path / name
    graph_file.write_text(text)
    code = main(["compute", "--input", str(graph_file), "--features", "er",
                 "--out", str(tmp_path / "x.json")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: 10000000000000") and err.count("\n") == 1
    assert "nodes cannot be allocated" in err


def test_environment_does_not_change_compute(tmp_path, monkeypatch):
    # the solver settings are flags only: values that would break the
    # solve, set in the environment, leave the run and its bytes unchanged
    graph_file = _write_cycle(tmp_path)
    args = ["compute", "--input", str(graph_file), "--features",
            "er,ht,node-emb,edge-emb", "--epsilon", "0.5", "--seed", "1",
            "--format", "binary"]
    assert main(args + ["--out", str(tmp_path / "plain")]) == 0
    monkeypatch.setenv("AFFINITY_DENSE_THRESHOLD", "2")
    monkeypatch.setenv("AFFINITY_TOL", "1e-15")
    monkeypatch.setenv("AFFINITY_MAX_ITER", "1")
    assert main(args + ["--out", str(tmp_path / "env")]) == 0
    plain = sorted((tmp_path / "plain").iterdir())
    assert [f.name for f in plain] == sorted(
        f.name for f in (tmp_path / "env").iterdir())
    for file in plain:
        assert file.read_bytes() == (tmp_path / "env" / file.name).read_bytes()


def test_jl_constant_flag_is_exit_2(tmp_path, capsys):
    graph_file = _write_cycle(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["compute", "--input", str(graph_file), "--epsilon", "0.5",
              "--jl-constant", "1", "--out", str(tmp_path / "x.json")])
    assert exc.value.code == 2
    assert "--jl-constant" in capsys.readouterr().err


def test_verify_expressivity_suite(capsys):
    code = main(["verify", "--suite", "expressivity"])
    out = capsys.readouterr().out
    assert code == 0
    assert "[PASS]" in out and "[FAIL]" not in out


def test_verify_fails_on_a_wrong_witness_resistance(capsys, monkeypatch):
    from affinity import oracle
    monkeypatch.setitem(oracle.WITNESS_EDGE_RESISTANCES, ("o1", "o1"), 0.7)
    code = main(["verify", "--suite", "expressivity"])
    assert code == 1
    assert "[FAIL] witness-resistances" in capsys.readouterr().out


def test_verify_unknown_suite(capsys):
    code = main(["verify", "--suite", "bogus"])
    assert code == 2


def test_demo_expressivity_witness(capsys):
    code = main(["demo-expressivity", "--graph", "witness"])
    out = capsys.readouterr().out
    assert code == 0
    assert "plain" in out and "classes=3" in out


def test_demo_expressivity_pair_json(capsys):
    code = main(["demo-expressivity", "--graph", "pair:1", "--json"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc) == 2


# Saved `affinity demo-expressivity --graph SELECTOR --json` output, one file
# per selector; weighted_random.json is `affinity gen random --n 20
# --avg-degree 2 --wmin 0.5 --wmax 2 --seed 5`.
@pytest.mark.parametrize("selector, fixture", [
    ("witness", "demo_witness.json"),
    ("pair:3", "demo_pair3.json"),
    ("pair:5", "demo_pair5.json"),
    ("weighted_random.json", "demo_weighted_random.json"),
])
def test_demo_expressivity_json_matches_its_fixture(selector, fixture, capsys,
                                                    monkeypatch):
    # a file selector is the report's key, so run beside the file
    monkeypatch.chdir(DATA)
    assert main(["demo-expressivity", "--graph", selector, "--json"]) == 0
    assert capsys.readouterr().out.encode() == (DATA / fixture).read_bytes()


def test_gen_cycle_stdout(capsys):
    code = main(["gen", "cycle", "--n", "5"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["num_nodes"] == 5
    assert len(doc["edges"]) == 5


def test_gen_pair_writes_two_files(tmp_path, capsys):
    code = main(["gen", "pair", "--k", "2", "--out", str(tmp_path / "pair")])
    assert code == 0
    cycle = json.loads((tmp_path / "pair" / "cycle.json").read_text())
    path = json.loads((tmp_path / "pair" / "path.json").read_text())
    assert cycle["num_nodes"] == 9 and path["num_nodes"] == 9
    assert len(cycle["edges"]) == 9 and len(path["edges"]) == 8


def test_gen_random_deterministic(capsys):
    assert main(["gen", "random", "--n", "12", "--avg-degree", "3",
                 "--seed", "5"]) == 0
    first = capsys.readouterr().out
    assert main(["gen", "random", "--n", "12", "--avg-degree", "3",
                 "--seed", "5"]) == 0
    assert first == capsys.readouterr().out


def test_gen_witness(capsys):
    assert main(["gen", "witness"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["num_nodes"] == 8
    assert len(doc["edges"]) == 12


def test_bench_tiny(capsys):
    code = main(["bench", "--n", "500", "--m", "1500", "--epsilon", "0.5"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["num_nodes"] == 500
    assert doc["sketch_dim"] >= 1
    assert doc["sketch_seconds"] >= 0.0
    # every component under 512 nodes: the sparse LU route
    assert doc["route"] == "sparse LU"


def test_bench_reports_the_solve_route(capsys):
    assert main(["bench", "--n", "600", "--m", "1800", "--epsilon", "0.5"]) == 0
    assert json.loads(capsys.readouterr().out)["route"] == "PCG"


def test_dense_threshold_flag_is_exit_2(tmp_path, capsys):
    # the graph picks the solve route; no flag overrides it
    graph_file = _write_cycle(tmp_path)
    for command in (["compute", "--input", str(graph_file),
                     "--out", str(tmp_path / "x.json")], ["bench"]):
        with pytest.raises(SystemExit) as exc:
            main(command + ["--dense-threshold", "5000"])
        assert exc.value.code == 2
        assert "--dense-threshold" in capsys.readouterr().err


def test_bench_edge_count_is_honoured_or_refused(capsys):
    for m in ("2", "46"):
        assert main(["bench", "--n", "10", "--m", m]) == 2
        assert "--m must be in [9, 45]" in capsys.readouterr().err
    for m in (9, 45):
        assert main(["bench", "--n", "10", "--m", str(m)]) == 0
        assert json.loads(capsys.readouterr().out)["num_edges"] == m


def test_bench_needs_two_nodes(capsys):
    for n in ("0", "1"):
        assert main(["bench", "--n", n, "--m", "10"]) == 2
        assert "--n must be at least 2" in capsys.readouterr().err


@pytest.mark.parametrize("fmt", ["binary", "csv"])
def test_compute_into_an_existing_file_is_exit_2(tmp_path, capsys, fmt):
    # a directory format cannot be written where a regular file stands
    graph_file = _write_cycle(tmp_path)
    out = tmp_path / "taken"
    out.write_text("kept\n")
    code = main(["compute", "--input", str(graph_file), "--format", fmt,
                 "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {out}: ")
    assert err.count("\n") == 1
    assert out.read_text() == "kept\n"


def test_gen_rewrites_a_longer_file_in_place(tmp_path, capsys):
    out = tmp_path / "graph.json"
    assert main(["gen", "cycle", "--n", "40", "--out", str(out)]) == 0
    inode, old_size = out.stat().st_ino, out.stat().st_size
    assert main(["gen", "cycle", "--n", "5", "--out", str(out)]) == 0
    assert main(["gen", "cycle", "--n", "5"]) == 0
    assert out.read_text() == capsys.readouterr().out
    assert out.stat().st_size < old_size
    assert out.stat().st_ino == inode
    # a device is written but not cut to length
    assert main(["gen", "cycle", "--n", "5", "--out", os.devnull]) == 0


def test_gen_onto_an_existing_directory_is_exit_2(tmp_path, capsys):
    code = main(["gen", "cycle", "--n", "5", "--out", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {tmp_path}: ")
    assert err.count("\n") == 1
    taken = tmp_path / "taken"
    taken.write_text("kept\n")
    assert main(["gen", "pair", "--k", "2", "--out", str(taken)]) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot write {taken}: ")
    assert taken.read_text() == "kept\n"
