"""Exercises the command line surface in-process."""

import hashlib
import io
import json
import logging
import math
import platform
import sys

import pytest

from conftest import data_path
from radialflow import (GenSpec, build_network, config_from_json,
                        config_to_json, forward_engine, generate,
                        load_network, serialize_network, solve,
                        validate_radial)
from radialflow.cli import LOG_LEVELS, main

GAP_RING = str(data_path("mst_gap_ring.json"))
IEEE33 = str(data_path("ieee33_synthetic.json"))


def test_validate_network_only(capsys):
    assert main(["validate", GAP_RING]) == 0
    out = capsys.readouterr().out
    assert out.strip() == "ok: 6 nodes, 6 edges, 1 supplies"


def test_validate_solved_config(tmp_path, capsys):
    sol = tmp_path / "sol.json"
    assert main(["solve", GAP_RING, "-o", str(sol)]) == 0
    assert main(["validate", GAP_RING, "--config", str(sol)]) == 0
    out = capsys.readouterr().out
    assert "kirchhoff=ok" in out
    assert "FAIL" not in out


def test_validate_rejects_reversed_edge(tmp_path, capsys):
    sol = tmp_path / "sol.json"
    main(["solve", GAP_RING, "-o", str(sol)])
    doc = json.loads(sol.read_text())
    doc["edges"][0]["u"], doc["edges"][0]["v"] = (doc["edges"][0]["v"],
                                                  doc["edges"][0]["u"])
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert main(["validate", GAP_RING, "--config", str(bad)]) == 2
    assert "FAIL" in capsys.readouterr().out


def test_solve_to_stdout(capsys):
    assert main(["solve", GAP_RING]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["cost"] == pytest.approx(65.25, rel=1e-12)
    assert len(doc["edges"]) == 5


def test_solve_report_and_trace(tmp_path):
    sol = tmp_path / "sol.json"
    rep = tmp_path / "report.json"
    tr = tmp_path / "trace.csv"
    args = ["solve", GAP_RING, "-o", str(sol), "--report", str(rep),
            "--trace", str(tr)]
    assert main(args) == 0
    report = json.loads(rep.read_text())
    assert set(report) == {"schema_version", "n", "m", "cost", "iterations",
                           "partitions", "presampled", "merges", "splits",
                           "flipped_edges", "zero_flow",
                           "reducible_condensations", "timings"}
    assert report["schema_version"] == 1
    assert set(report["timings"]) == {"preprocess", "islander", "loop",
                                      "solve_flow", "condense", "sample"}
    lines = tr.read_text().splitlines()
    assert lines[0] == "iter,edge,raw_weight,balance_ok,pendant,deleted_count"
    assert len(lines) == 1 + report["iterations"]
    assert [row.split(",")[0] for row in lines[1:]] == [
        str(i + 1) for i in range(report["iterations"])]


def test_solve_output_is_reproducible(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    main(["solve", GAP_RING, "-o", str(a)])
    main(["solve", GAP_RING, "-o", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_oracle_gap_document(tmp_path):
    out = tmp_path / "gap.json"
    opt = tmp_path / "opt.json"
    args = ["oracle", GAP_RING, "-o", str(out), "--solution", str(opt)]
    assert main(args) == 0
    doc = json.loads(out.read_text())
    assert doc["optimal_cost"] == pytest.approx(47.0, rel=1e-12)
    assert doc["forward_cost"] == pytest.approx(65.25, rel=1e-12)
    assert doc["gap_ratio"] == pytest.approx(65.25 / 47.0, rel=1e-12)
    assert doc["feasible_count"] == 6
    net = load_network(data_path("mst_gap_ring.json").read_bytes())
    cfg = config_from_json(net, opt.read_text())
    assert validate_radial(net, cfg).passed
    assert cfg.total_cost == pytest.approx(47.0, rel=1e-12)


def test_oracle_gap_is_null_when_the_optimum_is_free(tmp_path):
    # a spanning tree of free edges exists, but the greedy pick pays for the
    # n0-n6 edge: the ratio to an optimum of 0 is unbounded, which strict
    # JSON cannot write as a number
    p = [0.42118113065632706, 0.42118113065632706, 0.0,
         -0.20795268277875323, -0.6344095785339009, 0.0, 0.0]
    edges = [(0, 2, 0.0), (0, 6, 1.0), (1, 2, 0.0), (1, 6, 0.0), (2, 4, 0.0),
             (2, 5, 0.0), (3, 4, 0.0)]
    net = build_network([f"n{i}" for i in range(7)], edges, p)
    network = tmp_path / "net.json"
    network.write_text(serialize_network(net))
    out = tmp_path / "gap.json"
    assert main(["oracle", str(network), "-o", str(out)]) == 0

    def reject(constant):
        raise ValueError(f"{constant} is not JSON")

    doc = json.loads(out.read_text(), parse_constant=reject)
    assert doc["optimal_cost"] == 0.0
    assert doc["forward_cost"] == pytest.approx(0.1774, abs=1e-4)
    assert doc["gap_ratio"] is None


def test_oracle_refuses_large_network(capsys):
    assert main(["oracle", IEEE33]) == 3
    assert "too large:" in capsys.readouterr().err


def test_gen_matches_library(tmp_path):
    out = tmp_path / "net.json"
    args = ["gen", "--n", "20", "--k", "2", "--beta", "0.0",
            "--sources", "3", "--seed", "5", "-o", str(out)]
    assert main(args) == 0
    spec = GenSpec(n=20, k=2, beta=0.0, n_sources=3, seed=5)
    assert out.read_text() == serialize_network(generate(spec))
    assert main(["validate", str(out)]) == 0


def test_bench_csv(tmp_path, capsys):
    csv = tmp_path / "bench.csv"
    args = ["bench", "--sizes", "8,12", "--seeds", "2", "--k", "2",
            "-o", str(csv)]
    assert main(args) == 0
    lines = csv.read_text().splitlines()
    assert lines[0] == "n,m,median_ms,cost"
    assert len(lines) == 3
    assert lines[1].startswith("8,8,")
    assert lines[2].startswith("12,12,")
    assert "exponent=" in capsys.readouterr().err


def test_bench_json(tmp_path):
    out = tmp_path / "bench.json"
    args = ["bench", "--sizes", "8,12", "--seeds", "2", "--k", "2",
            "--sources", "2", "-o", str(tmp_path / "bench.csv"),
            "--json", str(out)]
    assert main(args) == 0
    doc = json.loads(out.read_text())
    assert set(doc) == {"schema_version", "sizes", "seeds", "k", "beta",
                        "sources", "edges", "median_s", "median_cost",
                        "exponent", "solutions_sha256", "python", "nproc"}
    assert doc["schema_version"] == 1
    assert doc["sizes"] == [8, 12] and doc["edges"] == [8, 12]
    assert len(doc["median_s"]) == 2 and all(t > 0 for t in doc["median_s"])
    assert isinstance(doc["exponent"], float)
    assert doc["python"] == platform.python_version()
    assert doc["nproc"] >= 1
    digest = hashlib.sha256()
    for n in (8, 12):
        for seed in range(2):
            net = generate(GenSpec(n=n, k=2, beta=0.2, n_sources=2,
                                   seed=seed))
            digest.update(config_to_json(net, solve(net)[0]).encode())
    assert doc["solutions_sha256"] == digest.hexdigest()


@pytest.mark.parametrize("option", [("--sizes", "a"), ("--sizes", "8,1.5"),
                                    ("--seeds", "0"), ("--seeds", "-2"),
                                    ("--sizes", "8,8")])
def test_bench_rejects_bad_sizes_and_seeds(option, capsys):
    assert main(["bench", "--sizes", "8", *option]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1


def test_overflowing_cost_exit_code(tmp_path, capsys):
    doc = {"nodes": [{"name": "a", "p": 1e200}, {"name": "b", "p": -1e200}],
           "edges": [{"u": "a", "v": "b", "c": 1.0}]}
    path = tmp_path / "net.json"
    path.write_text(json.dumps(doc))
    assert main(["solve", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("infeasible:")
    assert "overflow" in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""


def test_export_dot(tmp_path):
    sol = tmp_path / "sol.json"
    dot = tmp_path / "net.dot"
    main(["solve", GAP_RING, "-o", str(sol)])
    assert main(["export-dot", str(sol), GAP_RING, "-o", str(dot)]) == 0
    text = dot.read_text()
    assert text.startswith("digraph radial {")
    assert text.count("x=") == 5
    assert text.count("style=dashed") == 1


def test_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("not json at all")
    assert main(["validate", str(bad)]) == 1
    assert capsys.readouterr().err.startswith("error:")


def test_missing_file_exit_code(tmp_path, capsys):
    assert main(["validate", str(tmp_path / "nope.json")]) == 1
    assert "error:" in capsys.readouterr().err


def test_imbalanced_network_exit_code(tmp_path, capsys):
    doc = {"nodes": [{"name": "a", "p": 1.0}, {"name": "b", "p": -0.5}],
           "edges": [{"u": "a", "v": "b", "c": 1.0}]}
    path = tmp_path / "net.json"
    path.write_text(json.dumps(doc))
    assert main(["validate", str(path)]) == 1
    assert "error:" in capsys.readouterr().err


def test_network_from_stdin(monkeypatch, capsys):
    text = data_path("mst_gap_ring.json").read_text()
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    assert main(["validate", "-"]) == 0
    assert "ok:" in capsys.readouterr().out


def test_network_from_stdin_must_be_utf8(monkeypatch, capsys):
    # read as text, stdin once took the byte in under a surrogate escape
    raw = b'{"nodes": [{"name": "\xff", "p": 0.0}], "edges": []}'
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(
        io.BytesIO(raw), encoding="utf-8", errors="surrogateescape"))
    assert main(["validate", "-"]) == 1
    assert "not valid UTF-8" in capsys.readouterr().err


def test_log_level_table():
    assert LOG_LEVELS == {"error": logging.ERROR, "info": logging.INFO,
                          "debug": logging.DEBUG}


@pytest.mark.parametrize("p", [(1.5e296, -0.75e296, -0.75e296),
                               (1e300, -5e299, -5e299)],
                         ids=["sum overflows", "weights infinite"])
def test_traced_solve_at_overflowing_weights(tmp_path, monkeypatch, p):
    # a weight normalized by the sum of the raw weights once overflowed (an
    # untyped OverflowError) or divided inf by inf (nan weights in the trace);
    # each row reads the pick's own raw weight
    picks = []
    real_sample = forward_engine.sample

    def recorded(*args):
        result = real_sample(*args)
        picks.append(result.best)
        return result

    monkeypatch.setattr(forward_engine, "sample", recorded)
    doc = {"nodes": [{"name": name, "p": x} for name, x in zip("abc", p)],
           "edges": [{"u": "a", "v": "b", "c": 0.0},
                     {"u": "a", "v": "c", "c": 0.0},
                     {"u": "b", "v": "c", "c": 1.0}]}
    net = tmp_path / "net.json"
    net.write_text(json.dumps(doc))
    traced, plain = tmp_path / "traced.json", tmp_path / "plain.json"
    tr = tmp_path / "trace.csv"
    assert main(["solve", str(net), "-o", str(traced), "--trace", str(tr)]) == 0
    traced_picks = picks[:]
    assert main(["solve", str(net), "-o", str(plain)]) == 0
    assert traced.read_bytes() == plain.read_bytes()
    rows = [row.split(",") for row in tr.read_text().splitlines()[1:]]
    assert [row[1] for row in rows] == ["0", "1"]
    assert len(traced_picks) == len(rows)
    for row, best in zip(rows, traced_picks):
        assert not math.isnan(float(row[2]))
        assert float(row[2]) == best[3]


@pytest.mark.parametrize("config", [
    b'{"edges": [{"u": "src", "v": "t1", "flow": 1.0}], "cost": "abc"}',
    b'{"edges": [{"u": "src", "v": "t1", "flow": null}], "cost": 1.0}',
    b'{"edges": [{"u": "src", "v": "t1", "flow": true}], "cost": 1.0}',
    b'{"edges": [{"u": ["src"], "v": "t1", "flow": 1.0}], "cost": 1.0}',
    b'{"edges": [], "cost": 1.0, "note": "\xff"}',
], ids=["cost a string", "flow null", "flow a bool", "endpoint a list",
        "not UTF-8"])
def test_malformed_config_exit_code(tmp_path, capsys, config):
    path = tmp_path / "config.json"
    path.write_bytes(config)
    assert main(["validate", GAP_RING, "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "Traceback" not in err


def test_invalid_spec_exit_code(capsys):
    assert main(["gen", "--n", "5", "--k", "3"]) == 1
    assert capsys.readouterr().err.startswith("error:")
