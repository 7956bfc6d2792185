"""Tests of the benchmark itself, on scaled-down workloads."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

import checks
import run
from children import Call
from workloads import SMALL_CHECKPOINT, Workload

if str(run.SRC) not in sys.path:
    sys.path.insert(0, str(run.SRC))

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

# One workload per way of getting a checkpoint: trained in the timed phase
# with the fitted Hawkes model, or in set-up with explicit parameters.
TINY = {
    "tiny-train": Workload("tiny-train", ("--conversations", "2", "--posts-lo", "12", "--posts-hi", "12"),
                           ("--dim", "4", "--hidden", "4", "--epochs", "2", "--k", "2"),
                           train_posts=None, disentangle_flags=(), setups=2, disentangled=1),
    "tiny-setup": Workload("tiny-setup", ("--conversations", "3", "--posts-lo", "20", "--posts-hi", "20",
                                          "--gap", "10"),
                           SMALL_CHECKPOINT, train_posts=20,
                           disentangle_flags=("--mu", "0.1", "--alpha", "0.1", "--beta", "0.01"),
                           setups=2, disentangled=2),
}


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(TINY))
def test_every_metric_is_emitted_with_its_unit(name, trace, tmp_path, monkeypatch):
    monkeypatch.setitem(run.WORKLOADS, name, TINY[name])
    record, record_path = run.run(name, seed=3, seconds=0.0, trace=trace, runs_dir=tmp_path)
    result = record["result"]
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == expected
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    assert (result["correct"], result["failed"]) == (True, 0)
    assert result["attempted"] >= 3
    assert json.loads(record_path.read_text()) == record
    assert record["environment"]["nproc"] >= 1
    assert all(len(d["graph.json"]) == 64 for d in record["digests"].values())


def _good_graph(n: int) -> dict:
    return {"n": n, "edges": [{"parent": 0, "child": 1, "w": 0.5},
                              {"parent": 1, "child": 2, "w": 0.25}], "roots": [0, 3]}


def _corrupt_backward(g):
    g["edges"].append({"parent": 3, "child": 2, "w": 0.1})


def _corrupt_child_out_of_range(g):
    g["edges"].append({"parent": 2, "child": g["n"], "w": 0.1})


def _corrupt_two_parents(g):
    g["edges"].append({"parent": 0, "child": 2, "w": 0.1})


def _corrupt_post_count(g):
    g["n"] += 1


@pytest.mark.parametrize("corrupt", [_corrupt_backward, _corrupt_child_out_of_range,
                                     _corrupt_two_parents, _corrupt_post_count])
def test_corrupted_graph_counts_as_a_failure(corrupt, tmp_path):
    n = 4
    good = Call("disentangle", [], 1.0, 1.0, 0, json.dumps({"n_posts": n}) + "\n", "")
    bad = Call("disentangle", [], 1.0, 1.0, 0, json.dumps({"n_posts": n}) + "\n", "")
    (tmp_path / "conversations.json").write_text("{}\n")
    (tmp_path / "graph.json").write_text(json.dumps(_good_graph(n)))
    checks.check_disentangle(good, tmp_path, n)
    graph = _good_graph(n)
    corrupt(graph)
    (tmp_path / "graph.json").write_text(json.dumps(graph))
    checks.check_disentangle(bad, tmp_path, n)
    assert good.ok and not bad.ok
    result = run.result_line({}, [good, bad])
    assert (result["correct"], result["attempted"], result["failed"]) == (False, 2, 1)


@pytest.mark.parametrize("line", ['{"ari": NaN, "f1": 1.0}', '{"ari": 0.5, "f1": Infinity}'])
def test_non_finite_stdout_json_is_rejected(line):
    payload, problems = checks.stdout_payload("log line\n" + line + "\n")
    assert payload == {} and problems


def test_exits_nonzero_without_result_outside_a_checkout(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "oracle-180",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
