"""Command-line interface: happy paths, precedence, exit codes."""

import gc
import inspect
import json
import math
import os
import re
import struct
import subprocess
import sys
import time
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest

from untangler import cli, corpus, embedder, graph, harness, ingest, temporal

from conftest import vocab_offset, write_jsonl
from oracles import reference_generate, reference_gold_json, reference_thread_jsonl
from test_cli_fuzz import OPTION_VALUES


@pytest.fixture
def thread_file(tmp_path):
    path = tmp_path / "thread.jsonl"
    rows = []
    for conv, (start, words) in enumerate([(0.0, "alpha beta"), (5000.0, "gamma delta")]):
        for i in range(6):
            rows.append({"id": f"c{conv}m{i}", "ts": start + 3.0 * i,
                         "text": f"{words} {conv}x{i % 3}"})
    write_jsonl(path, rows)
    return path


def run(*argv):
    return cli.main([str(a) for a in argv])


def child_env(**changes):
    """os.environ with this tree's untangler on the path, and `changes`;
    a change to None unsets its variable."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {**os.environ, "PYTHONPATH": src, **changes}
    return {key: value for key, value in env.items() if value is not None}


def python_c(code):
    """`python -c code` with this tree's untangler on the path."""
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=child_env())


def python_m(argv, env=None, **kwargs):
    """`python -m untangler.cli argv` with this tree's untangler on the
    path and the changes `env` to the environment."""
    return subprocess.run([sys.executable, "-m", "untangler.cli", *map(str, argv)],
                          env=child_env(**(env or {})), text=True, **kwargs)


def train_args(thread_file, tmp_path, *extra):
    return ["--out-dir", tmp_path / "out", "train", "--input", thread_file,
            "--dim", 4, "--hidden", 4, "--epochs", 2, "--k", 2,
            "--batch-size", 4, *extra]


def last_json(capsys):
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def timed_log(path, times):
    """A small chat log with the given post times."""
    write_jsonl(path, [{"id": f"p{i}", "ts": t, "text": f"alpha beta {i}"}
                       for i, t in enumerate(times)])
    return path


def default_of(function, parameter):
    return inspect.signature(function).parameters[parameter].default


SUBNORMAL_TIMES = [0.0, 5e-324, 1e-323]  # median gap 5e-324: the fit's smallest beta is inf


class TestStats:
    def test_invalid_utf8_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.jsonl"
        path.write_bytes(b'{"id": "a", "ts": 1.0, "text": "caf\xe9"}\n')
        assert run("stats", path) == 2
        assert "not UTF-8" in capsys.readouterr().err

    def test_reports_counts(self, thread_file, capsys):
        assert run("stats", thread_file) == 0
        payload = last_json(capsys)
        assert payload["message_count"] == 12
        assert payload["max_words"] == 3

    def test_missing_file_exits_2(self, tmp_path, capsys):
        assert run("stats", tmp_path / "nope.jsonl") == 2
        assert "no such file" in capsys.readouterr().err

    @pytest.mark.parametrize("ts", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_timestamp_exits_2(self, tmp_path, capsys, ts):
        path = tmp_path / "bad.jsonl"
        write_jsonl(path, [{"id": "a", "ts": 1.0, "text": "x"},
                           {"id": "b", "ts": ts, "text": "y"}])
        assert run("stats", path) == 2
        captured = capsys.readouterr()
        assert "line 2: 'ts' must be finite" in captured.err
        assert captured.out == ""

    def test_over_long_number_exits_2_with_its_line(self, tmp_path, capsys):
        path = tmp_path / "big.jsonl"
        path.write_text('{"id": "a", "ts": 1, "text": "x"}\n'
                        '{"id":"b","ts":' + "9" * 5000 + ',"text":"y"}\n')
        assert run("stats", path) == 2
        captured = capsys.readouterr()
        assert f"line 2: invalid JSON (a number longer than {sys.get_int_max_str_digits()} " \
               "digits)" in captured.err
        assert captured.out == ""


class TestTrain:
    def test_writes_outputs(self, thread_file, tmp_path, capsys):
        assert run(*train_args(thread_file, tmp_path)) == 0
        payload = last_json(capsys)
        out = tmp_path / "out"
        assert (out / "model.untg").exists()
        assert not list(out.glob("*.vocab"))
        loss_lines = (out / "loss.csv").read_text().strip().splitlines()
        assert loss_lines[0] == "epoch,mean_loss"
        assert len(loss_lines) == 3
        assert payload["final_epoch_loss"] > 0

    def test_empty_corpus_exits_2(self, tmp_path, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert run("train", "--input", empty) == 2
        assert "nothing to train" in capsys.readouterr().err

    def test_config_file_and_flag_precedence(self, thread_file, tmp_path, capsys):
        config = tmp_path / "cfg"
        config.write_text("epochs=5\ndim=4\nhidden=4\nk=2\nbatch_size=4\n")
        assert run("--config", config, "--out-dir", tmp_path / "o1",
                   "train", "--input", thread_file, "--epochs", 1) == 0
        assert len((tmp_path / "o1" / "loss.csv").read_text().strip().splitlines()) == 2
        assert run("--config", config, "--out-dir", tmp_path / "o2",
                   "train", "--input", thread_file) == 0
        assert len((tmp_path / "o2" / "loss.csv").read_text().strip().splitlines()) == 6

    def test_bad_config_file_exits_2(self, thread_file, tmp_path, capsys):
        config = tmp_path / "cfg"
        config.write_text("no equals sign here\n")
        assert run("--config", config, "train", "--input", thread_file) == 2

    @pytest.mark.parametrize("line", ["epochs=abc", "dim=64.5"])
    def test_unparsable_config_value_exits_2(self, thread_file, tmp_path, capsys, line):
        config = tmp_path / "cfg"
        config.write_text(line + "\n")
        assert run("--config", config, "--out-dir", tmp_path / "out", "train",
                   "--input", thread_file) == 2
        assert line.split("=")[0] in capsys.readouterr().err

    def test_nan_learning_rate_exits_2(self, thread_file, tmp_path, capsys):
        assert run(*train_args(thread_file, tmp_path, "--lr", "nan")) == 2
        assert "--lr must be a finite number >= 0, got 'nan'" in capsys.readouterr().err
        assert not (tmp_path / "out" / "model.untg").exists()

    # the diverging run overflows on purpose
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_epoch_loss_exits_2(self, thread_file, tmp_path, capsys):
        assert run(*train_args(thread_file, tmp_path, "--lr", "1e300")) == 2
        captured = capsys.readouterr()
        assert "mean loss is nan" in captured.err and captured.out == ""
        assert not (tmp_path / "out" / "model.untg").exists()

    def test_header_limits_round_trip(self, thread_file, tmp_path, capsys):
        assert run("--seed", 2**63 - 1, *train_args(thread_file, tmp_path, "--epochs", 1,
                   "--negatives", 2**31 - 1, "--batch-size", 2**31 - 1,
                   "--max-len", 2**31 - 1)) == 0
        config, _, _ = embedder.load_checkpoint(str(tmp_path / "out" / "model.untg"))
        assert (config.seed, config.negatives_per_sample, config.batch_size, config.max_len) \
            == (2**63 - 1, 2**31 - 1, 2**31 - 1, 2**31 - 1)

    def test_parameters_beyond_float32_exit_2_writing_nothing(self, thread_file, tmp_path,
                                                              capsys):
        assert run(*train_args(thread_file, tmp_path, "--epochs", 1, "--lr", "1e40")) == 2
        captured = capsys.readouterr()
        assert "not finite as float32" in captured.err and "lower --lr" in captured.err
        assert captured.out == ""
        assert list((tmp_path / "out").iterdir()) == []

    def test_lone_surrogate_exits_2_before_training(self, tmp_path, capsys):
        log = tmp_path / "log.jsonl"
        log.write_text('{"id": "a", "ts": 1, "text": "hello \\ud800 world"}\n'
                       '{"id": "b", "ts": 2, "text": "hello world"}\n', encoding="utf-8")
        assert run("--out-dir", tmp_path / "out", "train", "--input", log) == 2
        captured = capsys.readouterr()
        assert "line 1: 'text' is not UTF-8 text" in captured.err and captured.out == ""
        assert not (tmp_path / "out" / "model.untg").exists()

    def test_emit_rejects_non_finite_numbers(self):
        with pytest.raises(ValueError):
            cli._emit({"final_epoch_loss": float("nan")})


class TestDisentangle:
    def test_full_run(self, thread_file, tmp_path, capsys):
        assert run(*train_args(thread_file, tmp_path)) == 0
        ckpt = tmp_path / "out" / "model.untg"
        assert run("--out-dir", tmp_path / "out", "disentangle",
                   "--input", thread_file, "--checkpoint", ckpt, "--dot") == 0
        payload = last_json(capsys)
        assert payload["n_posts"] == 12
        graph = json.loads((tmp_path / "out" / "graph.json").read_text())
        assert graph["n"] == 12
        children = [e["child"] for e in graph["edges"]]
        assert len(children) == len(set(children))  # forest
        convs = json.loads((tmp_path / "out" / "conversations.json").read_text())
        assert {"hawkes", "ranges", "conversations"} <= set(convs)
        assert (tmp_path / "out" / "graph.dot").exists()

    def test_explicit_hawkes_params(self, thread_file, tmp_path):
        assert run(*train_args(thread_file, tmp_path)) == 0
        ckpt = tmp_path / "out" / "model.untg"
        assert run("--out-dir", tmp_path / "out", "disentangle",
                   "--input", thread_file, "--checkpoint", ckpt,
                   "--mu", 0.5, "--alpha", 0.1, "--beta", 1.0) == 0
        convs = json.loads((tmp_path / "out" / "conversations.json").read_text())
        assert convs["hawkes"] == {"mu": 0.5, "alpha": 0.1, "beta": 1.0}

    def test_outputs_are_formatted_without_the_thread_or_the_embeddings(
            self, tiny_model, tmp_path, monkeypatch):
        refs = []  # weak references to the thread and the embeddings
        alive = []  # at each export_graph call, which of them are still alive

        def keeping_a_weakref(function):
            def wrapper(*args, **kwargs):
                result = function(*args, **kwargs)
                refs.append(weakref.ref(result))
                return result
            return wrapper

        def export_graph(*args, _export=graph.export_graph):
            alive.append([ref() is not None for ref in refs])
            return _export(*args)

        monkeypatch.setattr(cli, "_read_thread", keeping_a_weakref(cli._read_thread))
        monkeypatch.setattr(embedder, "embed_thread", keeping_a_weakref(embedder.embed_thread))
        monkeypatch.setattr(graph, "export_graph", export_graph)
        gc.disable()  # as in cli.run: only reference counts free them
        try:
            assert run("--out-dir", tmp_path, "disentangle",
                       *command_argv("disentangle", tiny_model), "--dot") == 0
        finally:
            gc.enable()
        assert alive == [[False, False]] * 2

    def test_partial_hawkes_params_exit_2(self, thread_file, tmp_path, capsys):
        assert run(*train_args(thread_file, tmp_path)) == 0
        ckpt = tmp_path / "out" / "model.untg"
        assert run("disentangle", "--input", thread_file,
                   "--checkpoint", ckpt, "--mu", 0.5) == 2
        assert "all of --mu/--alpha/--beta" in capsys.readouterr().err

    def test_missing_checkpoint_exits_2(self, thread_file, tmp_path, capsys):
        assert run("disentangle", "--input", thread_file,
                   "--checkpoint", tmp_path / "no.untg") == 2

    def test_non_finite_timestamp_exits_2(self, thread_file, tmp_path, capsys):
        assert run(*train_args(thread_file, tmp_path)) == 0
        rows = [json.loads(line) for line in thread_file.read_text().splitlines()]
        rows[3]["ts"] = float("nan")
        write_jsonl(tmp_path / "nan.jsonl", rows)
        assert run("disentangle", "--input", tmp_path / "nan.jsonl",
                   "--checkpoint", tmp_path / "out" / "model.untg") == 2
        assert "line 4: 'ts' must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["disentangle", "project"])
    @pytest.mark.parametrize("corrupt,message", [
        (lambda vocab: vocab.rsplit("\n", 2)[0] + "\n", "tokens"),
        (lambda vocab: vocab.rsplit("\n", 2)[0] + "\n" + vocab.split("\n", 1)[0] + "\n",
         "repeats a token"),
        (lambda vocab: vocab.rsplit("\n", 2)[0] + "\n\n", "empty token"),
        (lambda vocab: vocab[:-1], "does not end with a newline"),
        (lambda vocab: vocab.replace("t1w1\n", "T1W1!\n"), "'T1W1!', not a non-empty token"),
    ])
    def test_malformed_vocab_exits_2(self, tiny_model, tmp_path, capsys, corrupt, message,
                                     command):
        data = (tiny_model / "model.untg").read_bytes()
        at = vocab_offset(data)
        ckpt = tmp_path / "bad.untg"
        ckpt.write_bytes(data[:at] + corrupt(data[at:].decode()).encode())
        assert run("--out-dir", tmp_path, command, "--input", tiny_model / "thread.jsonl",
                   "--checkpoint", ckpt) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {ckpt}: ") and message in err

    def test_non_utf8_vocab_reports_its_file_offset(self, tiny_model, tmp_path, capsys):
        data = (tiny_model / "model.untg").read_bytes()
        at = vocab_offset(data) + 2  # inside the first token
        ckpt = tmp_path / "bad.untg"
        ckpt.write_bytes(data[:at] + b"\xff" + data[at + 1:])
        assert run("disentangle", "--input", tiny_model / "thread.jsonl",
                   "--checkpoint", ckpt) == 2
        assert capsys.readouterr().err == (f"error: {ckpt}: vocabulary block is not UTF-8 "
                                           f"(invalid start byte at byte {at})\n")

    def test_negative_checkpoint_dim_exits_2(self, thread_file, tmp_path, capsys):
        assert run(*train_args(thread_file, tmp_path)) == 0
        ckpt = tmp_path / "out" / "model.untg"
        data = ckpt.read_bytes()
        ckpt.write_bytes(data[:16] + struct.pack("<i", -4) + data[20:])  # hidden_dim
        assert run("disentangle", "--input", thread_file, "--checkpoint", ckpt) == 2
        assert "hidden_dim must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("at,value,message", [
        (24, 0, "epochs must be >= 1"),
        (28, -1, "negatives_per_sample must be >= 0"),
        (32, -3, "batch_size must be >= 1"),
    ])
    def test_bad_training_field_in_checkpoint_exits_2(self, thread_file, tmp_path, capsys,
                                                      at, value, message):
        assert run(*train_args(thread_file, tmp_path)) == 0
        ckpt = tmp_path / "out" / "model.untg"
        data = ckpt.read_bytes()
        ckpt.write_bytes(data[:at] + struct.pack("<i", value) + data[at + 4:])
        assert run("--out-dir", tmp_path / "dis", "disentangle", "--input", thread_file,
                   "--checkpoint", ckpt) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "dis").exists()

    def test_non_finite_checkpoint_exits_2(self, thread_file, tmp_path, capsys):
        assert run(*train_args(thread_file, tmp_path)) == 0
        ckpt = tmp_path / "out" / "model.untg"
        data = ckpt.read_bytes()
        at = vocab_offset(data) - 4  # the last float of the parameter blocks
        ckpt.write_bytes(data[:at] + struct.pack("<f", float("nan")) + data[at + 4:])
        assert run("--out-dir", tmp_path / "dis", "disentangle", "--input", thread_file,
                   "--checkpoint", ckpt) == 2
        assert "non-finite value" in capsys.readouterr().err


# `python -S -c LAUNCHER out err *args`: runs `python *args` with its stdout
# and stderr in the files out and err, and prints its exit code, peak RSS
# in KiB and CPU time (user and system) in seconds.  It imports nothing
# beyond os and sys, so that the peak is the child's own.
LAUNCHER = """
import os, sys
out, err, *args = sys.argv[1:]
flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
pid = os.posix_spawn(sys.executable, [sys.executable, *args], os.environ, file_actions=[
    (os.POSIX_SPAWN_OPEN, 1, out, flags, 0o644), (os.POSIX_SPAWN_OPEN, 2, err, flags, 0o644)])
_, status, usage = os.wait4(pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss, usage.ru_utime + usage.ru_stime)
"""


def launched(tmp_path, *args):
    """Exit code, peak RSS (KiB) and CPU seconds of `python *args` run by
    LAUNCHER, with its stdout and stderr in tmp_path/stdout and /stderr."""
    proc = subprocess.run([sys.executable, "-S", "-c", LAUNCHER, tmp_path / "stdout",
                           tmp_path / "stderr", *args],
                          capture_output=True, text=True, env=child_env(), check=True)
    code, maxrss_kb, cpu_s = proc.stdout.split()
    return int(code), int(maxrss_kb), float(cpu_s)


class TestScale:
    def test_20k_posts_in_linear_memory(self, tmp_path):
        # 100 conversations of 200 posts started 10 s apart interleave
        # into a few huge ranges; one dense n x n float64 matrix alone
        # would take 3.2 GB
        config = cli.default_synth_config(n_conversations=100, posts_lo=200,
                                          posts_hi=200, gap=10.0)
        thread, _ = harness.generate(config, seed=20)
        assert len(thread) == 20000
        big = tmp_path / "big.jsonl"
        big.write_text(ingest.serialize_thread(thread))
        prefix = tmp_path / "prefix.jsonl"
        prefix.write_text(ingest.serialize_thread(ingest.Thread(posts=thread.posts[::100])))
        assert run("--out-dir", tmp_path, "train", "--input", prefix,
                   "--dim", 8, "--hidden", 8, "--epochs", 2,
                   "--k", 2, "--batch-size", 8) == 0

        # Linux starts a child's peak RSS at its parent's, so the CLI is
        # spawned by a small launcher rather than by this process
        returncode, maxrss_kb, _ = launched(
            tmp_path, "-m", "untangler.cli", "--out-dir", tmp_path / "big",
            "disentangle", "--input", big, "--checkpoint", tmp_path / "model.untg",
            "--mu", "0.1", "--alpha", "0.1", "--beta", "0.01")
        assert returncode == 0, (tmp_path / "stderr").read_text()
        payload = json.loads((tmp_path / "stdout").read_text().strip().splitlines()[-1])
        assert payload["n_posts"] == 20000
        peak_mb = maxrss_kb / 1024
        assert peak_mb < 512, f"peak RSS {peak_mb:.0f} MB"


class TestSynthEval:
    def test_synth_then_eval_round_trip(self, tmp_path, capsys):
        assert run("--seed", 3, "--out-dir", tmp_path, "synth",
                   "--conversations", 2, "--posts-lo", 8, "--posts-hi", 8,
                   "--pool-size", 5) == 0
        synth_payload = last_json(capsys)
        assert synth_payload["n_posts"] == 16
        # train + disentangle on the synthetic thread, then score it
        thread = tmp_path / "thread.jsonl"
        assert run(*train_args(thread, tmp_path)) == 0
        ckpt = tmp_path / "out" / "model.untg"
        assert run("--out-dir", tmp_path / "out", "disentangle",
                   "--input", thread, "--checkpoint", ckpt) == 0
        assert run("eval", "--pred", tmp_path / "out" / "graph.json",
                   "--gold", tmp_path / "gold.json") == 0
        report = last_json(capsys)
        assert set(report) == {"precision", "recall", "f1", "ari",
                               "predicted_conversations", "gold_conversations",
                               "cross_edges", "mixed_trees", "split_conversations"}
        assert report["gold_conversations"] == 2

    @pytest.mark.parametrize("graph,message", [
        ({"n": -1, "edges": [], "roots": []}, "'n' must be an integer >= 0"),
        ({"n": 2.5, "edges": [], "roots": []}, "'n' must be an integer >= 0"),
        ({"n": 3, "edges": [{"parent": 2, "child": 0, "w": 0.5}]}, "parent < child"),
        ({"n": 3, "edges": [{"parent": 0, "child": 9, "w": 0.5}]}, "child < n"),
        ({"n": 3, "edges": [{"parent": -1, "child": 1, "w": 0.5}]}, "0 <= parent"),
        ({"n": 3, "edges": [{"parent": 0, "child": 1.0, "w": 0.5}]}, "parent < child"),
        ({"n": 3, "edges": [{"parent": 0, "child": 1, "w": float("nan")}]}, "finite"),
        ({"n": 3, "edges": [{"parent": 0, "child": 1, "w": float("inf")}]}, "finite"),
        ({"n": 3, "edges": [{"parent": 0, "child": 1, "w": "0.5"}]}, "finite"),
        ({"n": 3, "edges": [{"parent": 0, "child": 1, "w": 10**400}]}, "finite"),
        ({"n": 3, "edges": {"parent": 0}}, "list of objects"),
        ({"n": 3}, "list of objects"),
        ({"n": 10**30, "edges": [{"parent": 10**20, "child": 10**21, "w": 0.5}]}, "too large"),
        ([1, 2], "JSON object"),
    ])
    def test_eval_rejects_invalid_graph(self, tmp_path, capsys, graph, message):
        (tmp_path / "g.json").write_text(json.dumps(graph))
        gold = {"parents": {}, "labels": {"0": 0, "1": 0, "2": 1}}
        (tmp_path / "gold.json").write_text(json.dumps(gold))
        assert run("eval", "--pred", tmp_path / "g.json",
                   "--gold", tmp_path / "gold.json") == 2
        assert message in capsys.readouterr().err

    # raw text, since json.dumps of a dict cannot repeat a key; without the
    # check, the last value of each key would make a valid graph
    @pytest.mark.parametrize("text", [
        '{"n": 5, "n": 3, "edges": [], "roots": [0, 1, 2]}',
        '{"n": 3, "edges": [{"parent": 0, "child": 2, "child": 1, "w": 0.5}], "roots": [0, 2]}',
    ], ids=["n", "child"])
    def test_eval_rejects_graph_that_repeats_a_key(self, tmp_path, monkeypatch, capsys, text):
        monkeypatch.chdir(tmp_path)
        Path("g.json").write_text(text)
        Path("gold.json").write_text(json.dumps({"parents": {}, "labels": {"0": 0, "1": 0,
                                                                           "2": 1}}))
        assert run("eval", "--pred", "g.json", "--gold", "gold.json") == 2
        captured = capsys.readouterr()
        assert captured.err == "error: g.json: a JSON object repeats a key\n"
        assert captured.out == ""

    @pytest.mark.parametrize("gold,message", [
        ({"parents": [], "labels": {"0": 0, "1": 0, "2": 1}}, "'parents' must be an object"),
        ({"parents": {}, "labels": [0, 0, 1]}, "'labels' must be an object"),
        ({"parents": {"1": 5}, "labels": {"0": 0, "1": 0, "2": 1}}, "0 <= parent < child"),
        ({"parents": {"0": 1}, "labels": {"0": 0, "1": 0, "2": 1}}, "0 <= parent < child"),
        ({"parents": {"5": 1}, "labels": {"0": 0, "1": 0, "2": 1}}, "beyond the graph"),
        ({"parents": {"1": 0.0}, "labels": {"0": 0, "1": 0, "2": 1}}, "to integers"),
        ({"parents": {"1": True}, "labels": {"0": 0, "1": 0, "2": 1}}, "to integers"),
        ({"parents": {"x": 0}, "labels": {"0": 0, "1": 0, "2": 1}}, "post indices"),
        ({"parents": {}, "labels": {"0": 0.5, "1": 0, "2": 1}}, "to integers"),
        ({"parents": {}, "labels": {"0": 0, " 1": 0, "2": 1}}, "post indices"),
        ({"parents": {}}, "labels"),
        ([1], "JSON object"),
        # aliases of one post: a non-canonical index, a repeated key (raw text)
        ({"parents": {"1": 0, "01": 0}, "labels": {"0": 0, "1": 0, "00": 1}}, "post indices"),
        ('{"parents": {}, "labels": {"0": 0, "1": 0, "1": 1, "2": 1}}', "repeats a key"),
        ({"parents": {"1": 0}, "labels": {"0": 0, "1": 1, "2": 1}}, "joins two conversations"),
    ])
    def test_eval_rejects_invalid_gold(self, tmp_path, capsys, gold, message):
        (tmp_path / "g.json").write_text(json.dumps({"n": 3, "edges": [], "roots": [0, 1, 2]}))
        (tmp_path / "gold.json").write_text(gold if isinstance(gold, str) else json.dumps(gold))
        assert run("eval", "--pred", tmp_path / "g.json",
                   "--gold", tmp_path / "gold.json") == 2
        assert message in capsys.readouterr().err

    def test_overflowing_nearest_gap_exits_2(self, tmp_path, capsys):
        # some post lies over 1.8 s after its nearest earlier post, and 1.8 * 1e308 overflows
        assert run("--out-dir", tmp_path / "out", "synth", "--temperature", "1e308") == 2
        captured = capsys.readouterr()
        assert "--temperature" in captured.err and "Warning" not in captured.err
        assert captured.out == ""
        assert not (tmp_path / "out").exists()

    def test_overflowing_far_posts_weigh_nothing(self, tmp_path, capsys):
        # seed 0's nearest gaps are at most 5.8 s and its conversations span 32 s,
        # so the nearest logits are finite and the farthest overflow to -inf
        flags = ["--conversations", 2, "--posts-lo", 20, "--posts-hi", 20,
                 "--temperature", "1.5e307"]
        assert run("--seed", 0, "--out-dir", tmp_path, "synth", *flags) == 0
        assert capsys.readouterr().err == ""
        config = cli.default_synth_config(2, 20, 20, temperature=1.5e307)
        with np.errstate(over="ignore"):
            thread, gold = reference_generate(config, seed=0)
        assert (tmp_path / "thread.jsonl").read_text(encoding="utf-8") == \
            reference_thread_jsonl(thread)
        assert (tmp_path / "gold.json").read_text(encoding="utf-8") == reference_gold_json(gold)
        assert all(gold.parents[c] == c - 1 for c in gold.parents)

    def test_eval_graph_that_is_not_a_forest_exits_2_naming_it(self, tmp_path, monkeypatch,
                                                               capsys):
        monkeypatch.chdir(tmp_path)
        edges = [{"parent": 0, "child": 2, "w": 0.5}, {"parent": 1, "child": 2, "w": 0.5}]
        Path("g.json").write_text(json.dumps({"n": 3, "edges": edges, "roots": [0, 1]}))
        Path("gold.json").write_text(json.dumps({"parents": {}, "labels": {"0": 0, "1": 1,
                                                                           "2": 2}}))
        before = sorted(tmp_path.rglob("*"))
        assert run("eval", "--pred", "g.json", "--gold", "gold.json") == 2
        captured = capsys.readouterr()
        assert captured.err == "error: g.json: graph is not a forest: a node has in-degree > 1\n"
        assert captured.out == ""
        assert sorted(tmp_path.rglob("*")) == before

    def test_eval_mismatched_inputs_exit_2(self, tmp_path, capsys):
        (tmp_path / "g.json").write_text(json.dumps({"n": 2, "edges": [], "roots": [0, 1]}))
        gold = {"parents": {}, "labels": {"0": 0}}
        (tmp_path / "gold.json").write_text(json.dumps(gold))
        assert run("eval", "--pred", tmp_path / "g.json",
                   "--gold", tmp_path / "gold.json") == 2


class TestExportIntensity:
    def test_csv_written(self, thread_file, tmp_path, capsys):
        assert run("--out-dir", tmp_path, "export-intensity",
                   "--input", thread_file, "--mu", 0.5, "--alpha", 0.1,
                   "--beta", 1.0) == 0
        lines = (tmp_path / "intensity.csv").read_text().strip().splitlines()
        assert lines[0] == "t,raw,smoothed"
        assert len(lines) == 13

    def test_huge_time_span_fits_silently(self, tmp_path):
        # the gradient's squared norm overflows at this span unless scaled;
        # the likelihood's maximum has mu = 3 / 1.5e308, below the 1e-8 floor
        log = timed_log(tmp_path / "huge.jsonl", [0.0, 1e300, 1.5e308])
        proc = python_m(["--out-dir", tmp_path, "export-intensity", "--input", log],
                        capture_output=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""
        hawkes = json.loads(proc.stdout.strip().splitlines()[-1])["hawkes"]
        assert all(math.isfinite(v) for v in hawkes.values())


class TestDefaultTau:
    """Without --tau the cut smooths over 3/beta of the fit, or over the
    median inter-post gap when --mu/--alpha/--beta are given."""

    OUTPUTS = {"disentangle": ["graph.json", "conversations.json"],
               "export-intensity": ["intensity.csv"]}

    @staticmethod
    def outputs(tiny_model, out, command, *flags):
        assert run("--out-dir", out, command, *command_argv(command, tiny_model), *flags) == 0
        return {name: (out / name).read_bytes() for name in TestDefaultTau.OUTPUTS[command]}

    @pytest.mark.parametrize("command", ["disentangle", "export-intensity"])
    def test_given_parameters_smooth_over_the_median_gap(self, tiny_model, tmp_path, command):
        hawkes = ["--mu", 0.1, "--alpha", 0.1, "--beta", 0.01]
        gap = temporal.median_gap(cli._read_thread(tiny_model / "thread.jsonl").timestamps)
        default = self.outputs(tiny_model, tmp_path / "default", command, *hawkes)
        assert default == self.outputs(tiny_model, tmp_path / "gap", command, *hawkes,
                                       "--tau", repr(gap))
        if command == "export-intensity":  # 3/beta would smooth otherwise
            assert default != self.outputs(tiny_model, tmp_path / "fit-rule", command, *hawkes,
                                           "--tau", repr(3 / 0.01))

    @pytest.mark.parametrize("command", ["disentangle", "export-intensity"])
    def test_fitted_parameters_smooth_over_three_decay_times(self, tiny_model, tmp_path,
                                                             capsys, command):
        default = self.outputs(tiny_model, tmp_path / "default", command)
        if command == "disentangle":
            beta = json.loads(default["conversations.json"])["hawkes"]["beta"]
        else:
            beta = last_json(capsys)["hawkes"]["beta"]
        assert default == self.outputs(tiny_model, tmp_path / "three", command,
                                       "--tau", repr(3 / beta))

    @pytest.mark.parametrize("times", [[4.0], [0.0, 2.5], [7.0, 7.0, 7.0]],
                             ids=["one-post", "two-posts", "equal-times"])
    @pytest.mark.parametrize("command", ["disentangle", "export-intensity"])
    def test_degenerate_threads_fit_silently(self, tiny_model, tmp_path, capsys, command,
                                             times):
        texts = [p.text for p in cli._read_thread(tiny_model / "thread.jsonl").posts]
        log = tmp_path / "log.jsonl"
        write_jsonl(log, [{"id": f"p{i}", "ts": t, "text": texts[i]}
                          for i, t in enumerate(times)])
        argv = ["--input", log]
        if command == "disentangle":
            argv += ["--checkpoint", tiny_model / "model.untg"]
        assert run("--out-dir", tmp_path / "out", command, *argv) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        if command == "disentangle":
            hawkes = json.loads((tmp_path / "out" / "conversations.json").read_text())["hawkes"]
        else:
            hawkes = json.loads(captured.out)["hawkes"]
        assert all(math.isfinite(v) for v in hawkes.values())
        assert 0 <= hawkes["alpha"] < hawkes["beta"]
        if len(times) == 1:  # nothing to fit: the Poisson process of rate 1
            assert hawkes == {"mu": 1.0, "alpha": 0.0, "beta": 1.0}

    @pytest.mark.parametrize("command", ["disentangle", "export-intensity"])
    def test_subnormal_median_gap_gives_the_timescale_message(self, tiny_model, tmp_path,
                                                              capsys, command):
        log = timed_log(tmp_path / "subnormal.jsonl", SUBNORMAL_TIMES)
        argv = ["--input", log]
        if command == "disentangle":
            argv += ["--checkpoint", tiny_model / "model.untg"]
        assert run("--out-dir", tmp_path / "out", command, *argv) == 2
        captured = capsys.readouterr()
        assert captured.err == (
            "error: cannot fit the Hawkes process: median gap between events 4.94066e-324 "
            "is too small for a finite decay rate to start the fit from; "
            "give --mu/--alpha/--beta instead\n")
        assert captured.out == ""
        assert not (tmp_path / "out").exists()


class TestIntensityOverflow:
    # valid values at the edge of the float range, on tiny_model's synth
    # thread (12 posts, gaps of 0.1 s and more, none tied)

    @pytest.mark.parametrize("command", ["export-intensity", "disentangle"])
    def test_overflowing_smoothing_decay_is_zero(self, tiny_model, tmp_path, capsys, command):
        # gap / tau overflows for every gap: each post keeps its raw value
        argv = command_argv(command, tiny_model)
        assert run("--out-dir", tmp_path, command, *argv, "--tau", "1e-320") == 0
        assert capsys.readouterr().err == ""
        if command == "export-intensity":
            rows = (tmp_path / "intensity.csv").read_text().strip().splitlines()[1:]
            assert all(row.split(",")[1] == row.split(",")[2] for row in rows)

    @pytest.mark.parametrize("command", ["export-intensity", "disentangle"])
    def test_overflowing_hawkes_decay_is_zero(self, tiny_model, tmp_path, capsys, command):
        # beta * gap overflows for every gap: the intensity is mu throughout
        argv = command_argv(command, tiny_model)
        assert run("--out-dir", tmp_path, command, *argv,
                   "--mu", 1, "--alpha", 0.5, "--beta", "1e308") == 0
        assert capsys.readouterr().err == ""
        if command == "export-intensity":
            rows = (tmp_path / "intensity.csv").read_text().strip().splitlines()[1:]
            assert all(row.split(",")[1:] == ["1.0", "1.0"] for row in rows)

    @pytest.mark.parametrize("alpha,what", [
        ("1e308", "the intensity"),  # alpha * 2 overflows
        ("1e307", "the smoothed intensity"),  # raw values up to 1.1e308; their sums overflow
    ])
    @pytest.mark.parametrize("command", ["export-intensity", "disentangle"])
    def test_overflowing_intensity_exits_2(self, tiny_model, tmp_path, capsys, command,
                                           alpha, what):
        argv = command_argv(command, tiny_model)
        assert run("--out-dir", tmp_path / "out", command, *argv,
                   "--mu", 1, "--alpha", alpha, "--beta", "1e-300") == 2
        captured = capsys.readouterr()
        assert f"error: --mu/--alpha/--beta: {what} is not a finite number" in captured.err
        assert captured.out == ""
        assert not (tmp_path / "out").exists()

    def test_overflowing_synth_intensity_exits_2(self, tmp_path, capsys):
        # right after an event the intensity is at least alpha = 1e308
        assert run("--out-dir", tmp_path / "out", "synth", "--posts-lo", 5, "--posts-hi", 5,
                   "--alpha", "1e308", "--beta", "1e308") == 2
        captured = capsys.readouterr()
        assert "error: --mu/--alpha/--beta: the intensity is not a finite number" in captured.err
        assert captured.out == ""
        assert not (tmp_path / "out").exists()


class TestTinyGaps:
    # normal but tiny gaps: the first start's beta is 0.01 / gap, finite,
    # while beta ** 2 overflows.  Behind 50 tied posts, the intensity
    # alpha * s overflows at candidates near alpha = 5e306, beta = 1e307
    @pytest.mark.parametrize("times", [
        pytest.param([0.0, 1e-160, 2e-160], id="1e-160"),
        pytest.param([0.0, 1e-300, 2e-300], id="1e-300"),
        pytest.param([0.0] * 50 + [k * 1e-307 for k in range(1, 11)], id="ties"),
    ])
    @pytest.mark.parametrize("command", ["export-intensity", "disentangle"])
    def test_fits_silently(self, thread_file, tmp_path, command, times):
        log = timed_log(tmp_path / "tiny.jsonl", times)
        argv = ["--out-dir", tmp_path / "res", command, "--input", log]
        if command == "disentangle":
            assert run(*train_args(thread_file, tmp_path)) == 0
            argv += ["--checkpoint", tmp_path / "out" / "model.untg"]
        proc = python_m(argv, capture_output=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""
        if command == "export-intensity":
            hawkes = json.loads(proc.stdout.strip().splitlines()[-1])["hawkes"]
            rows = (tmp_path / "res" / "intensity.csv").read_text().strip().splitlines()[1:]
            values = [float(v) for row in rows for v in row.split(",")]
            assert len(values) == 3 * len(times)
        else:
            hawkes = json.loads((tmp_path / "res" / "conversations.json").read_text())["hawkes"]
            graph = json.loads((tmp_path / "res" / "graph.json").read_text())
            values = [e["w"] for e in graph["edges"]]
            assert graph["n"] == len(times)
        assert all(math.isfinite(v) for v in [*hawkes.values(), *values])


    # 60 posts 1e-307 s apart: the fit is finite, its smoothed intensity is not
    @pytest.mark.parametrize("command", ["export-intensity", "disentangle"])
    def test_fitted_overflow_names_the_fit(self, thread_file, tmp_path, command):
        log = tmp_path / "tiny.jsonl"
        write_jsonl(log, [{"id": f"p{i}", "ts": i * 1e-307, "text": "alpha beta gamma"}
                          for i in range(60)])
        argv = ["--out-dir", tmp_path / "res", command, "--input", log]
        if command == "disentangle":
            assert run(*train_args(thread_file, tmp_path)) == 0
            argv += ["--checkpoint", tmp_path / "out" / "model.untg"]
        proc = python_m(argv, capture_output=True)
        assert proc.returncode == 2
        assert proc.stderr == ("error: cannot use the fitted Hawkes process: the smoothed "
                               "intensity is not a finite number; give --mu/--alpha/--beta "
                               "instead\n")
        assert proc.stdout == ""
        assert not (tmp_path / "res").exists()


class TestProject:
    def test_csv_written(self, thread_file, tmp_path):
        assert run(*train_args(thread_file, tmp_path)) == 0
        ckpt = tmp_path / "out" / "model.untg"
        assert run("--out-dir", tmp_path, "project",
                   "--input", thread_file, "--checkpoint", ckpt) == 0
        lines = (tmp_path / "projection.csv").read_text().strip().splitlines()
        assert lines[0] == "post,x,y,z"
        assert len(lines) == 13

    def test_two_posts_exit_2_naming_the_thread(self, tiny_model, tmp_path, monkeypatch,
                                                capsys):
        monkeypatch.chdir(tmp_path)
        posts = cli._read_thread(tiny_model / "thread.jsonl").posts[:2]
        write_jsonl("two.jsonl", [{"id": p.id, "ts": p.timestamp, "text": p.text}
                                  for p in posts])
        assert run("project", "--input", "two.jsonl",
                   "--checkpoint", tiny_model / "model.untg") == 2
        captured = capsys.readouterr()
        assert captured.err == "error: two.jsonl: need at least 3 rows to project\n"
        assert captured.out == ""
        assert not Path("projection.csv").exists()


class TestUnreadablePosts:
    """disentangle and project say on stderr when the checkpoint's
    vocabulary holds no token of some posts, and change nothing else."""

    @pytest.mark.parametrize("command", ["disentangle", "project"])
    def test_disjoint_checkpoint_prints_one_line(self, thread_file, tmp_path, capsys, command):
        assert run(*train_args(thread_file, tmp_path)) == 0
        ckpt = tmp_path / "out" / "model.untg"
        log = tmp_path / "other.jsonl"
        # 4 posts of unseen words, 1 that shares "alpha", 1 with no token at all
        write_jsonl(log, [{"id": f"p{i}", "ts": 3.0 * i, "text": text} for i, text in enumerate(
            ["omega psi", "chi phi", "alpha omega", "...", "upsilon tau", "sigma rho"])])
        capsys.readouterr()
        assert run("--out-dir", tmp_path / "res", command, "--input", log,
                   "--checkpoint", ckpt) == 0
        captured = capsys.readouterr()
        assert captured.err == (f"warning: {ckpt}: 4 of 5 non-empty posts have no token "
                                "in the vocabulary\n")
        assert json.loads(captured.out)["n_posts"] == 6  # stdout is the one JSON line

    @pytest.mark.parametrize("command", ["disentangle", "project"])
    def test_checkpoint_that_reads_every_post_prints_nothing(self, thread_file, tmp_path,
                                                             capsys, command):
        assert run(*train_args(thread_file, tmp_path)) == 0
        capsys.readouterr()
        assert run("--out-dir", tmp_path / "res", command, "--input", thread_file,
                   "--checkpoint", tmp_path / "out" / "model.untg") == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("command", ["disentangle", "project"])
    def test_other_warning_is_shown_once(self, thread_file, tmp_path, capsys, monkeypatch,
                                         command):
        assert run(*train_args(thread_file, tmp_path)) == 0
        embed_thread = embedder.embed_thread

        def noisy(*args, **kwargs):
            warnings.warn("some other warning", UserWarning)
            return embed_thread(*args, **kwargs)

        monkeypatch.setattr(embedder, "embed_thread", noisy)
        capsys.readouterr()
        with pytest.warns(UserWarning) as record:
            assert run("--out-dir", tmp_path / "res", command, "--input", thread_file,
                       "--checkpoint", tmp_path / "out" / "model.untg") == 0
        assert [str(w.message) for w in record] == ["some other warning"]
        assert capsys.readouterr().err == ""


class TestCanonicalThread:
    """Every command reads the same posts: whitespace-only posts are
    always dropped, and an `author` key is checked, then ignored."""

    def test_every_command_drops_whitespace_only_posts(self, tmp_path, capsys):
        log = tmp_path / "log.jsonl"
        write_jsonl(log, [{"id": "a", "ts": 0.0, "text": "alpha beta"},
                          {"id": "b", "ts": 1.0, "text": " \t"},
                          {"id": "c", "ts": 2.0, "text": "gamma delta"},
                          {"id": "d", "ts": 3.0, "text": "alpha gamma"}])
        assert run("stats", log) == 0
        assert last_json(capsys)["message_count"] == 3
        assert run(*train_args(log, tmp_path)) == 0
        ckpt = tmp_path / "out" / "model.untg"
        res = tmp_path / "res"
        assert run("--out-dir", res, "disentangle", "--input", log, "--checkpoint", ckpt) == 0
        assert json.loads((res / "graph.json").read_text())["n"] == 3
        assert run("--out-dir", res, "export-intensity", "--input", log) == 0
        assert run("--out-dir", res, "project", "--input", log, "--checkpoint", ckpt) == 0
        for name in ("intensity.csv", "projection.csv"):
            assert len((res / name).read_text().splitlines()) == 1 + 3

    @pytest.mark.parametrize("command", ["stats", "train", "disentangle",
                                         "export-intensity", "project"])
    def test_keep_empty_is_an_unrecognized_argument(self, tiny_model, tmp_path, capsys, command):
        argv = [tiny_model / "thread.jsonl"] if command == "stats" else command_argv(
            "disentangle" if command == "project" else command, tiny_model)
        assert run("--out-dir", tmp_path / "out", command, *argv, "--keep-empty") == 2
        captured = capsys.readouterr()
        assert "unrecognized arguments: --keep-empty" in captured.err and captured.out == ""
        assert not (tmp_path / "out").exists()

    def test_keep_empty_is_an_unknown_config_key(self, tiny_model, tmp_path, capsys):
        config = tmp_path / "cfg"
        config.write_text("keep_empty=1\n")
        assert run("--config", config, "stats", tiny_model / "thread.jsonl") == 2
        captured = capsys.readouterr()
        assert f"error: {config}: line 1: unknown key 'keep_empty'" in captured.err
        assert captured.out == ""

    def test_synth_writes_no_author(self, tiny_model):
        lines = (tiny_model / "thread.jsonl").read_text().splitlines()
        assert lines and all(sorted(json.loads(line)) == ["id", "text", "ts"] for line in lines)

    @pytest.mark.parametrize("author,message", [
        (3, "line 2: 'author' must be a string when present"),
        ("\ud800", "line 2: 'author' is not UTF-8 text (lone surrogate '\\ud800' at character 0)"),
    ])
    def test_bad_author_exits_2(self, tmp_path, capsys, author, message):
        log = tmp_path / "log.jsonl"
        write_jsonl(log, [{"id": "a", "ts": 0.0, "text": "x", "author": "sam"},
                          {"id": "b", "ts": 1.0, "text": "y", "author": author}])
        assert run("stats", log) == 2
        captured = capsys.readouterr()
        assert message in captured.err and captured.out == ""


@pytest.fixture(scope="module")
def tiny_model(tmp_path_factory):
    """A synthetic thread and a tiny model trained on it."""
    root = tmp_path_factory.mktemp("tiny")
    assert run("--out-dir", root, "synth", "--conversations", 2, "--posts-lo", 6,
               "--posts-hi", 6, "--pool-size", 4) == 0
    assert run("--out-dir", root, "train", "--input", root / "thread.jsonl",
               "--dim", 4, "--hidden", 4, "--epochs", 1, "--k", 2) == 0
    return root


# (command, {flag: value}) pairs that exit 2 whether given as flags or as
# config lines
BAD_VALUES = [
    ("train", {"--epochs": "0"}),
    ("train", {"--k": "0"}),
    ("train", {"--min-count": "0"}),
    ("train", {"--batch-size": "0"}),
    ("train", {"--negatives": "-1"}),
    ("train", {"--paradigm": "weird"}),
    ("synth", {"--conversations": "0"}),
    ("synth", {"--pool-size": "0"}),
    ("synth", {"--posts-lo": "0"}),
    ("synth", {"--posts-lo": "5", "--posts-hi": "2"}),
    ("synth", {"--tokens-lo": "3", "--tokens-hi": "1"}),
    ("synth", {"--gap": "nan"}),
    ("synth", {"--gap": "-3600"}),
    ("synth", {"--gap": "1e308", "--conversations": "3"}),
    ("synth", {"--temperature": "nan"}),
    ("synth", {"--mu": "-1"}),
    ("synth", {"--mu": "0"}),
    ("synth", {"--pool-size": str(2**63)}),
    ("synth", {"--posts-hi": str(2**63)}),
    ("synth", {"--tokens-hi": str(2**63)}),
    *(("train", {flag: str(2**31)}) for flag in  # the checkpoint header's int32 fields
      ("--batch-size", "--negatives", "--max-len", "--epochs", "--dim", "--hidden")),
]

HAWKES = {"--mu": "0.1", "--alpha": "0.1", "--beta": "0.01"}
# (flag, value, the error) of the cut's and the Hawkes process's options, run
# by each of disentangle and export-intensity that has the flag; a Hawkes
# parameter comes with the other two of HAWKES
BAD_SCHISM_OR_HAWKES_VALUES = [
    ("--tau", "0", "--tau must be a finite number > 0, got '0'"),
    ("--tau", "-1", "--tau must be a finite number > 0, got '-1'"),
    ("--tau", "nan", "--tau must be a finite number > 0, got 'nan'"),
    ("--quantile", "1", "--quantile must lie in (0, 1), got '1'"),
    ("--quantile", "2", "--quantile must lie in (0, 1), got '2'"),
    ("--quantile", "abc", "--quantile must lie in (0, 1), got 'abc'"),
    ("--mu", "nan", "--mu must be a finite number >= 0, got 'nan'"),
    ("--alpha", "-1", "--alpha must be a finite number >= 0, got '-1'"),
    ("--beta", "0", "--beta must be a finite number > 0, got '0'"),
    ("--beta", "-1", "--beta must be a finite number > 0, got '-1'"),
]


def _former_float_rule(ok):
    """float(text), finite and passing `ok`: the check of EncoderConfig.validate
    or HawkesModel.validate on a flag typed bare float."""
    def accepts(text):
        try:
            value = float(text)
        except ValueError:
            return False
        return math.isfinite(value) and ok(value)
    return accepts


def _former_int_rule(low, bits):
    """int(text) >= low, then < 2**bits: the check after parsing of the
    checkpoint header's int32 fields (train) or the int64 draws (synth)."""
    def accepts(text):
        try:
            value = int(text)
        except ValueError:
            return False
        return low <= value < 2**bits
    return accepts


# (command, flag) -> the accept rule each retyped or bounded flag had when
# part of it was checked after parsing; their OPTIONS types must keep it
FORMER_RULES = {
    ("train", "--lr"): _former_float_rule(lambda v: v >= 0),
    **{("train", flag): _former_int_rule(1, 31)
       for flag in ("--max-len", "--dim", "--hidden", "--epochs", "--batch-size")},
    ("train", "--negatives"): _former_int_rule(0, 31),
    **{(command, flag): _former_float_rule(ok)
       for command in ("disentangle", "export-intensity")
       for flag, ok in (("--mu", lambda v: v >= 0), ("--alpha", lambda v: v >= 0),
                        ("--beta", lambda v: v > 0))},
    **{("synth", flag): _former_int_rule(1, 63)
       for flag in ("--pool-size", "--posts-hi", "--tokens-hi")},
}
DIFFERENTIAL_VALUES = [*OPTION_VALUES, "-0.0", "5e-324", "1e308", str(2**31 - 1), str(2**31),
                       str(2**63 - 1), str(2**63)]
# the other flags of each differential run: the Hawkes commands get all
# three parameters, and synth's low ends are 1, so that only the value
# under test decides
DIFFERENTIAL_BASE = {"train": {}, "synth": {"--posts-lo": "1", "--tokens-lo": "1"},
                     **dict.fromkeys(("disentangle", "export-intensity"),
                                     {"--mu": "0.1", "--alpha": "0.1", "--beta": "1"})}


def command_argv(command, model_dir):
    """The required flags of `command`."""
    thread = model_dir / "thread.jsonl"
    return {"train": ["--input", thread],
            "disentangle": ["--input", thread, "--checkpoint", model_dir / "model.untg"],
            "export-intensity": ["--input", thread],
            "project": ["--input", thread, "--checkpoint", model_dir / "model.untg"],
            "synth": []}[command]


class TestImports:
    """Each command imports only the modules it runs."""

    @staticmethod
    def loaded(modules, code):
        """Which of `modules` a fresh interpreter holds after `code`."""
        proc = python_c(f"import json, sys\n{code}\n"
                        f"print(json.dumps(sorted(set({modules!r}) & set(sys.modules))))")
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout.splitlines()[-1])

    @classmethod
    def loaded_by_command(cls, modules, command, tiny_model, out):
        thread = tiny_model / "thread.jsonl"
        if command == "eval":
            assert run("--out-dir", out, "disentangle",
                       *command_argv("disentangle", tiny_model)) == 0
        argv = {"--help": ["--help"],
                "stats": ["stats", thread],
                "eval": ["eval", "--pred", out / "graph.json", "--gold", tiny_model / "gold.json"],
                "train": ["--out-dir", out, "train", "--input", thread, "--dim", 4,
                          "--hidden", 4, "--epochs", 1, "--k", 2],
                "disentangle": ["--out-dir", out, "disentangle",
                                *command_argv("disentangle", tiny_model)]}[command]
        return cls.loaded(modules, "from untangler import cli\n"
                                   f"assert cli.main({list(map(str, argv))!r}) == 0")

    # numpy.ma adds ~1.4 MB to train's peak RSS and takes ~15 ms to
    # import, and np.median, np.quantile and np.unique import it on first use
    @pytest.mark.parametrize("command,unloaded", [
        ("--help", ["numpy"]),
        ("stats", ["numpy"]),
        ("eval", ["numpy"]),
        ("train", ["numpy.ma", "untangler.graph", "untangler.harness", "untangler.temporal"]),
        ("disentangle", ["numpy.ma", "untangler.harness"]),
    ])
    def test_command_leaves_modules_unloaded(self, tiny_model, tmp_path, command, unloaded):
        assert self.loaded_by_command(unloaded, command, tiny_model, tmp_path / "out") == []

    @pytest.mark.parametrize("command", ["stats", "eval", "disentangle"])
    def test_command_loads_no_stdlib_module_it_never_calls(self, tiny_model, tmp_path,
                                                           command):
        # csv writes the CSVs of train, export-intensity and project, signal
        # is what a command would load to stop a child process (none starts
        # one), and corpus spells out string.punctuation; one that numpy or
        # argparse loads costs nothing
        modules = ["csv", "signal", "string"]
        baseline = self.loaded(modules, "import numpy, argparse")
        loaded = self.loaded_by_command(modules, command, tiny_model, tmp_path / "out")
        assert set(loaded) - set(baseline) == set()

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_eval_matches_the_graph_and_harness_route(self, tiny_model, tmp_path, capsys, seed):
        assert run("--seed", seed, "--out-dir", tmp_path, "synth", "--conversations", 2,
                   "--posts-lo", 6, "--posts-hi", 9, "--pool-size", 4, "--gap", 5) == 0
        assert run("--out-dir", tmp_path, "disentangle", "--input", tmp_path / "thread.jsonl",
                   "--checkpoint", tiny_model / "model.untg") == 0
        capsys.readouterr()
        assert run("eval", "--pred", tmp_path / "graph.json", "--gold", tmp_path / "gold.json") == 0
        forest = graph.parse_graph_json((tmp_path / "graph.json").read_bytes())
        gold = harness.GoldStandard.from_json((tmp_path / "gold.json").read_text())
        conversations = graph.extract_conversations(forest)
        pred_parents = {c: p for conv in conversations for c, p in conv.parents.items()}
        pred_labels = {m: conv.root for conv in conversations for m in conv.members}
        p, r, f1 = harness.edge_prf(pred_parents, gold.parents)
        gold_sets = [{i for i, g in gold.labels.items() if g == label}
                     for label in set(gold.labels.values())]
        expected = {"precision": p, "recall": r, "f1": f1,
                    "ari": harness.partition_ari(pred_labels, gold.labels),
                    "predicted_conversations": len(conversations),
                    "gold_conversations": len(gold_sets),
                    "cross_edges": sum(gold.labels[child] != gold.labels[parent]
                                       for child, parent in pred_parents.items()),
                    "mixed_trees": sum(len({gold.labels[m] for m in conv.members}) > 1
                                       for conv in conversations),
                    "split_conversations": sum(len({pred_labels[i] for i in members}) > 1
                                               for members in gold_sets)}
        assert capsys.readouterr().out == json.dumps(expected, sort_keys=True) + "\n"


@pytest.fixture
def undo_run(monkeypatch):
    """Gives a cli.run() call a copy of os.environ, so that the
    OMP_NUM_THREADS it sets reaches no later subprocess; then gives the
    collector back what the call froze, and turns it back on."""
    monkeypatch.setattr(os, "environ", dict(os.environ))
    yield
    gc.unfreeze()
    gc.enable()


class TestEntryPoint:
    """cli.run, the process entry point of the console script and of
    `python -m untangler.cli`; main stays the in-process entry."""

    @pytest.mark.parametrize("code", [0, 2])
    def test_run_returns_the_code_of_main_and_freezes(self, monkeypatch, undo_run, code):
        enabled = []
        monkeypatch.setattr(cli, "main", lambda: enabled.append(gc.isenabled()) or code)
        before = gc.get_freeze_count()
        assert cli.run() == code
        assert enabled == [False]  # main runs with the collector off
        assert not gc.isenabled()
        assert gc.get_freeze_count() > before

    def test_main_leaves_the_collector_alone(self, thread_file, capsys):
        before = gc.get_freeze_count()
        assert run("stats", thread_file) == 0
        assert gc.isenabled()
        assert gc.get_freeze_count() == before

    @pytest.mark.parametrize("missing,code", [(False, 0), (True, 2)])
    def test_python_m_exits_and_prints_as_main(self, thread_file, tmp_path, capsys,
                                               missing, code):
        argv = ["stats", tmp_path / "missing.jsonl" if missing else thread_file]
        proc = python_m(argv, capture_output=True)
        assert proc.returncode == code, proc.stderr
        assert run(*argv) == code
        assert proc.stdout == capsys.readouterr().out

    @pytest.mark.parametrize("unbuffered", [None, "1"], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("command", ["stats", "disentangle"])
    def test_gone_reader_exits_1(self, tiny_model, tmp_path, command, unbuffered):
        # a pipe's stdout is block-buffered unless PYTHONUNBUFFERED is set,
        # so the write fails at the flush after main, not in its print
        argv = {"stats": ["stats", tiny_model / "thread.jsonl"],
                "disentangle": ["--out-dir", tmp_path / "gone", "disentangle",
                                *command_argv("disentangle", tiny_model)]}[command]
        read, write = os.pipe()
        os.close(read)
        try:
            proc = python_m(argv, stdout=write, stderr=subprocess.PIPE,
                                 env={"PYTHONUNBUFFERED": unbuffered})
        finally:
            os.close(write)
        assert proc.returncode == 1
        assert proc.stderr == ""
        if command == "disentangle":  # the outputs are whole all the same
            assert run("--out-dir", tmp_path / "normal", *argv[2:]) == 0
            for name in ("graph.json", "conversations.json"):
                assert (tmp_path / "gone" / name).read_bytes() == \
                    (tmp_path / "normal" / name).read_bytes()

    @pytest.mark.parametrize("command", ["synth", "train", "disentangle", "eval",
                                         "export-intensity", "project"])
    def test_no_warning_reaches_stderr(self, tiny_model, tmp_path, command):
        # an error filter makes a DeprecationWarning an exception, which code
        # that catches exceptions can hide, so it is shown always; and run()
        # ends the process with the collector off and frozen, so no file may
        # wait for a finalizer: each command closes all it opens, or a
        # ResourceWarning, shown always, reaches stderr
        if command == "eval":
            assert run("--out-dir", tmp_path, "disentangle",
                       *command_argv("disentangle", tiny_model)) == 0
        argv = (["eval", "--pred", tmp_path / "graph.json", "--gold", tiny_model / "gold.json"]
                if command == "eval" else
                ["--out-dir", tmp_path, command, *command_argv(command, tiny_model),
                 *(["--epochs", 1] if command == "train" else [])])
        proc = python_m(argv, capture_output=True, env={
            "PYTHONWARNINGS": "always::DeprecationWarning,always::ResourceWarning"})
        assert (proc.returncode, proc.stderr) == (0, "")
        if command == "disentangle":  # fitted: the fit's box keeps the process stationary
            hawkes = json.loads((tmp_path / "conversations.json").read_text())["hawkes"]
            assert hawkes["alpha"] <= 0.999 * hawkes["beta"], hawkes

    def test_the_workflow_console_script_step_passes(self, tmp_path):
        """The "Console script" step of the CI workflow, run in a scratch
        directory by the runner's default shell, `bash -e`, with a stand-in
        for the `untangler` script that pip installs (untangler.cli:run)."""
        yaml = pytest.importorskip("yaml")
        workflow = Path(__file__).resolve().parents[1] / ".github" / "workflows" / "tier1.yml"
        step, = (step for step in yaml.safe_load(workflow.read_text())["jobs"]["tests"]["steps"]
                 if step.get("name") == "Console script")
        script = tmp_path / "bin" / "untangler"
        script.parent.mkdir()
        script.write_text(f"#!{sys.executable}\nimport sys\nfrom untangler.cli import run\n"
                          "sys.exit(run())\n")
        script.chmod(0o755)
        env = child_env(**step.get("env", {}),
                        PATH=f"{script.parent}{os.pathsep}{os.environ.get('PATH', '')}")
        proc = subprocess.run(["bash", "-e", "-c", step["run"]], cwd=tmp_path, env=env,
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr


class TestCyclicGarbage:
    """cli.run turns the collector off for the whole command, which is
    sound only while a command's cyclic garbage does not grow with its
    input: each command runs on a thread and on one ten times larger, and
    a full collection after each must find the same number of objects."""

    @staticmethod
    def synth_argv(out, posts):
        return ["--seed", 3, "--out-dir", out, "synth", "--conversations", 2,
                "--posts-lo", posts, "--posts-hi", posts, "--pool-size", 4]

    @pytest.fixture(scope="class")
    def inputs(self, tmp_path_factory):
        """small/ and large/: a thread, its gold and a graph.json of it;
        small/model.untg serves both."""
        root = tmp_path_factory.mktemp("garbage")
        for size, posts in (("small", 12), ("large", 120)):
            assert run(*self.synth_argv(root / size, posts)) == 0
        assert run("--out-dir", root / "small", "train", "--input",
                   root / "small" / "thread.jsonl", "--dim", 4, "--hidden", 4, "--epochs", 1,
                   "--k", 2) == 0
        for size in ("small", "large"):
            assert run("--out-dir", root / size, "disentangle", "--input",
                       root / size / "thread.jsonl", "--checkpoint", root / "small" / "model.untg",
                       "--mu", 0.1, "--alpha", 0.1, "--beta", 0.01) == 0
        return root

    @pytest.mark.parametrize("command", ["stats", "train", "disentangle-fit",
                                         "disentangle-given", "synth", "eval"])
    def test_cyclic_garbage_does_not_grow_with_the_input(self, inputs, tmp_path, command):
        def argv(size):
            thread, out = inputs / size / "thread.jsonl", tmp_path / size
            disentangle = ["--out-dir", out, "disentangle", "--input", thread,
                           "--checkpoint", inputs / "small" / "model.untg"]
            return [str(a) for a in {
                "stats": ["stats", thread],
                "train": ["--out-dir", out, "train", "--input", thread, "--dim", 4,
                          "--hidden", 4, "--epochs", 1, "--k", 2],
                "disentangle-fit": disentangle,
                "disentangle-given": [*disentangle, "--mu", 0.1, "--alpha", 0.1, "--beta", 0.01],
                "synth": self.synth_argv(out, {"small": 12, "large": 120}[size]),
                "eval": ["eval", "--pred", inputs / size / "graph.json",
                         "--gold", inputs / size / "gold.json"],
            }[command]]

        proc = python_c(
            "import gc, json\n"
            "from untangler import (cli, corpus, embedder, graph, harness, ingest, score,\n"
            "                       temporal)\n"
            "gc.collect()\n"
            "gc.disable()\n"
            "found = []\n"
            f"for argv in {[argv('small'), argv('large')]!r}:\n"
            "    assert cli.main(argv) == 0\n"
            "    found.append(gc.collect())\n"
            "print(json.dumps(found))\n")
        assert proc.returncode == 0, proc.stderr
        small, large = json.loads(proc.stdout.splitlines()[-1])
        assert small == large


def openblas_dynamic_arch() -> bool:
    """Whether numpy's BLAS is an OpenBLAS build that picks its kernel at
    run time, the one kind that OPENBLAS_CORETYPE can switch."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy 1 has no mode
        return False
    return ("openblas" in blas.get("name", "")
            and "DYNAMIC_ARCH" in blas.get("openblas configuration", ""))


class TestBlasPortability:
    @pytest.mark.skipif(not openblas_dynamic_arch(),
                        reason="numpy's BLAS is not OpenBLAS with DYNAMIC_ARCH, so "
                               "OPENBLAS_CORETYPE cannot run another CPU's kernel")
    def test_outputs_under_other_cpu_kernels(self, tmp_path):
        # each kernel sums in its own order, so float64 values differ in
        # their last bits: loss.csv, the graph.json weights and
        # projection.csv keep them.  The checkpoint's float32 rounding hides
        # them except for a value next to a rounding boundary, which lands
        # one ulp away; DOT's 4-digit labels hide them
        assert run("--seed", 1, "--out-dir", tmp_path, "synth") == 0
        thread = tmp_path / "thread.jsonl"

        def outputs(coretype):
            out = tmp_path / coretype
            env = {"OPENBLAS_CORETYPE": None if coretype == "default" else coretype}
            for argv in (["train", "--input", thread, "--epochs", 3],
                         ["disentangle", "--input", thread, "--checkpoint", out / "model.untg",
                          "--dot"],
                         ["project", "--input", thread, "--checkpoint", out / "model.untg"]):
                proc = python_m(["--out-dir", out, *argv], capture_output=True, env=env)
                assert proc.returncode == 0, proc.stderr
            edges = json.loads((out / "graph.json").read_text())["edges"]
            return (embedder.load_checkpoint(str(out / "model.untg")),
                    {name: (out / name).read_bytes() for name in ("conversations.json", "graph.dot")},
                    [(e["parent"], e["child"]) for e in edges])

        (config, params, vocab), files, edges = outputs("default")
        for coretype in ("Prescott", "Sandybridge", "Haswell"):
            (config2, params2, vocab2), files2, edges2 = outputs(coretype)
            assert (config2, vocab2) == (config, vocab), coretype
            for name, arr in params.groups().items():
                np.testing.assert_array_max_ulp(arr.astype(np.float32),
                                                params2.groups()[name].astype(np.float32),
                                                maxulp=1)
            assert files2 == files, coretype
            assert edges2 == edges, coretype


class TestBlasThreads:
    """cli.run gives BLAS one thread unless the environment gives it more."""

    @pytest.mark.parametrize("given", [None, "3"])
    def test_run_sets_omp_num_threads_only_when_unset(self, monkeypatch, undo_run, given):
        os.environ.pop("OMP_NUM_THREADS", None)
        if given is not None:
            os.environ["OMP_NUM_THREADS"] = given
        seen = []
        monkeypatch.setattr(cli, "main",
                            lambda: seen.append(os.environ.get("OMP_NUM_THREADS")) or 0)
        assert cli.run() == 0
        assert seen == [given or "1"]

    def test_main_leaves_the_environment_alone(self, thread_file, capsys):
        before = dict(os.environ)
        assert run("stats", thread_file) == 0
        assert dict(os.environ) == before

    def test_outputs_do_not_depend_on_the_thread_count(self, tmp_path):
        # OPENBLAS_NUM_THREADS wins over the OMP_NUM_THREADS that run() sets
        assert run("--seed", 1, "--out-dir", tmp_path, "synth") == 0
        thread = tmp_path / "thread.jsonl"

        def outputs(threads):
            out = tmp_path / threads
            for argv in (["train", "--input", thread, "--epochs", 3],
                         ["disentangle", "--input", thread, "--checkpoint", out / "model.untg",
                          "--dot"],
                         ["project", "--input", thread, "--checkpoint", out / "model.untg"]):
                proc = python_m(["--out-dir", out, *argv], capture_output=True,
                                env={"OPENBLAS_NUM_THREADS": threads})
                assert proc.returncode == 0, proc.stderr
            return {path.name: path.read_bytes() for path in sorted(out.iterdir())}

        one = outputs("1")
        assert sorted(one) == ["conversations.json", "graph.dot", "graph.json", "loss.csv",
                               "model.untg", "projection.csv"]
        assert outputs("2") == one

    def test_train_uses_at_most_one_core(self, tmp_path):
        # OpenBLAS's workers spin: with one per core, a 5-epoch d = 64
        # train read 1.79 CPU seconds per wall second on 2 cores, and 0.99
        # on one thread
        assert run("--seed", 1, "--out-dir", tmp_path, "synth") == 0
        start = time.perf_counter()
        returncode, _, cpu_s = launched(tmp_path, "-m", "untangler.cli", "--out-dir", tmp_path,
                                        "train", "--input", tmp_path / "thread.jsonl",
                                        "--epochs", "5")
        wall_s = time.perf_counter() - start
        assert returncode == 0, (tmp_path / "stderr").read_text()
        assert cpu_s <= 1.3 * wall_s, f"{cpu_s:.2f} CPU s in {wall_s:.2f} s"


class TestOptionValues:
    @staticmethod
    def run_bad_values(tiny_model, tmp_path, capsys, command, values, source):
        """The stderr of `command` given `values` as flags or as config
        lines, once it has exited 2 writing nothing."""
        argv = command_argv(command, tiny_model)
        config = tmp_path / "cfg"
        if source == "flag":
            config.write_text("")
            argv += [x for pair in values.items() for x in pair]
        else:
            config.write_text("".join(f"{flag[2:].replace('-', '_')}={value}\n"
                                      for flag, value in values.items()))
        assert run("--config", config, "--out-dir", tmp_path / "out", command, *argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert not (tmp_path / "out").exists()
        return captured.err

    @pytest.mark.parametrize("source", ["flag", "config"])
    @pytest.mark.parametrize("command,values", BAD_VALUES)
    def test_bad_value_exits_2(self, tiny_model, tmp_path, capsys, command, values, source):
        err = self.run_bad_values(tiny_model, tmp_path, capsys, command, values, source)
        assert all(flag in err for flag in values), err

    @pytest.mark.parametrize("source", ["flag", "config"])
    @pytest.mark.parametrize("command,flag,value,message", [
        pytest.param(command, flag, value, message, id=f"{command}-{flag}={value}")
        for flag, value, message in BAD_SCHISM_OR_HAWKES_VALUES
        for command in ("disentangle", "export-intensity")
        if flag != "--quantile" or command == "disentangle"])
    def test_bad_schism_or_hawkes_value_exits_2(self, tiny_model, tmp_path, capsys, command,
                                                flag, value, message, source):
        values = {**(HAWKES if flag in HAWKES else {}), flag: value}
        err = self.run_bad_values(tiny_model, tmp_path, capsys, command, values, source)
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("source", ["flag", "config"])
    @pytest.mark.parametrize("command,flag", FORMER_RULES)
    def test_accepts_what_the_former_checks_accepted(self, tiny_model, tmp_path, monkeypatch,
                                                      capsys, command, flag, source):
        # the work after the checks is stubbed, so that an accepted 2**31 - 1
        # --dim or 2**63 - 1 --posts-hi runs in no time and memory
        def train(threads, vocab, windows, config):
            config.validate()
            return None, [1.0]

        def generate(config, seed):
            config.validate()
            return ingest.Thread(posts=[]), harness.GoldStandard({}, {})

        monkeypatch.setattr(embedder, "train", train)
        monkeypatch.setattr(embedder, "save_checkpoint", lambda *args: None)
        monkeypatch.setattr(harness, "generate", generate)
        monkeypatch.setattr(temporal, "post_intensity", lambda model, times, tau: (times,) * 2)
        monkeypatch.setattr(temporal, "detect_ranges", lambda thread, *args, **kw: [
            temporal.Range(0, len(thread))])
        accepts = FORMER_RULES[command, flag]
        for value in DIFFERENTIAL_VALUES:
            values = {**DIFFERENTIAL_BASE[command], flag: value}
            config = tmp_path / "cfg"
            argv = [f"--config={config}", f"--out-dir={tmp_path / value}", command,
                    *command_argv(command, tiny_model)]
            if source == "flag":
                config.write_text("")
                argv += [f"{key}={text}" for key, text in values.items()]
            else:
                config.write_text("".join(f"{key[2:].replace('-', '_')}={text}\n"
                                          for key, text in values.items()))
            code = run(*argv)
            captured = capsys.readouterr()
            assert code == (0 if accepts(value) else 2), (value, captured.err)
            assert code == 0 or flag in captured.err, (value, captured.err)

    def test_every_option_has_a_checked_type(self):
        parse = cli._checked("", str).__code__
        assert [flag for _, flag, kind, _ in cli.OPTIONS
                if getattr(kind, "__code__", None) is not parse] == []

    def test_synth_defaults_match_default_synth_config(self):
        args = cli.build_parser().parse_args(["synth"])
        assert cli.default_synth_config() == cli.default_synth_config(
            args.conversations, args.posts_lo, args.posts_hi, args.gap, args.pool_size,
            args.tokens_lo, args.tokens_hi, args.temperature, args.mu, args.alpha, args.beta)

    def test_train_defaults_match_the_library(self):
        args = cli.build_parser().parse_args(["train", "--input", "x"])
        assert embedder.EncoderConfig(vocab_size=7) == embedder.EncoderConfig(
            vocab_size=7, embed_dim=args.dim, hidden_dim=args.hidden, max_len=args.max_len,
            seed=args.seed, learning_rate=args.lr, epochs=args.epochs,
            negatives_per_sample=args.negatives, batch_size=args.batch_size)
        assert default_of(corpus.build_vocab, "min_count") == args.min_count
        assert default_of(embedder.embed_thread, "max_len") == args.max_len

    def test_disentangle_defaults_match_the_library(self):
        args = cli.build_parser().parse_args(["disentangle", "--input", "x", "--checkpoint", "y"])
        assert default_of(temporal.detect_ranges, "quantile") == args.quantile
        assert default_of(temporal.detect_ranges, "tau") == args.tau

    def test_negative_seed_exits_2(self, tmp_path, capsys):
        assert run("--seed", -1, "--out-dir", tmp_path / "out", "synth") == 2
        captured = capsys.readouterr()
        assert "--seed must be an integer >= 0" in captured.err and captured.out == ""
        assert not (tmp_path / "out").exists()

    def test_train_seed_beyond_int64_exits_2(self, tiny_model, tmp_path, capsys):
        assert run("--seed", 2**63, "--out-dir", tmp_path / "out", "train",
                   *command_argv("train", tiny_model)) == 2
        captured = capsys.readouterr()
        assert "--seed must be < 2**63" in captured.err and captured.out == ""
        assert not (tmp_path / "out").exists()

    def test_starved_hawkes_process_exits_2(self, tmp_path, capsys):
        # a valid but tiny baseline: no horizon draws enough events
        assert run("--out-dir", tmp_path / "out", "synth", "--mu", "1e-300") == 2
        captured = capsys.readouterr()
        assert "could not draw" in captured.err and "--mu" in captured.err
        assert captured.out == ""
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("line,flags,dot", [
        ("dot=false", [], False),
        ("dot=false", ["--dot"], True),
        ("dot=Yes", [], True),
        ("dot=0", [], False),
    ])
    def test_bool_config_word_and_flag_precedence(self, tiny_model, tmp_path, capsys,
                                                  line, flags, dot):
        config = tmp_path / "cfg"
        config.write_text(line + "\n")
        assert run("--config", config, "--out-dir", tmp_path, "disentangle",
                   *command_argv("disentangle", tiny_model), *flags) == 0
        assert ("dot" in last_json(capsys)) == dot == (tmp_path / "graph.dot").exists()

    def test_unknown_bool_config_word_exits_2(self, tiny_model, tmp_path, capsys):
        config = tmp_path / "cfg"
        config.write_text("dot=maybe\n")
        assert run("--config", config, "--out-dir", tmp_path / "out", "disentangle",
                   *command_argv("disentangle", tiny_model)) == 2
        captured = capsys.readouterr()
        assert "--dot must be one of 1/true/yes/0/false/no" in captured.err
        assert captured.out == "" and not (tmp_path / "out").exists()

    @pytest.mark.parametrize("line,message", [
        ("epoch=0", "unknown key 'epoch'"),
        ("seed=3", "unknown key 'seed'"),
        ("dim=8", "repeated key 'dim'"),
    ], ids=["epoch=0", "seed=3", "dim=8"])
    def test_unknown_config_key_exits_2(self, tiny_model, tmp_path, capsys, line, message):
        # `seed` and `out_dir` are flags only; `epoch` is a misspelt `epochs`;
        # `dim` is set on line 1 already
        config = tmp_path / "cfg"
        config.write_text("dim=4\n" + line + "\n")
        assert run("--config", config, "--out-dir", tmp_path / "out", "train",
                   *command_argv("train", tiny_model)) == 2
        captured = capsys.readouterr()
        assert f"error: {config}: line 2: {message}" in captured.err
        assert captured.out == "" and not (tmp_path / "out").exists()

    def test_blank_and_comment_lines_of_a_config_file_are_skipped(self, tmp_path, capsys):
        config = tmp_path / "cfg"
        config.write_text("# two conversations of five posts\n\n   \nconversations=2\n"
                          "  # posts per conversation\nposts_lo=5\nposts_hi=5\n")
        assert run("--config", config, "--out-dir", tmp_path / "out", "synth") == 0
        assert last_json(capsys)["n_posts"] == 10

    def test_config_key_of_another_command_is_allowed(self, tiny_model, tmp_path, capsys):
        # one config file serves every command: train has no --quantile
        config = tmp_path / "cfg"
        config.write_text("quantile=0.3\ndim=4\nhidden=4\nepochs=1\n")
        assert run("--config", config, "--out-dir", tmp_path / "out", "train",
                   *command_argv("train", tiny_model)) == 0
        assert (tmp_path / "out" / "model.untg").exists()

    def test_hawkes_config_keys_serve_synth_and_the_explicit_model(self, tiny_model, tmp_path,
                                                                   capsys):
        # mu alone draws synth's thread, and is a partial model for disentangle
        config = tmp_path / "cfg"
        config.write_text("mu=0.2\n")
        assert run("--config", config, "--out-dir", tmp_path / "synth", "synth",
                   "--conversations", 2, "--posts-lo", 6, "--posts-hi", 6) == 0
        capsys.readouterr()
        assert run("--config", config, "--out-dir", tmp_path / "out", "disentangle",
                   *command_argv("disentangle", tiny_model)) == 2
        captured = capsys.readouterr()
        assert ("error: give all of --mu/--alpha/--beta or none (fit); "
                "the config keys mu/alpha/beta give them too") in captured.err
        assert captured.out == "" and not (tmp_path / "out").exists()
        # all three skip the fit
        config.write_text("mu=0.2\nalpha=0.1\nbeta=1\n")
        assert run("--config", config, "--out-dir", tmp_path / "out", "disentangle",
                   *command_argv("disentangle", tiny_model)) == 0
        hawkes = json.loads((tmp_path / "out" / "conversations.json").read_text())["hawkes"]
        assert hawkes == {"mu": 0.2, "alpha": 0.1, "beta": 1.0}

    @pytest.mark.parametrize("argv,message", [
        (["train"], "the following arguments are required: --input"),
        (["disentangle", "--input", "x", "--checkpoint", "y", "--dot", "maybe"],
         "unrecognized arguments: maybe"),
    ])
    def test_usage_error_returns_2(self, capsys, argv, message):
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert message in captured.err and "usage: untangler" in captured.err
        assert captured.out == ""

    def test_help_returns_0(self, capsys):
        assert cli.main(["--help"]) == 0
        assert "usage: untangler" in capsys.readouterr().out


def test_readme_option_tables_list_the_options():
    # every flag in a row of README's "### Options" tables, merged rows
    # such as `--mu`, `--alpha`, `--beta` counting each, is a row of OPTIONS
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n### Options\n", 1)[1].split("\n#", 1)[0]
    rows = [line for line in section.splitlines() if line.startswith("|")]
    documented = {flag for row in rows for flag in re.findall(r"`(--[a-z][a-z-]*)`", row)}
    assert documented == {flag for _, flag, _, _ in cli.OPTIONS}


TRAIN_SMALL = ["--dim", 4, "--hidden", 4, "--epochs", 1, "--k", 2]

# case -> (argv given the tiny model's directory, the path its error must
# name); each runs in a directory holding D (a directory) and cfg (a config
# file that is not UTF-8)
UNUSABLE_INPUTS = {
    "config-not-utf8": (lambda m: ["--config", "cfg", "stats", m / "thread.jsonl"], "cfg"),
    "config-dir": (lambda m: ["--config", "D", "stats", m / "thread.jsonl"], "D"),
    "stats-dir": (lambda m: ["stats", "D"], "D"),
    "checkpoint-dir": (
        lambda m: ["disentangle", "--input", m / "thread.jsonl", "--checkpoint", "D"], "D"),
}

# the outputs of each command that writes, by their names in --out-dir
OUTPUTS = {"synth": ["thread.jsonl", "gold.json"],
           "train": ["model.untg", "loss.csv"],
           "disentangle": ["graph.json", "graph.dot", "conversations.json"],
           "export-intensity": ["intensity.csv"],
           "project": ["projection.csv"]}

# (--out-dir, command, output flags, the unusable path its error names): the
# path is F, a file, or else a directory
UNUSABLE_OUTPUTS = [
    *(pytest.param("F", command, [], "F", id=f"{command}-out-dir-file") for command in OUTPUTS),
    *(pytest.param("out", command, [], f"out/{name}", id=f"{command}-{name}")
      for command, names in OUTPUTS.items() for name in names),
    *(pytest.param("out", command, [flag, path], named, id=f"{command}-{flag}={path}")
      for command, flag, path, named in [
          ("train", "--checkpoint", "D", "D"), ("train", "--loss-csv", "D", "D"),
          ("train", "--checkpoint", "F/m.untg", "F"),
          ("train", "--checkpoint", "F/x/m.untg", "F"),
          ("train", "--checkpoint", ".", "."),
          ("export-intensity", "--csv", "D", "D"), ("project", "--csv", "D", "D")]),
]


class TestPaths:
    @pytest.mark.parametrize("case", UNUSABLE_INPUTS)
    def test_unusable_path_exits_2_naming_it(self, tiny_model, tmp_path, monkeypatch, capsys,
                                             case):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "D").mkdir()
        (tmp_path / "cfg").write_bytes(b"\xff=2\n")
        argv, path = UNUSABLE_INPUTS[case]
        assert run(*argv(tiny_model)) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {path}: "), captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("command", ["stats", "eval-pred", "eval-gold"])
    def test_deeply_nested_json_exits_2_naming_it(self, tmp_path, capsys, command):
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100_000 + "\n")
        graph = tmp_path / "graph.json"
        graph.write_text('{"n": 0, "edges": []}\n')
        argv = {"stats": ["stats", deep],
                "eval-pred": ["eval", "--pred", deep, "--gold", graph],
                "eval-gold": ["eval", "--pred", graph, "--gold", deep]}[command]
        assert run(*argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {deep}: "), captured.err
        assert "nested too deeply" in captured.err and captured.out == ""

    @pytest.mark.parametrize("command", ["train", "export-intensity"])
    def test_missing_parent_of_a_csv_is_created(self, tiny_model, tmp_path, capsys, command):
        csv_path = tmp_path / "missing" / "out.csv"
        flag = "--loss-csv" if command == "train" else "--csv"
        argv = ["--out-dir", tmp_path / "out", command, *command_argv(command, tiny_model),
                flag, csv_path]
        if command == "train":
            argv += TRAIN_SMALL
        assert run(*argv) == 0
        assert last_json(capsys)[flag[2:].replace("-", "_")] == str(csv_path)
        assert csv_path.read_text().count("\n") > 1

    @pytest.mark.parametrize("out_dir,command,flags,named", UNUSABLE_OUTPUTS)
    def test_unusable_output_exits_2_before_any_work(self, tiny_model, tmp_path, monkeypatch,
                                                     capsys, out_dir, command, flags, named):
        def forbidden(*args, **kwargs):
            pytest.fail("work ran before the outputs were checked")

        for module, work in [(embedder, "train"), (harness, "generate"),
                             (embedder, "load_checkpoint"), (temporal, "fit_multistart"),
                             (embedder, "embed_thread")]:
            monkeypatch.setattr(module, work, forbidden)
        monkeypatch.chdir(tmp_path)
        Path("F").write_text("x\n")
        if named != "F":
            Path(named).mkdir(parents=True, exist_ok=True)
        before = sorted(tmp_path.rglob("*"))
        dot = ["--dot"] if command == "disentangle" else []
        assert run("--out-dir", out_dir, command, *command_argv(command, tiny_model), *dot,
                   *flags) == 2
        captured = capsys.readouterr()
        reason = "Not a directory" if named == "F" else "Is a directory"
        assert captured.err == f"error: {named}: {reason}\n"
        assert captured.out == ""
        assert sorted(tmp_path.rglob("*")) == before and Path("F").read_text() == "x\n"

    @pytest.mark.parametrize("flags", [
        ["--checkpoint", "{out}/loss.csv"],
        ["--checkpoint", "{out}/m.untg", "--loss-csv", "{out}/m.untg"],
        ["--loss-csv", "{out}/model.untg"],
    ])
    def test_colliding_train_outputs_exit_2_writing_nothing(self, tiny_model, tmp_path,
                                                            capsys, flags):
        out = tmp_path / "out"
        out.mkdir()
        flags = [flag.format(out=out) for flag in flags]
        assert run("--out-dir", out, "train", *command_argv("train", tiny_model),
                   *TRAIN_SMALL, *flags) == 2
        captured = capsys.readouterr()
        assert "must be two different files" in captured.err and captured.out == ""
        assert list(out.iterdir()) == []
