"""Fuzz gate for the CLI's readers and options: bad input exits 0 or 2, never 1.

Valid graph.json, gold.json and chat logs get fields replaced by other
JSON values or deleted, and their bytes (and a checkpoint's) truncated,
flipped or spliced with JSON fragments or copies of their own bytes.
Options of train, disentangle, export-intensity and synth get odd
values, as flags or as config lines.  Whatever the CLI makes of them,
it must not fail with an internal error (exit 1), and whatever it
prints on stdout must be JSON with no NaN or Infinity.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from untangler import cli

FUZZ = settings(max_examples=150, deadline=None, derandomize=True, database=None)

SPLICES = [b"NaN", b"Infinity", b"-Infinity", b"1e999", b"-1", b"0.5", b"true",
           b"null", b"[]", b"{}", b'""', b"99999999999999999999999", b'"n": 0, ',
           b'"parents": [], ', b'"ts": 1e308, ', b'"1": 0, ', b"\xff\xfe", b"\n",
           b'{"id": "z", "ts": 0, "text": ""}\n']

VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-2 ** 70, 2 ** 70), st.floats(),
    st.text(max_size=4), st.lists(st.integers(-3, 30), max_size=3),
    st.dictionaries(st.sampled_from(["0", "1", "2", "-1", "x", " 1", "99"]),
                    st.one_of(st.integers(-3, 30), st.floats(), st.none()), max_size=3))


def _slots(node):
    """(container, key) of every value inside a parsed JSON document."""
    if isinstance(node, dict):
        items = list(node.items())
    elif isinstance(node, list):
        items = list(enumerate(node))
    else:
        items = []
    for key, child in items:
        yield node, key
        yield from _slots(child)


@st.composite
def corrupted(draw, data: bytes, jsonl: bool = False, fields: bool = True) -> bytes:
    """`data` with fields replaced or deleted (if `fields`: JSON data only),
    then (or only) bytes truncated, flipped or spliced in."""
    if fields and draw(st.booleans()):
        doc = [json.loads(line) for line in data.splitlines()] if jsonl else json.loads(data)
        for _ in range(draw(st.integers(1, 3))):
            slots = list(_slots(doc))
            if not slots:
                break
            container, key = draw(st.sampled_from(slots))
            if isinstance(container, dict) and draw(st.booleans()):
                del container[key]
            else:
                container[key] = draw(VALUES)
        text = "".join(json.dumps(x) + "\n" for x in doc) if jsonl else json.dumps(doc)
        data = text.encode()
        if draw(st.booleans()):
            return data
    out = bytearray(data)
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["truncate", "flip", "splice", "copy"]))
        at = draw(st.integers(0, len(out)))
        if kind == "truncate":
            del out[at:]
        elif kind == "flip":
            if at < len(out):
                out[at] ^= draw(st.integers(1, 255))
        elif kind == "splice":
            out[at:at] = draw(st.sampled_from(SPLICES))
        else:
            lo = draw(st.integers(0, len(data)))
            out[at:at] = data[lo:draw(st.integers(lo, len(data)))]
    return bytes(out)


def _reject_constant(name):
    raise ValueError(f"stdout JSON contains {name}")


def run_cli(*argv) -> int:
    """Exit code of cli.main; asserts every stdout line is strict JSON."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([str(a) for a in argv])
    assert code in (0, 2), (code, err.getvalue())
    for line in out.getvalue().splitlines():
        json.loads(line, parse_constant=_reject_constant)
    return code


@pytest.fixture(scope="module")
def valid(tmp_path_factory):
    """A synthetic thread, its gold.json, a tiny model and its graph.json."""
    root = tmp_path_factory.mktemp("fuzz")
    assert run_cli("--seed", 5, "--out-dir", root, "synth", "--conversations", 2,
                   "--posts-lo", 6, "--posts-hi", 6, "--pool-size", 4) == 0
    assert run_cli("--out-dir", root, "train", "--input", root / "thread.jsonl",
                   "--dim", 4, "--hidden", 4, "--epochs", 1, "--k", 2,
                   "--batch-size", 4) == 0
    assert run_cli("--out-dir", root, "disentangle", "--input", root / "thread.jsonl",
                   "--checkpoint", root / "model.untg") == 0
    return root


def _write(directory: str, name: str, data: bytes) -> Path:
    path = Path(directory) / name
    path.write_bytes(data)
    return path


@FUZZ
@given(data=st.data())
def test_corrupted_graph_json(valid, data):
    bad = data.draw(corrupted((valid / "graph.json").read_bytes()))
    with tempfile.TemporaryDirectory() as scratch:
        run_cli("eval", "--pred", _write(scratch, "graph.json", bad),
                "--gold", valid / "gold.json")


@FUZZ
@given(data=st.data())
def test_corrupted_gold_json(valid, data):
    bad = data.draw(corrupted((valid / "gold.json").read_bytes()))
    with tempfile.TemporaryDirectory() as scratch:
        run_cli("eval", "--pred", valid / "graph.json",
                "--gold", _write(scratch, "gold.json", bad))


@FUZZ
@given(data=st.data())
def test_corrupted_chat_log(valid, data):
    bad = data.draw(corrupted((valid / "thread.jsonl").read_bytes(), jsonl=True))
    with tempfile.TemporaryDirectory() as scratch:
        log = _write(scratch, "thread.jsonl", bad)
        run_cli("stats", log)
        run_cli("--out-dir", scratch, "export-intensity", "--input", log)
        run_cli("--out-dir", scratch, "disentangle", "--input", log,
                "--checkpoint", valid / "model.untg",
                "--mu", 0.1, "--alpha", 0.1, "--beta", 0.5)


@FUZZ
@given(data=st.data())
def test_corrupted_checkpoint(valid, data):
    bad = data.draw(corrupted((valid / "model.untg").read_bytes(), fields=False))
    with tempfile.TemporaryDirectory() as scratch:
        ckpt = _write(scratch, "model.untg", bad)
        run_cli("--out-dir", scratch, "disentangle", "--input", valid / "thread.jsonl",
                "--checkpoint", ckpt, "--mu", 0.1, "--alpha", 0.1, "--beta", 0.5)


OPTION_VALUES = ["nan", "inf", "-inf", "1e999", "-1", "0", "1", "2", "0.5", "1e-300",
                 "abc", "", "1" + "0" * 400]  # the last: an integer beyond the float range
FUZZED_COMMANDS = ("train", "disentangle", "export-intensity", "synth")
COMMAND_OPTIONS = {command: [(flag, kind is cli.BOOL_WORD)
                             for commands, flag, kind, _ in cli.OPTIONS if command in commands]
                   for command in FUZZED_COMMANDS}
# config lines that keep each command small; fuzzed lines come after them
BASE_CONFIG = {"train": "dim=4\nhidden=4\nepochs=1\n",
               "disentangle": "", "export-intensity": "",
               "synth": "conversations=2\nposts_lo=6\nposts_hi=6\npool_size=4\n"}


@pytest.mark.parametrize("command", FUZZED_COMMANDS)
@FUZZ
@given(data=st.data())
def test_option_values(valid, command, data):
    config, argv = BASE_CONFIG[command], []
    if command in ("disentangle", "export-intensity") and data.draw(st.booleans()):
        config += "mu=0.1\nalpha=0.1\nbeta=0.5\n"  # explicit Hawkes parameters, no fit
    for flag, no_value in data.draw(st.lists(st.sampled_from(COMMAND_OPTIONS[command]),
                                             min_size=1, max_size=2, unique=True)):
        value = data.draw(st.sampled_from(OPTION_VALUES))
        if data.draw(st.booleans()):
            argv += [flag] if no_value else [flag, value]
        else:
            config += f"{flag[2:].replace('-', '_')}={value}\n"
    required = {"train": ["--input", valid / "thread.jsonl"],
                "disentangle": ["--input", valid / "thread.jsonl",
                                "--checkpoint", valid / "model.untg"],
                "export-intensity": ["--input", valid / "thread.jsonl"],
                "synth": []}[command]
    with tempfile.TemporaryDirectory() as scratch:
        run_cli("--config", _write(scratch, "cfg", config.encode()), "--out-dir", scratch,
                command, *required, *argv)
