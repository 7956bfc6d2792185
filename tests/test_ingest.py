"""Parsing, canonicalization, and statistics."""

import io
import json
import sys

import pytest
from hypothesis import given, settings, strategies as st

from untangler import ingest
from untangler.ingest import ChatLogError, Post, Thread

from conftest import make_thread
from oracles import reference_parse_line, reference_thread_jsonl
from test_cli_fuzz import corrupted


def parse(lines):
    return ingest.parse_chat_log(io.StringIO("\n".join(lines) + "\n"))


def row(pid, ts, text, **extra):
    return json.dumps({"id": pid, "ts": ts, "text": text, **extra})


class TestParse:
    def test_basic_round_trip(self):
        thread = parse([row("a", 1, "hello"), row("b", 2.5, "world", author="kim")])
        assert [p.id for p in thread.posts] == ["a", "b"]
        assert thread.posts[1] == Post(id="b", timestamp=2.5, text="world")
        assert ingest.parse_chat_log(
            io.StringIO(ingest.serialize_thread(thread))) == thread

    def test_sorts_by_timestamp_stably(self):
        thread = parse([row("late", 9, "x"), row("a", 3, "x"),
                        row("b", 3, "x"), row("early", 1, "x")])
        assert [p.id for p in thread.posts] == ["early", "a", "b", "late"]

    def test_blank_lines_skipped(self):
        stream = io.StringIO(row("a", 1, "x") + "\n\n   \n" + row("b", 2, "y") + "\n")
        assert len(ingest.parse_chat_log(stream)) == 2

    def test_empty_posts_dropped_by_default(self):
        assert len(parse([row("a", 1, "  "), row("b", 2, "y"), row("c", 3, "\t\n")])) == 1

    @pytest.mark.parametrize("bad,fragment", [
        ("{not json", "invalid JSON"),
        ("[1, 2]", "JSON object"),
        (json.dumps({"ts": 1, "text": "x"}), "missing key 'id'"),
        (json.dumps({"id": "a", "text": "x"}), "missing key 'ts'"),
        (json.dumps({"id": "a", "ts": 1}), "missing key 'text'"),
        (row("", 1, "x"), "non-empty string"),
        (json.dumps({"id": "a", "ts": "1", "text": "x"}), "must be a number"),
        (json.dumps({"id": "a", "ts": True, "text": "x"}), "must be a number"),
        (row("a", -1, "x"), ">= 0"),
        (row("a", float("nan"), "x"), "finite"),
        (row("a", float("inf"), "x"), "finite"),
        (row("a", float("-inf"), "x"), "finite"),
        ('{"id": "a", "ts": 1e400, "text": "x"}', "finite"),
        (row("a", 10**400, "x"), "finite"),
        (json.dumps({"id": "a", "ts": 1, "text": 7}), "must be a string"),
        (row("a", 1, "x", author=3), "'author' must be a string"),
        ('{"id":"a","ts":1,"text":"hello \\ud800 world"}', "'text' is not UTF-8 text"),
        (row("a\udfff", 1, "x"), "'id' is not UTF-8 text"),
        (row("a", 1, "x", author="\ud800"), "'author' is not UTF-8 text"),
        ('{"id":"b","ts":' + "9" * 5000 + ',"text":"y"}', "invalid JSON (a number longer than"),
    ])
    def test_malformed_lines_rejected(self, bad, fragment):
        with pytest.raises(ChatLogError) as err:
            parse([row("ok", 1, "x"), bad])
        assert fragment in str(err.value)
        assert err.value.line == 2

    def test_duplicate_id_rejected(self):
        with pytest.raises(ChatLogError, match="duplicate id 'a'"):
            parse([row("a", 1, "x"), row("a", 2, "y")])

    def test_empty_input(self):
        assert ingest.parse_chat_log(io.StringIO("")) == Thread(posts=[])


def outcome(parse, raw):
    """What a line parser makes of `raw`: the Post's repr (so -0.0 and 0.0
    differ), or the exception's type and message."""
    try:
        return repr(parse(raw, 3))
    except (ValueError, RecursionError) as exc:
        return type(exc), str(exc)


OBJ = '{"id": "a", "ts": 1, "text": "x"}'
OVER_LONG = '{"id":"b","ts":' + "9" * 5000 + ',"text":"y"}'
DEEP = '{"id": "a", "ts": 1, "text": "x", "n": ' + "[" * 100_000 + "]" * 100_000 + "}"
HAND_LINES = [
    OBJ, OBJ + "\n",
    '{"id":"c","ts":1,"text":"z"', '"q":1}',  # merged into one object by a joined parse
    "  " + OBJ, "\t" + OBJ, "\r" + OBJ, OBJ + "  \n", OBJ + "\t", OBJ + "\r", OBJ + "\r\n",
    " \t\r " + OBJ + " \t\r\n",
    OBJ + "\x0b", OBJ + "\x0c", OBJ + "\u00a0", OBJ + "\x0b\n", OBJ + " x", OBJ + OBJ,
    "\ufeff" + OBJ,
    '{"id": "a", "ts": NaN, "text": "x"}', '{"id": "a", "ts": Infinity, "text": "x"}',
    '{"id": "a", "ts": -Infinity, "text": "x"}', '{"id": "a", "ts": -0.0, "text": "x"}',
    '{"id": "a", "ts": true, "text": "x"}', row("a", 10**400, "x"),
    '{"id": "\\ud800", "ts": 1, "text": "x"}', '{"id": "a", "ts": 1, "text": "x\\udfff"}',
    '{"id": "a", "ts": 1, "text": "x", "author": "\\ud800"}',
    '{"id": "a", "ts": 1, "text": "\\ud83d\\ude00 caf\\u00e9 caf\u00e9"}',
    '{"id": "a", "ts": 1, "text": "x\ud800"}',  # a literal surrogate, as a StringIO may hold
    '{"id": "a\udcff", "ts": 1, "text": "x"}',
    DEEP,
    '{"id": "a", "id": "b", "ts": 1, "ts": 2, "text": "x"}',
    "", "\n", "null", "[]", "7",
]
# a chat log of two lines, one with non-ASCII text and one with \u escapes
VALID_LOG = (json.dumps({"id": "a\u00e9", "ts": 1.5, "text": "caf\u00e9 \U0001f600",
                         "author": "kim"}, ensure_ascii=False)
             + "\n" + row("b", 2, "caf\u00e9 ok") + "\n").encode()


class TestParseLineMatchesJsonLoads:
    """`_parse_line` against the one-`json.loads` reference: the same Post,
    or the same exception type and message, on every line."""

    @pytest.mark.parametrize("raw", HAND_LINES)
    def test_hand_lines(self, raw):
        assert outcome(ingest._parse_line, raw) == outcome(reference_parse_line, raw)

    @pytest.mark.parametrize("tail", ["\x0b", "\x0c", "\u00a0"])
    def test_non_json_whitespace_after_the_object_is_extra_data(self, tail):
        with pytest.raises(ChatLogError, match="Extra data"):
            ingest._parse_line(OBJ + tail, 3)

    def test_literal_surrogate_in_a_stringio_line(self):
        with pytest.raises(ChatLogError, match="^line 1: 'text' is not UTF-8 text"):
            ingest.parse_chat_log(io.StringIO('{"id": "a", "ts": 1, "text": "x\ud800"}\n'))

    def test_lines_merged_by_a_joined_parse_stay_two_errors(self):
        with pytest.raises(ChatLogError, match="^line 1: invalid JSON"):
            parse(['{"id":"c","ts":1,"text":"z"', '"q":1}'])

    def test_over_long_number_is_the_one_intended_difference(self):
        """json.loads raises a plain ValueError, which the reference lets
        escape without a line number; the reader names the line."""
        limit = sys.get_int_max_str_digits()
        assert outcome(reference_parse_line, OVER_LONG)[0] is ValueError
        assert outcome(ingest._parse_line, OVER_LONG) == (
            ChatLogError, f"line 3: invalid JSON (a number longer than {limit} digits)")

    @settings(max_examples=500, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_corrupted_lines(self, data):
        text = data.draw(corrupted(VALID_LOG, jsonl=True)).decode("utf-8", "surrogateescape")
        for raw in io.StringIO(text):
            assert outcome(ingest._parse_line, raw) == outcome(reference_parse_line, raw)


class TestSerialize:
    def test_empty_thread(self):
        assert ingest.serialize_thread(Thread()) == ""

    def test_author_omitted_when_absent(self):
        out = ingest.serialize_thread(make_thread([1.0], ["hi"]))
        assert "author" not in out
        assert json.loads(out) == {"id": "p0", "ts": 1.0, "text": "hi"}
        # an input's author is checked, then dropped with the other unknown keys
        assert ingest.serialize_thread(parse([row("p0", 1.0, "hi", author="kim")])) == out

    def test_lines_are_json_dumps(self):
        texts = ['say "hi"', "back\\slash", "tab\tnew\nline\x00\x1f\x7f", "café ✓ 𝄞",
                 "\u2028\u2029", "", " "]
        times = [0.0, 1e-300, 0.1, 1.5e300, 123456789.125, 2.0, 7]
        posts = [Post(id=f'"{i}\\', timestamp=t, text=text)
                 for i, (t, text) in enumerate(zip(times, texts))]
        thread = Thread(posts=posts)
        assert ingest.serialize_thread(thread) == reference_thread_jsonl(thread)

    def test_unicode_preserved(self):
        thread = make_thread([1.0], ["café ✓"])
        again = ingest.parse_chat_log(io.StringIO(ingest.serialize_thread(thread)))
        assert again.posts[0].text == "café ✓"


class TestStats:
    def test_empty(self):
        stats = ingest.thread_stats(Thread())
        assert stats["message_count"] == 0
        assert stats["length_histogram"] == {}

    def test_known_values(self):
        thread = make_thread([0.0, 60.0, 180.0], ["one", "two words", "three word post"])
        stats = ingest.thread_stats(thread)
        assert stats["message_count"] == 3
        assert stats["span_minutes"] == pytest.approx(3.0)
        assert stats["length_histogram"] == {"1": 1, "2": 1, "3": 1}
        assert stats["mean_words"] == pytest.approx(2.0)
        assert stats["median_words"] == pytest.approx(2.0)
        assert stats["max_words"] == 3

    def test_even_count_median(self):
        thread = make_thread([0, 1, 2, 3], ["a", "a b", "a b c", "a b c d"])
        assert ingest.thread_stats(thread)["median_words"] == pytest.approx(2.5)
