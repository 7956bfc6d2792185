"""Chat-log parsing, canonicalization, and descriptive statistics.

Input format is JSON-Lines: one object per line with keys ``id`` (unique
string), ``ts`` (seconds since epoch, finite and >= 0) and ``text``
(UTF-8 string).  An optional ``author`` must be a UTF-8 string and is
otherwise ignored, like any other key: a post is its id, time and text,
and the pipeline reads no metadata beyond the timestamps.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field
from json.encoder import encode_basestring
from typing import Iterable


class ChatLogError(ValueError):
    """Malformed chat log input.  Carries the 1-based line number."""

    def __init__(self, message: str, line: int):
        self.line = line
        super().__init__(f"line {line}: {message}")


@dataclass(frozen=True, slots=True)
class Post:
    id: str
    timestamp: float
    text: str


@dataclass
class Thread:
    """Chronologically ordered posts.  Post list indices 0..n-1 are the
    canonical identifiers used by every downstream module."""

    posts: list[Post] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.posts)

    @property
    def timestamps(self) -> list[float]:
        return [p.timestamp for p in self.posts]


_RAW_DECODE = json.JSONDecoder().raw_decode


def _decode(raw: str):
    """``json.loads(raw)``: the same value or the same exception, for one
    ``raw_decode`` when the line starts with its value and ends in JSON
    whitespace, about 40% less than ``json.loads`` and its whitespace
    regexes.  Any other line (leading whitespace, a BOM, trailing data, a
    decode error) goes to ``json.loads``.  Lines are not joined into one array: there a line
    missing its ``}`` and a next line ``"k": 1}`` merge into one object."""
    try:
        obj, end = _RAW_DECODE(raw)
    except json.JSONDecodeError:
        return json.loads(raw)
    if raw[end:].strip(" \t\n\r"):  # JSON whitespace only, as json.loads allows
        return json.loads(raw)
    return obj


def _parse_line(raw: str, lineno: int) -> Post:
    try:
        obj = _decode(raw)
    except json.JSONDecodeError as exc:
        raise ChatLogError(f"invalid JSON ({exc.msg})", lineno) from exc
    except RecursionError as exc:
        raise ChatLogError("invalid JSON (nested too deeply)", lineno) from exc
    except ValueError as exc:  # int() refuses the digits of a huge integer
        raise ChatLogError(f"invalid JSON (a number longer than "
                           f"{sys.get_int_max_str_digits()} digits)", lineno) from exc
    if not isinstance(obj, dict):
        raise ChatLogError("expected a JSON object", lineno)
    for key in ("id", "ts", "text"):
        if key not in obj:
            raise ChatLogError(f"missing key {key!r}", lineno)
    pid, ts, text = obj["id"], obj["ts"], obj["text"]
    if not isinstance(pid, str) or not pid:
        raise ChatLogError("'id' must be a non-empty string", lineno)
    if isinstance(ts, bool) or not isinstance(ts, (int, float)):
        raise ChatLogError("'ts' must be a number", lineno)
    try:
        ts = float(ts)
    except OverflowError:  # an integer beyond the float range
        ts = math.inf
    if not math.isfinite(ts):
        raise ChatLogError("'ts' must be finite", lineno)
    if ts < 0:
        raise ChatLogError("'ts' must be >= 0", lineno)
    if not isinstance(text, str):
        raise ChatLogError("'text' must be a string", lineno)
    author = obj.get("author")
    if author is not None and not isinstance(author, str):
        raise ChatLogError("'author' must be a string when present", lineno)
    # a surrogate comes only from a \u escape or a literal non-ASCII
    # character (parse_chat_log takes any str, not only decoded UTF-8)
    if "\\u" in raw or not raw.isascii():
        for key, value in (("id", pid), ("text", text), ("author", author or "")):
            try:
                value.encode("utf-8")
            except UnicodeEncodeError as exc:  # a lone surrogate, such as "\ud800"
                raise ChatLogError(f"{key!r} is not UTF-8 text (lone surrogate "
                                   f"{ascii(value[exc.start])} at character {exc.start})",
                                   lineno) from exc
    return Post(pid, ts, text)


def parse_chat_log(stream: Iterable[str]) -> Thread:
    """Parse a JSON-Lines chat log into a canonical Thread.

    Posts are stably sorted by timestamp, so ties keep input order.
    Whitespace-only posts carry no linguistic signal and are always
    dropped.  Raises ChatLogError (with line number) on malformed lines,
    duplicate ids, or negative or non-finite timestamps.
    """
    posts: list[Post] = []
    seen_ids: set[str] = set()
    for lineno, raw in enumerate(stream, start=1):
        if not raw.strip():
            continue
        post = _parse_line(raw, lineno)
        if post.id in seen_ids:
            raise ChatLogError(f"duplicate id {post.id!r}", lineno)
        seen_ids.add(post.id)
        if post.text.strip():
            posts.append(post)
    posts.sort(key=lambda p: p.timestamp)  # stable: ties keep input order
    return Thread(posts=posts)


def _json_number(value) -> str:
    """What ``json.dumps`` writes for a number: a finite float as its repr."""
    if isinstance(value, float) and math.isfinite(value):
        return float.__repr__(value)
    return json.dumps(value)


def serialize_thread(thread: Thread) -> str:
    """Canonical JSONL serialization; parse(serialize(t)) == t.

    Each line is the text of ``json.dumps(obj, sort_keys=True,
    ensure_ascii=False)`` for the post's object, formatted straight from
    its fields: strings through ``encode_basestring``, as ``json`` does.
    """
    lines = [f'{{"id": {encode_basestring(p.id)}, "text": {encode_basestring(p.text)}, '
             f'"ts": {_json_number(p.timestamp)}}}' for p in thread.posts]
    return "\n".join(lines) + ("\n" if lines else "")


def thread_stats(thread: Thread) -> dict:
    """Message count, time span in minutes, and whitespace-token length
    distribution of a canonical thread, keyed as `stats` prints them.
    The histogram maps each length, as a string, to its post count."""
    n = len(thread.posts)
    if n == 0:
        return {"message_count": 0, "span_minutes": 0.0, "length_histogram": {},
                "mean_words": 0.0, "median_words": 0.0, "max_words": 0}
    counts = sorted(len(p.text.split()) for p in thread.posts)
    hist: dict[str, int] = {}
    for c in map(str, counts):
        hist[c] = hist.get(c, 0) + 1
    mid = n // 2
    median = float(counts[mid]) if n % 2 else (counts[mid - 1] + counts[mid]) / 2.0
    return {
        "message_count": n,
        "span_minutes": (thread.posts[-1].timestamp - thread.posts[0].timestamp) / 60.0,
        "length_histogram": hist,
        "mean_words": sum(counts) / n,
        "median_words": median,
        "max_words": counts[-1],
    }
