"""Chat-log parsing, canonicalization, and descriptive statistics.

Input format is JSON-Lines: one object per line with keys ``id`` (unique
string), ``ts`` (seconds since epoch, finite and >= 0), ``text`` (UTF-8
string) and optional ``author``.  Author is parsed but never used
downstream; the pipeline relies on timestamps only.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import IO, Iterable, Optional, Union


class ChatLogError(ValueError):
    """Malformed chat log input.  Carries the 1-based line number."""

    def __init__(self, message: str, line: Optional[int] = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


@dataclass(frozen=True, slots=True)
class Post:
    id: str
    timestamp: float
    text: str
    author: Optional[str] = None


@dataclass
class ParseOptions:
    # whitespace-only posts carry no linguistic signal; dropped unless asked
    keep_empty: bool = False


@dataclass
class Thread:
    """Chronologically ordered posts.  Post list indices 0..n-1 are the
    canonical identifiers used by every downstream module."""

    posts: list[Post] = field(default_factory=list)
    name: str = ""

    def __len__(self) -> int:
        return len(self.posts)

    @property
    def timestamps(self) -> list[float]:
        return [p.timestamp for p in self.posts]


@dataclass
class ThreadStats:
    message_count: int
    span_minutes: float
    length_histogram: dict[int, int]
    mean_words: float
    median_words: float
    max_words: int

    def to_dict(self) -> dict:
        return {
            "message_count": self.message_count,
            "span_minutes": self.span_minutes,
            "length_histogram": {str(k): v for k, v in sorted(self.length_histogram.items())},
            "mean_words": self.mean_words,
            "median_words": self.median_words,
            "max_words": self.max_words,
        }


def _parse_line(raw: str, lineno: int) -> Optional[Post]:
    try:
        obj = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ChatLogError(f"invalid JSON ({exc.msg})", lineno) from exc
    except RecursionError as exc:
        raise ChatLogError("invalid JSON (nested too deeply)", lineno) from exc
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
    return Post(id=pid, timestamp=ts, text=text, author=author)


def parse_chat_log(
    stream: Union[IO, Iterable[Union[str, bytes]]],
    options: Optional[ParseOptions] = None,
    name: str = "",
) -> Thread:
    """Parse a JSON-Lines chat log into a canonical Thread.

    Posts are stably sorted by timestamp, so ties keep input order.
    Raises ChatLogError (with line number) on malformed lines, duplicate
    ids, or negative or non-finite timestamps.
    """
    options = options or ParseOptions()
    posts: list[Post] = []
    seen_ids: set[str] = set()
    for lineno, raw in enumerate(stream, start=1):
        if isinstance(raw, bytes):
            raw = raw.decode("utf-8")
        if not raw.strip():
            continue
        post = _parse_line(raw, lineno)
        if post.id in seen_ids:
            raise ChatLogError(f"duplicate id {post.id!r}", lineno)
        seen_ids.add(post.id)
        if not options.keep_empty and not post.text.strip():
            continue
        posts.append(post)
    posts.sort(key=lambda p: p.timestamp)  # stable: ties keep input order
    return Thread(posts=posts, name=name)


def serialize_thread(thread: Thread) -> str:
    """Canonical JSONL serialization; parse(serialize(t)) == t."""
    lines = []
    for p in thread.posts:
        obj = {"id": p.id, "ts": p.timestamp, "text": p.text}
        if p.author is not None:
            obj["author"] = p.author
        lines.append(json.dumps(obj, sort_keys=True, ensure_ascii=False))
    return "\n".join(lines) + ("\n" if lines else "")


def thread_stats(thread: Thread) -> ThreadStats:
    """Message count, time span in minutes, and whitespace-token length
    distribution of a canonical thread."""
    n = len(thread.posts)
    if n == 0:
        return ThreadStats(0, 0.0, {}, 0.0, 0.0, 0)
    ts = thread.timestamps
    span_minutes = (ts[-1] - ts[0]) / 60.0
    counts = sorted(len(p.text.split()) for p in thread.posts)
    hist: dict[int, int] = {}
    for c in counts:
        hist[c] = hist.get(c, 0) + 1
    mid = n // 2
    median = float(counts[mid]) if n % 2 else (counts[mid - 1] + counts[mid]) / 2.0
    return ThreadStats(
        message_count=n,
        span_minutes=span_minutes,
        length_histogram=hist,
        mean_words=sum(counts) / n,
        median_words=median,
        max_words=counts[-1],
    )
