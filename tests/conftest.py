"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import json
import struct

import pytest

from untangler.ingest import Post, Thread


def make_thread(times, texts=None) -> Thread:
    """Thread with posts p0..p{n-1} at the given timestamps."""
    texts = texts if texts is not None else [f"token{i}" for i in range(len(times))]
    posts = [
        Post(id=f"p{i}", timestamp=float(t), text=texts[i])
        for i, t in enumerate(times)
    ]
    return Thread(posts=posts)


def vocab_offset(checkpoint: bytes) -> int:
    """Where a checkpoint's vocabulary block starts: after the 52-byte
    header and the float32 parameter blocks of the dims it gives."""
    v, d, h = struct.unpack_from("<3i", checkpoint, 8)
    return 52 + 4 * (v * d + d * 4 * h + h * 4 * h + 4 * h + h * d)


def write_jsonl(path, rows) -> None:
    with open(path, "w", encoding="utf-8") as fp:
        for row in rows:
            fp.write(json.dumps(row) + "\n")


@pytest.fixture
def tiny_thread() -> Thread:
    return make_thread(
        [0.0, 10.0, 20.0, 3000.0, 3010.0, 3020.0],
        ["apple pie recipe", "more apple pie", "apple crumble too",
         "rust compiler error", "fix the rust error", "rust borrow checker"],
    )
