"""Output checks.  The `*_problems` functions return a list of problems
(empty means correct); the `check_*` functions add them to a CLI call's
`problems`, which makes the call count as failed."""

from __future__ import annotations

import json
import math
from pathlib import Path


def _reject_constant(name: str):
    raise ValueError(f"non-finite JSON constant {name}")


def strict_json(text: str):
    """json.loads that rejects NaN, Infinity and -Infinity."""
    return json.loads(text, parse_constant=_reject_constant)


def stdout_payload(stdout: str) -> tuple[dict, list[str]]:
    """The JSON object on the last stdout line of a CLI command."""
    lines = stdout.strip().splitlines()
    if not lines:
        return {}, ["no stdout"]
    try:
        payload = strict_json(lines[-1])
    except ValueError as exc:
        return {}, [f"stdout is not strict JSON: {exc}"]
    if not isinstance(payload, dict):
        return {}, ["stdout JSON is not an object"]
    return payload, []


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def graph_problems(data: bytes, n_posts: int) -> list[str]:
    """`graph.json` must cover n_posts posts with a forest of forward edges."""
    try:
        payload = strict_json(data.decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as exc:
        return [f"graph.json is not strict JSON: {exc}"]
    if not isinstance(payload, dict) or not isinstance(payload.get("edges"), list):
        return ["graph.json has no edge list"]
    problems = []
    if payload.get("n") != n_posts:
        problems.append(f"graph.json n={payload.get('n')!r}, expected {n_posts}")
    children: set[int] = set()
    for edge in payload["edges"]:
        parent, child = (edge.get("parent"), edge.get("child")) if isinstance(edge, dict) else (None, None)
        if not (_is_int(parent) and _is_int(child)):
            problems.append(f"malformed edge {edge!r}")
        elif not 0 <= parent < child < n_posts:
            problems.append(f"edge {parent}->{child} is not 0 <= parent < child < {n_posts}")
        elif child in children:
            problems.append(f"post {child} has in-degree > 1")
        else:
            children.add(child)
    return problems


def eval_problems(payload: dict) -> list[str]:
    problems = []
    for key in ("ari", "f1"):
        value = payload.get(key)
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"eval {key}={value!r} is not finite")
    return problems


def check_train(call, checkpoint: Path) -> None:
    if call.returncode != 0:
        return
    call.problems += stdout_payload(call.stdout)[1]
    if not checkpoint.is_file():
        call.problems.append(f"no checkpoint at {checkpoint}")


def check_disentangle(call, out_dir: Path, n_posts: int) -> None:
    if call.returncode != 0:
        return
    payload, problems = stdout_payload(call.stdout)
    call.problems += problems
    if payload and payload.get("n_posts") != n_posts:
        call.problems.append(f"disentangle reports n_posts={payload.get('n_posts')!r}, expected {n_posts}")
    try:
        call.problems += graph_problems((out_dir / "graph.json").read_bytes(), n_posts)
        strict_json((out_dir / "conversations.json").read_text(encoding="utf-8"))
    except OSError as exc:
        call.problems.append(f"missing output: {exc}")
    except ValueError as exc:
        call.problems.append(f"conversations.json is not strict JSON: {exc}")


def check_eval(call) -> dict:
    if call.returncode != 0:
        return {}
    payload, problems = stdout_payload(call.stdout)
    call.problems += problems + (eval_problems(payload) if payload else [])
    return payload if not call.problems else {}
