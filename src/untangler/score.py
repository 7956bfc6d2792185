"""Scoring a reply forest against a gold standard, in pure Python so that
``untangler eval`` runs without numpy: the checked readers of graph.json
and gold.json, the forest's conversations, edge precision/recall/F1,
the adjusted Rand index and where the forest departs from gold."""

from __future__ import annotations

import json
import math
import re
from collections import Counter
from dataclasses import dataclass
from math import comb

# a post index written as a canonical decimal: "1", not "01", "+1" or " 1"
_INDEX = re.compile(r"0|[1-9][0-9]*")


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_finite(value) -> bool:
    if not (_is_int(value) or isinstance(value, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an int beyond the float range
        return False


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """A JSON object's dict, or ValueError if it repeats a key."""
    table = dict(pairs)
    if len(table) != len(pairs):
        raise ValueError("a JSON object repeats a key")
    return table


def _json_object(data, what: str) -> dict:
    """The JSON object of `data` (str or UTF-8 bytes), or ValueError if it
    is nested too deeply, repeats a key or is not an object."""
    if isinstance(data, bytes):
        data = data.decode("utf-8")
    try:
        payload = json.loads(data, object_pairs_hook=_unique_keys)
    except RecursionError as exc:
        raise ValueError("JSON nested too deeply") from exc
    if not isinstance(payload, dict):
        raise ValueError(f"{what} must be a JSON object")
    return payload


def read_graph(data) -> tuple[int, list[int], list[int], list]:
    """n and the parent, child and weight lists of a graph.json.

    Raises ValueError unless 0 <= n < 2**63, 'edges' is a list of
    objects, every edge has 0 <= parent < child < n, every weight is a
    finite number and no object repeats a key.
    """
    payload = _json_object(data, "graph")
    n = payload.get("n")
    if not _is_int(n) or not 0 <= n < 2 ** 63:
        raise ValueError("'n' must be an integer >= 0, not too large for int64")
    edges = payload.get("edges")
    if not isinstance(edges, list) or not all(isinstance(e, dict) for e in edges):
        raise ValueError("'edges' must be a list of objects")
    parent, child, weight = ([e.get(key) for e in edges]  # None if missing
                             for key in ("parent", "child", "w"))
    # on decoded JSON, type(x) is int is _is_int(x), the faster test
    for u, v, w in zip(parent, child, weight):
        if not (type(u) is int and type(v) is int and 0 <= u < v < n):
            raise ValueError(f"edge {u!r} -> {v!r} breaks 0 <= parent < child < n")
        if not (type(w) is float and math.isfinite(w) or _is_finite(w)):
            raise ValueError(f"edge {u} -> {v} has weight {w!r}, not a finite number")
    return n, parent, child, weight


@dataclass
class Conversation:
    root: int
    members: list[int]           # ascending post indices, root included
    parents: dict[int, int]      # child -> parent, within members


def extract_trees(n: int, parent: list[int], child: list[int]) -> list[Conversation]:
    """One conversation per tree of the forest of edges parent -> child
    over posts 0..n-1, ordered by root index."""
    parent_of = dict(zip(child, parent))
    if len(parent_of) < len(child):
        raise ValueError("graph is not a forest: a node has in-degree > 1")
    root_of = list(range(n))
    for v in sorted(parent_of):  # parents precede children, one pass suffices
        root_of[v] = root_of[parent_of[v]]
    members_by_root: dict[int, list[int]] = {}
    for i, root in enumerate(root_of):
        members_by_root.setdefault(root, []).append(i)
    conversations = []
    for root, members in members_by_root.items():  # a root is its tree's first member
        parents = {c: parent_of[c] for c in members[1:]}
        conversations.append(Conversation(root=root, members=members, parents=parents))
    return conversations


@dataclass
class GoldStandard:
    parents: dict[int, int]  # child index -> parent index (roots absent)
    labels: dict[int, int]   # post index -> conversation id

    def to_json(self) -> str:
        """``json.dumps`` of the tables with string keys, sorted as
        strings at every level, plus a newline."""
        return json.dumps({"parents": {str(k): v for k, v in self.parents.items()},
                           "labels": {str(k): v for k, v in self.labels.items()}},
                          sort_keys=True) + "\n"

    @classmethod
    def from_json(cls, data: str) -> "GoldStandard":
        """Inverse of to_json.  Raises ValueError unless 'parents' and
        'labels' are objects mapping post indices, written as canonical
        decimals ("1", not "01"), to integers, no object repeats a key,
        and every gold edge has 0 <= parent < child and stays within one
        conversation when both its posts are labelled."""
        payload = _json_object(data, "gold standard")
        tables = []
        for key in ("parents", "labels"):
            table = payload.get(key)
            # _INDEX for canonical decimals, and type(v) is int as in read_graph
            if not (isinstance(table, dict) and all(
                    _INDEX.fullmatch(k) and type(v) is int for k, v in table.items())):
                raise ValueError(f"{key!r} must be an object mapping post indices to integers")
            tables.append(dict(zip(map(int, table), table.values())))
        parents, labels = tables
        for child, parent in parents.items():
            if not 0 <= parent < child:
                raise ValueError(f"gold edge {parent} -> {child} breaks 0 <= parent < child")
            if child in labels and parent in labels and labels[child] != labels[parent]:
                raise ValueError(f"gold edge {parent} -> {child} joins two conversations")
        return cls(parents=parents, labels=labels)


def edge_prf(predicted: dict[int, int], gold: dict[int, int]) -> tuple[float, float, float]:
    """Precision/recall/F1 over parent->child edges."""
    hits = sum(1 for c, p in predicted.items() if gold.get(c) == p)
    if not predicted:
        precision = 1.0 if not gold else 0.0
    else:
        precision = hits / len(predicted)
    if not gold:
        recall = 1.0 if not predicted else 0.0
    else:
        recall = hits / len(gold)
    f1 = 0.0 if precision + recall == 0 else 2 * precision * recall / (precision + recall)
    return precision, recall, f1


def partition_ari(predicted: dict[int, int], gold: dict[int, int]) -> float:
    """Adjusted Rand index via the pair-counting contingency formula."""
    if set(predicted) != set(gold):
        raise ValueError("partitions must label the same posts")
    n = len(gold)
    if n < 2:  # no pairs to count
        return 1.0
    index = sum(comb(c, 2) for c in Counter((predicted[i], gold[i]) for i in gold).values())
    sum_a = sum(comb(c, 2) for c in Counter(predicted.values()).values())
    sum_b = sum(comb(c, 2) for c in Counter(gold.values()).values())
    expected = sum_a * sum_b / comb(n, 2)
    maximum = (sum_a + sum_b) / 2.0
    if maximum == expected:
        return 1.0
    return (index - expected) / (maximum - expected)


def forest_errors(parents: dict[int, int], trees: dict[int, int],
                  gold: dict[int, int]) -> dict[str, int]:
    """Where a forest departs from gold, keyed as `eval` prints it: edges
    (child -> parent) whose ends lie in two gold conversations, trees
    (post -> tree) holding more than one conversation, and conversations
    (post -> label) spread over more than one tree."""
    pairs = {(trees[i], gold[i]) for i in gold}  # each (tree, conversation) once
    return {"cross_edges": sum(gold[c] != gold[p] for c, p in parents.items()),
            "mixed_trees": sum(k > 1 for k in Counter(t for t, _ in pairs).values()),
            "split_conversations": sum(k > 1 for k in Counter(g for _, g in pairs).values())}
