"""The traced run: the CLI's commands in-process, with spans around calls
into each module's public functions, and the per-layer metrics read from
those spans."""

from __future__ import annotations

import io
from contextlib import redirect_stdout

import numpy as np

from untangler import cli, corpus, embedder, graph, harness, ingest, temporal

from spans import Tracer

LAYERS = ("ingest", "corpus", "embedder", "temporal", "graph", "harness", "cli")


def _square_bytes(arguments: dict, result) -> int:
    """Bytes of an n x n array the graph layer hands back, else 0."""
    if isinstance(result, np.ndarray) and result.ndim == 2 and result.shape[0] == result.shape[1]:
        return int(result.nbytes)
    return 0


# module -> {public function: what to keep from each call (or None)}
TARGETS = {
    ingest: {"parse_chat_log": lambda a, r: r},
    corpus: {"build_vocab": lambda a, r: len(r), "build_windows": lambda a, r: len(r),
             "save_vocab": None, "load_vocab": None},
    embedder: {"train": lambda a, r: (a["threads"], a["vocab"], a["windows"], a["config"]),
               "save_checkpoint": None, "load_checkpoint": None,
               "embed_thread": lambda a, r: (a["thread"], a["vocab"], a["max_len"])},
    temporal: {"fit_multistart": None, "detect_ranges": lambda a, r: [(g.lo, g.hi) for g in r],
               "sample_intensity": None, "smooth": None},
    graph: {"similarity_matrix": _square_bytes, "average_score": lambda a, r: r,
            "prune_average": _square_bytes, "orient": lambda a, r: r.n_edges,
            "thin": lambda a, r: r.n_edges, "extract_conversations": None,
            "export_graph": None, "parse_graph_json": None},
    harness: {"edge_prf": None, "partition_ari": None},
}


def run_commands(commands: list[tuple[str, list[str]]], run_id: str):
    """Run `cli.main(argv)` for each (command, argv) with every target
    instrumented.  Returns the tracer and, per command, (exit code,
    stdout, span wall time)."""
    tracer = Tracer(run_id)
    for module, functions in TARGETS.items():
        for name, keep in functions.items():
            tracer.instrument(module, name, keep)
    results = []
    try:
        for command, argv in commands:
            out = io.StringIO()
            with tracer.span(f"cli.{command}") as span, redirect_stdout(out):
                code = cli.main(argv)
            results.append((code, out.getvalue(), span.duration))
    finally:
        tracer.restore()
    return tracer, results


def _encodes_per_epoch(threads, vocab, windows, config) -> tuple[int, int]:
    """LSTM post encodings `embedder.train` performs per epoch, and the
    number of distinct posts among them.

    Mirrors the sample construction in `embedder.train`: each sample
    encodes its centre, its non-empty members and min(negatives, pool)
    negatives, the pool being the thread's other non-empty posts.
    """
    encodes = distinct = 0
    for thread, wins in zip(threads, windows):
        nonempty = [bool(corpus.encode_text(vocab, p.text, config.max_len)) for p in thread.posts]
        distinct += sum(nonempty)
        for w in wins:
            members = [m for m in w.members if nonempty[m]]
            if not nonempty[w.center] or not members:
                continue
            pool = sum(nonempty) - len(members) - 1
            encodes += 1 + len(members) + min(config.negatives_per_sample, pool)
    return encodes, distinct


def _fit_loglik(thread, hawkes: dict) -> float:
    """Log-likelihood of the model disentangle used, on the events and
    horizon `cli._hawkes_from_args` fits on."""
    times = np.asarray(thread.timestamps)
    events = times - times[0]
    horizon = (float(events[-1]) or 1.0) + 1.0
    return temporal.log_likelihood(temporal.HawkesModel(**hawkes), events, horizon)


def layer_metrics(tracer: Tracer, hawkes: dict, disentangle_wall_s: float,
                  startup_s: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced train/disentangle/eval pass.

    `*_s` of a function is its inclusive time summed over its calls;
    `<layer>.self_s` is the layer's time not covered by child spans.
    `disentangle_wall_s` is the untraced CLI process of the same run.
    """
    dis = "cli.disentangle"
    m: dict[str, tuple[float, str]] = {}

    def first(values, default=0):
        return values[0] if values else default

    parsed = first(tracer.kept_values("ingest.parse_chat_log", dis), None)
    m["ingest.parse_s"] = (tracer.total("ingest.parse_chat_log"), "s")
    m["ingest.posts"] = (len(parsed) if parsed is not None else 0, "count")
    m["corpus.vocab_s"] = (tracer.total("corpus.build_vocab"), "s")
    m["corpus.windows_s"] = (tracer.total("corpus.build_windows"), "s")
    m["corpus.vocab_size"] = (first(tracer.kept_values("corpus.build_vocab")), "count")
    m["corpus.windows"] = (first(tracer.kept_values("corpus.build_windows")), "count")

    train_s = tracer.total("embedder.train")
    trained = first(tracer.kept_values("embedder.train"), None)
    encodes, distinct = _encodes_per_epoch(*trained) if trained else (0, 0)
    epochs = trained[3].epochs if trained else 0
    m["embedder.train_s"] = (train_s, "s")
    m["embedder.epoch_s"] = (train_s / epochs if epochs else 0.0, "s")
    m["embedder.encodes_per_epoch"] = (encodes, "count")
    m["embedder.distinct_ratio"] = (distinct / encodes if encodes else 0.0, "ratio")
    m["embedder.embed_s"] = (tracer.total("embedder.embed_thread"), "s")
    embedded = first(tracer.kept_values("embedder.embed_thread"), None)
    tokens = (sum(len(corpus.encode_text(embedded[1], p.text, embedded[2]))
                  for p in embedded[0].posts) if embedded else 0)
    m["embedder.embed_tokens"] = (tokens, "count")
    m["embedder.load_s"] = (tracer.total("embedder.load_checkpoint"), "s")

    ranges = first(tracer.kept_values("temporal.detect_ranges", dis), [])
    m["temporal.fit_s"] = (tracer.total("temporal.fit_multistart"), "s")
    m["temporal.fit_loglik"] = (_fit_loglik(parsed, hawkes) if parsed is not None else 0.0, "nats")
    m["temporal.sample_intensity_s"] = (tracer.total("temporal.sample_intensity"), "s")
    m["temporal.smooth_s"] = (tracer.total("temporal.smooth"), "s")
    m["temporal.detect_ranges_s"] = (tracer.total("temporal.detect_ranges"), "s")
    m["temporal.ranges"] = (len(ranges), "count")
    m["temporal.max_range_posts"] = (max((hi - lo for lo, hi in ranges), default=0), "count")
    m["temporal.rss_rise_mb"] = (tracer.rss_rise_mb("temporal"), "MB")

    m["graph.similarity_s"] = (tracer.total("graph.similarity_matrix"), "s")
    m["graph.prune_s"] = (tracer.total("graph.prune_average"), "s")
    m["graph.orient_s"] = (tracer.total("graph.orient"), "s")
    m["graph.thin_s"] = (tracer.total("graph.thin"), "s")
    m["graph.extract_s"] = (tracer.total("graph.extract_conversations"), "s")
    m["graph.export_s"] = (tracer.total("graph.export_graph"), "s")
    m["graph.threshold"] = (float(first(tracer.kept_values("graph.average_score", dis), 0.0)), "cosine")
    m["graph.stage1_edges"] = (first(tracer.kept_values("graph.orient", dis)), "count")
    m["graph.forest_edges"] = (first(tracer.kept_values("graph.thin", dis)), "count")
    m["graph.dense_bytes"] = (sum(tracer.kept_values("graph.similarity_matrix", dis))
                              + sum(tracer.kept_values("graph.prune_average", dis)), "B")
    m["graph.rss_rise_mb"] = (tracer.rss_rise_mb("graph"), "MB")

    m["harness.eval_s"] = (tracer.total("harness.edge_prf") + tracer.total("harness.partition_ari"), "s")
    dis_span = first(tracer.select(dis), None)
    traced_dis = dis_span.duration if dis_span else 0.0
    in_layers = sum(c.duration for c in tracer.children(dis_span)) if dis_span else 0.0
    m["cli.startup_s"] = (startup_s, "s")
    m["cli.overhead_s"] = (disentangle_wall_s - in_layers, "s")
    m["trace.overhead_s"] = (traced_dis + startup_s - disentangle_wall_s, "s")
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (tracer.self_time(layer), "s")
    return m
