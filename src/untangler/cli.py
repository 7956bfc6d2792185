"""Command-line front end for the disentanglement pipeline.

Commands: stats, train, disentangle, synth, eval, export-intensity,
project.  Option precedence is flags > config file > defaults; the
config file is flat ``key=value`` text using the long flag names with
underscores.  Exit codes: 0 success, 1 internal error, 2 bad input.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

import numpy as np

from . import corpus, embedder, graph as graphmod, harness, ingest, temporal


class UserError(Exception):
    """Input or usage problem; maps to exit code 2."""


def _read_thread(path: str, keep_empty: bool = False) -> ingest.Thread:
    try:
        with open(path, "r", encoding="utf-8") as fp:
            return ingest.parse_chat_log(
                fp, ingest.ParseOptions(keep_empty=keep_empty), name=Path(path).stem)
    except FileNotFoundError as exc:
        raise UserError(f"no such file: {path}") from exc
    except ingest.ChatLogError as exc:
        raise UserError(f"{path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise UserError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from exc


def _load_config_file(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    try:
        with open(path, "r", encoding="utf-8") as fp:
            for lineno, line in enumerate(fp, start=1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise UserError(f"{path}: line {lineno}: expected key=value")
                key, _, value = line.partition("=")
                values[key.strip()] = value.strip()
    except FileNotFoundError as exc:
        raise UserError(f"no such config file: {path}") from exc
    return values


def _coerce(value: str):
    lowered = value.lower()
    if lowered in ("true", "yes"):
        return True
    if lowered in ("false", "no"):
        return False
    for caster in (int, float):
        try:
            return caster(value)
        except ValueError:
            pass
    return value


def _resolve(args: argparse.Namespace, defaults: dict) -> argparse.Namespace:
    """Apply flags > config file > defaults."""
    file_values = _load_config_file(args.config) if getattr(args, "config", None) else {}
    for key, default in defaults.items():
        if getattr(args, key, None) is not None:
            continue
        if key in file_values:
            if isinstance(default, bool):
                setattr(args, key, file_values[key].lower() in ("1", "true", "yes"))
            elif default is None:
                setattr(args, key, _coerce(file_values[key]))
            else:
                setattr(args, key, type(default)(file_values[key]))
        else:
            setattr(args, key, default)
    return args


def _out_path(args: argparse.Namespace, name: str) -> Path:
    out_dir = Path(args.out_dir or ".")
    out_dir.mkdir(parents=True, exist_ok=True)
    return out_dir / name


def _emit(payload: dict) -> None:
    print(json.dumps(payload, sort_keys=True))


def _hawkes_from_args(args, thread: ingest.Thread) -> temporal.HawkesModel:
    """Explicit (mu, alpha, beta) when all three are given, else fit."""
    given = [args.mu, args.alpha, args.beta]
    if all(v is not None for v in given):
        return temporal.HawkesModel(args.mu, args.alpha, args.beta)
    if any(v is not None for v in given):
        raise UserError("give all of --mu/--alpha/--beta or none (fit)")
    times = np.asarray(thread.timestamps)
    if times.size < 2:
        return temporal.HawkesModel(mu=1.0, alpha=0.0, beta=1.0)
    origin = times[0]
    events = times - origin
    horizon = (float(events[-1]) or 1.0) + 1.0
    return temporal.fit_multistart(events, horizon, steps=args.fit_steps,
                                   step_size=args.fit_step_size)


# --------------------------------------------------------------------------
# commands
# --------------------------------------------------------------------------

def cmd_stats(args) -> int:
    thread = _read_thread(args.input, keep_empty=args.keep_empty)
    _emit(ingest.thread_stats(thread).to_dict())
    return 0


_TRAIN_DEFAULTS = dict(
    paradigm=corpus.BEFORE_ONLY, k=3, min_count=1, max_len=64,
    dim=64, hidden=64, lr=0.05, epochs=30, negatives=5, batch_size=16,
    keep_empty=False,
)


def cmd_train(args) -> int:
    args = _resolve(args, _TRAIN_DEFAULTS)
    thread = _read_thread(args.input, keep_empty=args.keep_empty)
    if len(thread) == 0:
        raise UserError("empty corpus: nothing to train on")
    vocab = corpus.build_vocab([thread], min_count=args.min_count)
    windows = corpus.build_windows(thread, args.paradigm, args.k)
    config = embedder.EncoderConfig(
        vocab_size=len(vocab), embed_dim=args.dim, hidden_dim=args.hidden,
        max_len=args.max_len, seed=args.seed, learning_rate=args.lr,
        epochs=args.epochs, negatives_per_sample=args.negatives,
        batch_size=args.batch_size)
    try:
        params, curve = embedder.train([thread], vocab, [windows], config)
    except ValueError as exc:
        raise UserError(str(exc)) from exc
    ckpt = Path(args.checkpoint) if args.checkpoint else _out_path(args, "model.untg")
    ckpt.parent.mkdir(parents=True, exist_ok=True)
    embedder.save_checkpoint(str(ckpt), config, params)
    vocab_path = ckpt.with_suffix(".vocab")
    with open(vocab_path, "w", encoding="utf-8") as fp:
        corpus.save_vocab(vocab, fp)
    csv_path = Path(args.loss_csv) if args.loss_csv else _out_path(args, "loss.csv")
    with open(csv_path, "w", newline="", encoding="utf-8") as fp:
        writer = csv.writer(fp)
        writer.writerow(["epoch", "mean_loss"])
        for epoch, loss in enumerate(curve):
            writer.writerow([epoch, repr(loss)])
    _emit({"checkpoint": str(ckpt), "vocab": str(vocab_path),
           "loss_csv": str(csv_path),
           "first_epoch_loss": curve[0], "final_epoch_loss": curve[-1]})
    return 0


_DISENTANGLE_DEFAULTS = dict(
    tau=None, quantile=0.25, fit_steps=200, fit_step_size=0.1,
    mu=None, alpha=None, beta=None, keep_empty=False, dot=False,
)


def _load_model(args) -> tuple[embedder.EncoderConfig, embedder.EncoderParams, corpus.Vocab]:
    ckpt = Path(args.checkpoint)
    if not ckpt.exists():
        raise UserError(f"no such checkpoint: {ckpt}")
    try:
        config, params = embedder.load_checkpoint(str(ckpt))
    except ValueError as exc:
        raise UserError(f"{ckpt}: {exc}") from exc
    vocab_path = ckpt.with_suffix(".vocab")
    if not vocab_path.exists():
        raise UserError(f"missing vocabulary file: {vocab_path}")
    try:
        with open(vocab_path, "r", encoding="utf-8") as fp:
            vocab = corpus.load_vocab(fp)
    except ValueError as exc:
        raise UserError(f"{vocab_path}: {exc}") from exc
    if len(vocab) != config.vocab_size:
        raise UserError(f"{vocab_path}: {len(vocab)} tokens, but the checkpoint "
                        f"was trained on {config.vocab_size}")
    return config, params, vocab


def run_pipeline(thread: ingest.Thread, config: embedder.EncoderConfig,
                 params: embedder.EncoderParams, vocab: corpus.Vocab,
                 model: temporal.HawkesModel, tau, quantile: float):
    """embed -> ranges -> reply forest -> extract."""
    embeddings = embedder.embed_thread(params, thread, vocab, max_len=config.max_len)
    ranges = temporal.detect_ranges(thread, model, tau=tau, quantile=quantile)
    forest = graphmod.reply_forest(embeddings, ranges)
    conversations = graphmod.extract_conversations(forest)
    return embeddings, ranges, forest, conversations


def cmd_disentangle(args) -> int:
    args = _resolve(args, _DISENTANGLE_DEFAULTS)
    thread = _read_thread(args.input, keep_empty=args.keep_empty)
    if len(thread) == 0:
        raise UserError("empty thread")
    config, params, vocab = _load_model(args)
    model = _hawkes_from_args(args, thread)
    _, ranges, forest, conversations = run_pipeline(
        thread, config, params, vocab, model, args.tau, args.quantile)
    graph_path = _out_path(args, "graph.json")
    graph_path.write_bytes(graphmod.export_graph(forest, "json"))
    outputs = {"graph_json": str(graph_path)}
    if args.dot:
        dot_path = _out_path(args, "graph.dot")
        dot_path.write_bytes(graphmod.export_graph(forest, "dot"))
        outputs["dot"] = str(dot_path)
    conv_path = _out_path(args, "conversations.json")
    conv_payload = {
        "hawkes": {"mu": model.mu, "alpha": model.alpha, "beta": model.beta},
        "ranges": [[r.lo, r.hi] for r in ranges],
        "conversations": [
            {"root": c.root, "members": c.members,
             "parents": {str(k): v for k, v in sorted(c.parents.items())}}
            for c in conversations
        ],
    }
    conv_path.write_text(json.dumps(conv_payload, sort_keys=True) + "\n", encoding="utf-8")
    outputs["conversations_json"] = str(conv_path)
    _emit({**outputs, "n_posts": len(thread), "n_ranges": len(ranges),
           "n_edges": forest.n_edges, "n_conversations": len(conversations)})
    return 0


_SYNTH_DEFAULTS = dict(
    conversations=3, posts_lo=40, posts_hi=60, gap=3600.0, pool_size=10,
    tokens_lo=3, tokens_hi=8, temperature=200.0, mu=0.1, alpha=0.1, beta=0.01,
)


def default_synth_config(n_conversations: int = 3, posts_lo: int = 40,
                         posts_hi: int = 60, gap: float = 3600.0,
                         pool_size: int = 10, tokens_lo: int = 3,
                         tokens_hi: int = 8, temperature: float = 200.0,
                         mu: float = 0.1, alpha: float = 0.1,
                         beta: float = 0.01) -> harness.SynthConfig:
    pools = [
        [f"t{c}w{i}" for i in range(pool_size)] for c in range(n_conversations)
    ]
    models = [temporal.HawkesModel(mu, alpha, beta) for _ in range(n_conversations)]
    return harness.SynthConfig(
        topic_pools=pools, hawkes=models,
        posts_per_conversation=(posts_lo, posts_hi), gap_seconds=gap,
        tokens_per_post=(tokens_lo, tokens_hi), temperature=temperature)


def cmd_synth(args) -> int:
    args = _resolve(args, _SYNTH_DEFAULTS)
    config = default_synth_config(
        args.conversations, args.posts_lo, args.posts_hi, args.gap,
        args.pool_size, args.tokens_lo, args.tokens_hi, args.temperature,
        args.mu, args.alpha, args.beta)
    thread, gold = harness.generate(config, seed=args.seed)
    thread_path = _out_path(args, "thread.jsonl")
    thread_path.write_text(ingest.serialize_thread(thread), encoding="utf-8")
    gold_path = _out_path(args, "gold.json")
    gold_path.write_text(gold.to_json(), encoding="utf-8")
    _emit({"thread": str(thread_path), "gold": str(gold_path),
           "n_posts": len(thread), "n_conversations": config.n_conversations})
    return 0


def cmd_eval(args) -> int:
    try:
        pred_graph = graphmod.parse_graph_json(Path(args.pred).read_bytes())
    except (OSError, ValueError, KeyError, OverflowError) as exc:
        raise UserError(f"cannot read predicted graph {args.pred}: {exc}") from exc
    try:
        gold = harness.GoldStandard.from_json(Path(args.gold).read_text(encoding="utf-8"))
    except (OSError, ValueError, KeyError) as exc:
        raise UserError(f"cannot read gold standard {args.gold}: {exc}") from exc
    n = pred_graph.n
    if len(gold.labels) != n or set(gold.labels) != set(range(n)):
        raise UserError("predicted graph and gold standard cover different posts")
    if any(child >= n for child in gold.parents):
        raise UserError(f"gold standard has an edge to a post beyond the graph's {n}")
    try:
        conversations = graphmod.extract_conversations(pred_graph)
    except ValueError as exc:
        raise UserError(str(exc)) from exc
    pred_parents = {c: p for conv in conversations for c, p in conv.parents.items()}
    pred_labels: dict[int, int] = {}
    for conv in conversations:
        for m in conv.members:
            pred_labels[m] = conv.root
    p, r, f1 = harness.edge_prf(pred_parents, gold.parents)
    ari = harness.partition_ari(pred_labels, gold.labels)
    report = harness.EvalReport(
        precision=p, recall=r, f1=f1, ari=ari,
        predicted_conversations=len(conversations),
        gold_conversations=len(set(gold.labels.values())))
    _emit(report.to_dict())
    return 0


def cmd_export_intensity(args) -> int:
    args = _resolve(args, _DISENTANGLE_DEFAULTS)
    thread = _read_thread(args.input, keep_empty=args.keep_empty)
    if len(thread) == 0:
        raise UserError("empty thread")
    model = _hawkes_from_args(args, thread)
    times = np.asarray(thread.timestamps)
    tau = args.tau if args.tau is not None else temporal.median_gap(times)
    series = temporal.smooth(temporal.sample_intensity(model, times, times), tau)
    csv_path = Path(args.csv) if args.csv else _out_path(args, "intensity.csv")
    with open(csv_path, "w", newline="", encoding="utf-8") as fp:
        writer = csv.writer(fp)
        writer.writerow(["t", "raw", "smoothed"])
        for t, raw, sm in zip(series.grid, series.raw, series.smoothed):
            writer.writerow([repr(float(t)), repr(float(raw)), repr(float(sm))])
    _emit({"csv": str(csv_path), "n_posts": len(thread),
           "hawkes": {"mu": model.mu, "alpha": model.alpha, "beta": model.beta}})
    return 0


def cmd_project(args) -> int:
    thread = _read_thread(args.input)
    config, params, vocab = _load_model(args)
    embeddings = embedder.embed_thread(params, thread, vocab, max_len=config.max_len)
    try:
        coords = harness.project_3d(embeddings)
    except ValueError as exc:
        raise UserError(str(exc)) from exc
    csv_path = Path(args.csv) if args.csv else _out_path(args, "projection.csv")
    with open(csv_path, "w", newline="", encoding="utf-8") as fp:
        writer = csv.writer(fp)
        writer.writerow(["post", "x", "y", "z"])
        for i, row in enumerate(coords):
            writer.writerow([i] + [repr(float(v)) for v in row])
    _emit({"csv": str(csv_path), "n_posts": len(thread)})
    return 0


# --------------------------------------------------------------------------
# argument parsing
# --------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="untangler",
                                     description="Reply-structure recovery for flat chat threads")
    parser.add_argument("--config", help="flat key=value config file")
    parser.add_argument("--seed", type=int, default=0, help="global RNG seed")
    parser.add_argument("--out-dir", default=None, help="directory for output files")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("stats", help="summarize a chat log")
    p.add_argument("input")
    p.add_argument("--keep-empty", action="store_true")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("train", help="train the post encoder")
    p.add_argument("--input", required=True)
    p.add_argument("--checkpoint")
    p.add_argument("--loss-csv")
    p.add_argument("--paradigm", choices=corpus.PARADIGMS)
    p.add_argument("--k", type=int)
    p.add_argument("--min-count", type=int)
    p.add_argument("--max-len", type=int)
    p.add_argument("--dim", type=int)
    p.add_argument("--hidden", type=int)
    p.add_argument("--lr", type=float)
    p.add_argument("--epochs", type=int)
    p.add_argument("--negatives", type=int)
    p.add_argument("--batch-size", type=int)
    p.add_argument("--keep-empty", action="store_const", const=True, default=None)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("disentangle", help="recover the reply forest of a thread")
    p.add_argument("--input", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--mu", type=float)
    p.add_argument("--alpha", type=float)
    p.add_argument("--beta", type=float)
    p.add_argument("--tau", type=float)
    p.add_argument("--quantile", type=float)
    p.add_argument("--fit-steps", type=int)
    p.add_argument("--fit-step-size", type=float)
    p.add_argument("--dot", action="store_const", const=True, default=None,
                   help="also write a Graphviz DOT file")
    p.add_argument("--keep-empty", action="store_const", const=True, default=None)
    p.set_defaults(func=cmd_disentangle)

    p = sub.add_parser("synth", help="generate a synthetic thread with gold structure")
    p.add_argument("--conversations", type=int)
    p.add_argument("--posts-lo", type=int)
    p.add_argument("--posts-hi", type=int)
    p.add_argument("--gap", type=float)
    p.add_argument("--pool-size", type=int)
    p.add_argument("--tokens-lo", type=int)
    p.add_argument("--tokens-hi", type=int)
    p.add_argument("--temperature", type=float)
    p.add_argument("--mu", type=float)
    p.add_argument("--alpha", type=float)
    p.add_argument("--beta", type=float)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("eval", help="score a predicted graph against gold")
    p.add_argument("--pred", required=True, help="graph.json from disentangle")
    p.add_argument("--gold", required=True, help="gold.json from synth")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("export-intensity", help="CSV of raw and smoothed intensity")
    p.add_argument("--input", required=True)
    p.add_argument("--csv")
    p.add_argument("--mu", type=float)
    p.add_argument("--alpha", type=float)
    p.add_argument("--beta", type=float)
    p.add_argument("--tau", type=float)
    p.add_argument("--fit-steps", type=int)
    p.add_argument("--fit-step-size", type=float)
    p.add_argument("--keep-empty", action="store_const", const=True, default=None)
    p.set_defaults(func=cmd_export_intensity)

    p = sub.add_parser("project", help="3-d PCA projection of post embeddings")
    p.add_argument("--input", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--csv")
    p.set_defaults(func=cmd_project)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UserError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        return 1
    except Exception as exc:  # pragma: no cover - internal failure path
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
