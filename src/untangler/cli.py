"""Command-line front end for the disentanglement pipeline.

Commands: stats, train, disentangle, synth, eval, export-intensity,
project.  Option precedence is flags > config file > defaults; the
config file is flat ``key=value`` text whose keys are the long flag
names of OPTIONS with underscores, and OPTIONS checks its values and
the flags' alike.  Exit codes: 0 success, 1 internal error, 2 bad input,
such as a path that cannot be read or written.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import sys
import warnings
from contextlib import contextmanager, suppress
from pathlib import Path
from typing import TYPE_CHECKING

from . import corpus, ingest, score

if TYPE_CHECKING:  # each command imports the modules it runs, so eval runs without numpy
    from . import embedder, harness, temporal


class UserError(Exception):
    """Input or usage problem; maps to exit code 2."""


@contextmanager
def _reading(path: str | Path):
    """A UserError naming `path` for an OSError or a ValueError (bad content)."""
    try:
        yield
    except FileNotFoundError as exc:
        raise UserError(f"no such file: {path}") from exc
    except UnicodeDecodeError as exc:
        raise UserError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from exc
    except OSError as exc:
        raise UserError(f"{path}: {exc.strerror}") from exc
    except ValueError as exc:
        raise UserError(f"{path}: {exc}") from exc


def _read_thread(path: str) -> ingest.Thread:
    with _reading(path), open(path, "r", encoding="utf-8") as fp:
        return ingest.parse_chat_log(fp)


def _load_config_file(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    with _reading(path), open(path, "r", encoding="utf-8") as fp:
        for lineno, line in enumerate(fp, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"line {lineno}: expected key=value")
            key, _, value = line.partition("=")
            key = key.strip()
            if key not in CONFIG_KEYS:
                raise ValueError(f"line {lineno}: unknown key {key!r}")
            if key in values:
                raise ValueError(f"line {lineno}: repeated key {key!r}")
            values[key] = value.strip()
    return values


def _created(path: Path) -> Path:
    """`path`, after making its parent directory."""
    path.parent.mkdir(parents=True, exist_ok=True)
    return path


def _out_path(args: argparse.Namespace, name: str, given: str | None = None) -> Path:
    """`given`, else `name` in --out-dir, once it opens for writing; else a
    UserError naming it, or naming the file that stands where a parent
    directory must go (any other OSError of making the parent names that
    directory).  Each command names its outputs before any work, and
    the probe leaves no trace, so a run that fails later writes nothing:
    it appends nothing, so an existing file is kept, and it removes a new
    file and the directories it made."""
    path = Path(given) if given else Path(args.out_dir or ".") / name
    made = [parent for parent in path.parents if not (parent.is_symlink() or parent.exists())]
    try:
        try:
            _created(path)
        except (FileExistsError, NotADirectoryError) as exc:
            raise UserError(f"{path.parents[len(made)]}: Not a directory") from exc
        existed = path.is_symlink() or path.exists()
        try:
            with open(path, "ab"):
                pass
        except OSError as exc:
            raise UserError(f"{path}: {exc.strerror}") from exc
        if not existed:
            path.unlink()
    finally:
        for directory in made:  # deepest first
            with suppress(OSError):  # one it did not make, or could not
                directory.rmdir()
    return path


def _write_csv(path: Path, header: list[str], rows) -> None:
    """Rows of ints and Python floats; a float is written as its repr."""
    import csv
    with open(_created(path), "w", newline="", encoding="utf-8") as fp:
        writer = csv.writer(fp)
        writer.writerow(header)
        writer.writerows(rows)


def _emit(payload: dict) -> None:
    print(json.dumps(payload, sort_keys=True, allow_nan=False))


def _hawkes_from_args(args, thread: ingest.Thread) -> tuple[temporal.HawkesModel, float | None]:
    """Explicit (mu, alpha, beta) when all three are given, else fit; and the cut's tau:
    --tau, else the median inter-post gap for explicit ones, else None (3/beta of the fit)."""
    import numpy as np
    from . import temporal
    given = [args.mu, args.alpha, args.beta]
    if all(v is not None for v in given):
        tau = temporal.median_gap(thread.timestamps) if args.tau is None else args.tau
        return temporal.HawkesModel(*given), tau
    if any(v is not None for v in given):
        raise UserError("give all of --mu/--alpha/--beta or none (fit); "
                        "the config keys mu/alpha/beta give them too")
    times = np.asarray(thread.timestamps)
    if times.size < 2:
        return temporal.HawkesModel(mu=1.0, alpha=0.0, beta=1.0), args.tau
    events = times - times[0]
    horizon = (float(events[-1]) or 1.0) + 1.0
    try:
        return temporal.fit_multistart(events, horizon), args.tau
    except temporal.TimescaleError as exc:
        raise UserError(f"cannot fit the Hawkes process: {exc}; "
                        "give --mu/--alpha/--beta instead") from exc


@contextmanager
def _finite_intensity(fitted: bool):
    """A UserError for an intensity that overflows: naming the Hawkes
    flags, or, for a `fitted` process, offering them instead."""
    from . import temporal
    try:
        yield
    except temporal.IntensityError as exc:
        if fitted:
            raise UserError(f"cannot use the fitted Hawkes process: {exc}; "
                            "give --mu/--alpha/--beta instead") from exc
        raise UserError(f"--mu/--alpha/--beta: {exc}") from exc


# --------------------------------------------------------------------------
# commands
# --------------------------------------------------------------------------

def cmd_stats(args) -> int:
    thread = _read_thread(args.input)
    _emit(ingest.thread_stats(thread))
    return 0


def cmd_train(args) -> int:
    from . import embedder
    if args.seed >= 2**63:  # the checkpoint header's int64
        raise UserError("--seed must be < 2**63 for train")
    thread = _read_thread(args.input)
    if len(thread) == 0:
        raise UserError("empty corpus: nothing to train on")
    ckpt = _out_path(args, "model.untg", args.checkpoint)
    csv_path = _out_path(args, "loss.csv", args.loss_csv)
    if ckpt.resolve() == csv_path.resolve():
        raise UserError(f"{ckpt} and {csv_path} must be two different files")
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
    try:
        embedder.save_checkpoint(str(_created(ckpt)), config, params, vocab)
    except ValueError as exc:
        raise UserError(f"cannot save the checkpoint: {exc}; lower --lr") from exc
    _write_csv(csv_path, ["epoch", "mean_loss"], enumerate(curve))
    _emit({"checkpoint": str(ckpt), "loss_csv": str(csv_path),
           "first_epoch_loss": curve[0], "final_epoch_loss": curve[-1]})
    return 0


def _load_model(args) -> tuple[embedder.EncoderConfig, embedder.EncoderParams, corpus.Vocab]:
    from . import embedder
    with _reading(args.checkpoint):
        return embedder.load_checkpoint(args.checkpoint)


@contextmanager
def _unreadable_posts(checkpoint: str):
    """embed_thread's UnreadablePostsWarning as one stderr line naming
    the checkpoint; any other warning is shown as it would have been,
    once the recording block has put the usual showwarning back."""
    from . import embedder
    caught = []
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", embedder.UnreadablePostsWarning)
            yield
    finally:
        for w in caught:
            if issubclass(w.category, embedder.UnreadablePostsWarning):
                print(f"warning: {checkpoint}: {w.message}", file=sys.stderr)
            else:
                warnings.showwarning(w.message, w.category, w.filename, w.lineno)


def run_pipeline(thread: ingest.Thread, config: embedder.EncoderConfig,
                 params: embedder.EncoderParams, vocab: corpus.Vocab,
                 model: temporal.HawkesModel, tau, quantile: float):
    """embed -> ranges -> reply forest -> extract."""
    from . import embedder, graph, temporal
    embeddings = embedder.embed_thread(params, thread, vocab, max_len=config.max_len)
    ranges = temporal.detect_ranges(thread, model, tau=tau, quantile=quantile)
    forest = graph.reply_forest(embeddings, ranges)
    conversations = graph.extract_conversations(forest)
    return embeddings, ranges, forest, conversations


def cmd_disentangle(args) -> int:
    from . import graph
    thread = _read_thread(args.input)
    if len(thread) == 0:
        raise UserError("empty thread")
    graph_path, dot_path, conv_path = (
        _out_path(args, "graph.json"), _out_path(args, "graph.dot") if args.dot else None,
        _out_path(args, "conversations.json"))
    config, params, vocab = _load_model(args)
    model, tau = _hawkes_from_args(args, thread)
    with _finite_intensity(args.mu is None), _unreadable_posts(args.checkpoint):
        ranges, forest, conversations = run_pipeline(
            thread, config, params, vocab, model, tau, args.quantile)[1:]
    n_posts = len(thread)
    del thread, params, vocab  # the outputs are formatted without them or the embeddings
    _created(graph_path).write_bytes(graph.export_graph(forest, "json"))
    outputs = {"graph_json": str(graph_path)}
    if dot_path is not None:
        _created(dot_path).write_bytes(graph.export_graph(forest, "dot"))
        outputs["dot"] = str(dot_path)
    conv_payload = {
        "hawkes": vars(model),
        "ranges": [[r.lo, r.hi] for r in ranges],
        "conversations": [
            {"root": c.root, "members": c.members,
             "parents": {str(k): v for k, v in c.parents.items()}}
            for c in conversations
        ],
    }
    conv_text = json.dumps(conv_payload, sort_keys=True) + "\n"
    _created(conv_path).write_text(conv_text, encoding="utf-8")
    outputs["conversations_json"] = str(conv_path)
    _emit({**outputs, "n_posts": n_posts, "n_ranges": len(ranges),
           "n_edges": forest.n_edges, "n_conversations": len(conversations)})
    return 0


def default_synth_config(n_conversations: int = 3, posts_lo: int = 40,
                         posts_hi: int = 60, gap: float = 3600.0,
                         pool_size: int = 10, tokens_lo: int = 3,
                         tokens_hi: int = 8, temperature: float = 200.0,
                         mu: float = 0.1, alpha: float = 0.1,
                         beta: float = 0.01) -> harness.SynthConfig:
    from . import harness, temporal
    return harness.SynthConfig(
        n_conversations=n_conversations, pool_size=pool_size,
        hawkes=temporal.HawkesModel(mu, alpha, beta),
        posts_per_conversation=(posts_lo, posts_hi), gap_seconds=gap,
        tokens_per_post=(tokens_lo, tokens_hi), temperature=temperature)


def cmd_synth(args) -> int:
    from . import harness
    if args.posts_lo > args.posts_hi:
        raise UserError("--posts-lo must be <= --posts-hi")
    if args.tokens_lo > args.tokens_hi:
        raise UserError("--tokens-lo must be <= --tokens-hi")
    if not math.isfinite(args.gap * (args.conversations - 1)):  # the last start time
        raise UserError("--gap times --conversations must be a finite number")
    thread_path = _out_path(args, "thread.jsonl")
    gold_path = _out_path(args, "gold.json")
    config = default_synth_config(
        args.conversations, args.posts_lo, args.posts_hi, args.gap,
        args.pool_size, args.tokens_lo, args.tokens_hi, args.temperature,
        args.mu, args.alpha, args.beta)
    try:
        with _finite_intensity(fitted=False):
            thread, gold = harness.generate(config, seed=args.seed)
    except harness.StarvedProcessError as exc:
        raise UserError(f"cannot generate the thread: {exc}; raise --mu") from exc
    except harness.RecencyOverflowError as exc:
        raise UserError(f"cannot generate the thread: {exc}; lower --temperature") from exc
    _created(thread_path).write_text(ingest.serialize_thread(thread), encoding="utf-8")
    _created(gold_path).write_text(gold.to_json(), encoding="utf-8")
    _emit({"thread": str(thread_path), "gold": str(gold_path),
           "n_posts": len(thread), "n_conversations": config.n_conversations})
    return 0


def cmd_eval(args) -> int:
    with _reading(args.pred):
        n, parent, child, _ = score.read_graph(Path(args.pred).read_bytes())
    with _reading(args.gold):
        gold = score.GoldStandard.from_json(Path(args.gold).read_text(encoding="utf-8"))
    if len(gold.labels) != n or set(gold.labels) != set(range(n)):
        raise UserError("predicted graph and gold standard cover different posts")
    if any(c >= n for c in gold.parents):
        raise UserError(f"gold standard has an edge to a post beyond the graph's {n}")
    try:
        conversations = score.extract_trees(n, parent, child)
    except ValueError as exc:
        raise UserError(f"{args.pred}: {exc}") from exc
    pred_parents = {c: p for conv in conversations for c, p in conv.parents.items()}
    pred_labels = {m: conv.root for conv in conversations for m in conv.members}
    p, r, f1 = score.edge_prf(pred_parents, gold.parents)
    ari = score.partition_ari(pred_labels, gold.labels)
    _emit({"precision": p, "recall": r, "f1": f1, "ari": ari,
           "predicted_conversations": len(conversations),
           "gold_conversations": len(set(gold.labels.values())),
           **score.forest_errors(pred_parents, pred_labels, gold.labels)})
    return 0


def cmd_export_intensity(args) -> int:
    import numpy as np
    from . import temporal
    thread = _read_thread(args.input)
    if len(thread) == 0:
        raise UserError("empty thread")
    csv_path = _out_path(args, "intensity.csv", args.csv)
    model, tau = _hawkes_from_args(args, thread)
    times = np.asarray(thread.timestamps)
    with _finite_intensity(args.mu is None):
        raw, smoothed = temporal.post_intensity(model, times, tau)
    _write_csv(csv_path, ["t", "raw", "smoothed"],
               zip(times.tolist(), raw.tolist(), smoothed.tolist()))
    _emit({"csv": str(csv_path), "n_posts": len(thread),
           "hawkes": vars(model)})
    return 0


def cmd_project(args) -> int:
    from . import embedder, harness
    thread = _read_thread(args.input)
    csv_path = _out_path(args, "projection.csv", args.csv)
    config, params, vocab = _load_model(args)
    with _unreadable_posts(args.checkpoint):
        embeddings = embedder.embed_thread(params, thread, vocab, max_len=config.max_len)
    try:
        coords = harness.project_3d(embeddings)
    except ValueError as exc:
        raise UserError(f"{args.input}: {exc}") from exc
    _write_csv(csv_path, ["post", "x", "y", "z"],
               ([i, *row] for i, row in enumerate(coords.tolist())))
    _emit({"csv": str(csv_path), "n_posts": len(thread)})
    return 0


# --------------------------------------------------------------------------
# argument parsing
# --------------------------------------------------------------------------

def _checked(rule: str, convert, ok=lambda value: True):
    """An argparse type: ``convert(text)`` when that succeeds and passes
    ``ok``, else an error that reads "<flag> <rule>, got <text>"."""
    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            value = None
        if value is None or not ok(value):
            raise argparse.ArgumentTypeError(f"{rule}, got {text!r}")
        return value
    return parse


COUNT = _checked("must be an integer >= 0", int, lambda v: v >= 0)
POSITIVE_INT = _checked("must be an integer >= 1", int, lambda v: v >= 1)
# the widths of the checkpoint header's int32 fields and of synth's int64 draws
COUNT32 = _checked("must be an integer in [0, 2**31)", int, lambda v: 0 <= v < 2**31)
POSITIVE_INT32 = _checked("must be an integer in [1, 2**31)", int, lambda v: 1 <= v < 2**31)
POSITIVE_INT64 = _checked("must be an integer in [1, 2**63)", int, lambda v: 1 <= v < 2**63)
NON_NEGATIVE = _checked("must be a finite number >= 0", float,
                        lambda v: math.isfinite(v) and v >= 0)
POSITIVE = _checked("must be a finite number > 0", float, lambda v: math.isfinite(v) and v > 0)
FRACTION = _checked("must lie in (0, 1)", float, lambda v: 0 < v < 1)
PARADIGM = _checked(f"must be one of {', '.join(corpus.PARADIGMS)}", str,
                    lambda v: v in corpus.PARADIGMS)
BOOL_WORD = _checked("must be one of 1/true/yes/0/false/no", lambda text: {
    "1": True, "true": True, "yes": True, "0": False, "false": False, "no": False,
}.get(text.lower()))


class _Flag(argparse.Action):
    """A flag (nargs=0) that sets True.  Its default may be a config-file
    word, which argparse converts with ``type``, BOOL_WORD."""

    def __call__(self, parser, namespace, values, option_string=None):
        setattr(namespace, self.dest, True)


_HAWKES = ("disentangle", "export-intensity")
_SYNTH = ("synth",)

# Every tunable as (commands, flag, checked type, default).  Its config
# key is the flag's name with underscores; a config value becomes the
# option's string default, which argparse converts with the same type.
OPTIONS = [
    (("train",), "--paradigm", PARADIGM, corpus.BEFORE_ONLY),
    (("train",), "--k", POSITIVE_INT, 3),
    (("train",), "--min-count", POSITIVE_INT, 1),
    (("train",), "--max-len", POSITIVE_INT32, 64),
    (("train",), "--dim", POSITIVE_INT32, 64),
    (("train",), "--hidden", POSITIVE_INT32, 64),
    (("train",), "--lr", NON_NEGATIVE, 0.05),
    (("train",), "--epochs", POSITIVE_INT32, 30),
    (("train",), "--negatives", COUNT32, 5),
    (("train",), "--batch-size", POSITIVE_INT32, 16),
    # explicit Hawkes parameters, all three or none; _hawkes_from_args checks that
    (_HAWKES, "--mu", NON_NEGATIVE, None),
    (_HAWKES, "--alpha", NON_NEGATIVE, None),
    (_HAWKES, "--beta", POSITIVE, None),
    # None: 3/beta of the fit; the median inter-post gap with --mu/--alpha/--beta
    (_HAWKES, "--tau", POSITIVE, None),
    (("disentangle",), "--quantile", FRACTION, 0.25),
    (("disentangle",), "--dot", BOOL_WORD, False),
    (_SYNTH, "--conversations", POSITIVE_INT, 3),
    (_SYNTH, "--posts-lo", POSITIVE_INT, 40),
    (_SYNTH, "--posts-hi", POSITIVE_INT64, 60),
    (_SYNTH, "--gap", NON_NEGATIVE, 3600.0),
    (_SYNTH, "--pool-size", POSITIVE_INT64, 10),
    (_SYNTH, "--tokens-lo", POSITIVE_INT, 3),
    (_SYNTH, "--tokens-hi", POSITIVE_INT64, 8),
    (_SYNTH, "--temperature", NON_NEGATIVE, 200.0),
    (_SYNTH, "--mu", POSITIVE, 0.1),
    (_SYNTH, "--alpha", NON_NEGATIVE, 0.1),
    (_SYNTH, "--beta", POSITIVE, 0.01),
]
# any command's keys, so that one config file can serve every command
CONFIG_KEYS = {flag[2:].replace("-", "_") for _, flag, _, _ in OPTIONS}


def build_parser(config: dict[str, str] | None = None) -> argparse.ArgumentParser:
    """The CLI's parser, with the values of a config file as defaults."""
    parser = argparse.ArgumentParser(prog="untangler", exit_on_error=False,
                                     description="Reply-structure recovery for flat chat threads")
    parser.add_argument("--config", help="flat key=value config file")
    parser.add_argument("--seed", type=COUNT, default=0, help="global RNG seed")
    parser.add_argument("--out-dir", default=None, help="directory for output files")
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {}

    def command(name, func, help):
        commands[name] = p = sub.add_parser(name, help=help, exit_on_error=False)
        p.set_defaults(func=func)
        return p

    p = command("stats", cmd_stats, "summarize a chat log")
    p.add_argument("input")

    p = command("train", cmd_train, "train the post encoder")
    p.add_argument("--input", required=True)
    p.add_argument("--checkpoint")
    p.add_argument("--loss-csv")

    p = command("disentangle", cmd_disentangle, "recover the reply forest of a thread")
    p.add_argument("--input", required=True)
    p.add_argument("--checkpoint", required=True)

    command("synth", cmd_synth, "generate a synthetic thread with gold structure")

    p = command("eval", cmd_eval, "score a predicted graph against gold")
    p.add_argument("--pred", required=True, help="graph.json from disentangle")
    p.add_argument("--gold", required=True, help="gold.json from synth")

    p = command("export-intensity", cmd_export_intensity, "CSV of raw and smoothed intensity")
    p.add_argument("--input", required=True)
    p.add_argument("--csv")

    p = command("project", cmd_project, "3-d PCA projection of post embeddings")
    p.add_argument("--input", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--csv")

    for names, flag, kind, default in OPTIONS:
        default = (config or {}).get(flag[2:].replace("-", "_"), default)
        flag_only = dict(action=_Flag, nargs=0) if kind is BOOL_WORD else {}
        for name in names:
            commands[name].add_argument(flag, type=kind, default=default, **flag_only)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if args.config:  # parse again with the file's values as defaults
            args = build_parser(_load_config_file(args.config)).parse_args(argv)
        return args.func(args)
    except argparse.ArgumentError as exc:  # a bad flag or config value
        print(f"error: {exc.argument_name} {exc.message}", file=sys.stderr)
        return 2
    except SystemExit as exc:  # --help, or a usage error argparse has printed
        return exc.code
    except UserError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        return 1
    except OSError as exc:  # an output that cannot be written
        print(f"error: {exc.filename}: {exc.strerror}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - internal failure path
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


def run() -> int:
    """The process entry point of the console script and ``python -m``:
    main() over sys.argv with BLAS on one thread and the cyclic
    collector off, a flush of stdout, then ``gc.freeze()``.

    main() leaves its output in stdout's buffer when stdout is a pipe, so
    a reader that has gone shows up at the flush; stdout then points at
    os.devnull, so that the interpreter's own flush at exit cannot fail
    again, and the exit code is 1, as in main().

    The collector finds nothing a command makes: after the imports, a
    full collection finds the same cyclic garbage (argparse's parser)
    after every command on every input, so a command's collections are
    pure cost, 0.9 ms (eval) to 4.0 ms (an 8,000-post synth) on 2-core
    x86-64 with Python 3.11.  The freeze stays, since interpreter
    teardown collects even with the collector off: it moves every object
    into the permanent generation, which those full collections skip (a
    process that only imports disentangle's modules: 88.2 ms, 85.9 ms
    with the collector off, 79.5 ms off and frozen).  Nothing the CLI
    makes needs a finalizer at exit: every file is closed by a ``with``
    block or a Path read or write, and stdout has just been flushed.

    BLAS runs on one thread unless the environment says otherwise:
    OMP_NUM_THREADS=1 is set, if unset, before a command imports numpy
    (this module does not); OPENBLAS_NUM_THREADS or MKL_NUM_THREADS,
    when given, still win.  Every GEMM of the encoder is small (at most
    1,024 x 64 x 256), and OpenBLAS's workers spin while they wait: a
    default oracle-180 ``train`` took 2.08 s wall and 4.05 s CPU with two
    threads on 2-core x86-64 (OpenBLAS 0.3.31), 2.01 s and 2.00 s on
    one, and with another process busy on a core a 5-epoch ``train``
    took 1.00 s against 0.43 s.  The thread count changes no output bit."""
    os.environ.setdefault("OMP_NUM_THREADS", "1")
    gc.disable()
    code = main()
    try:
        sys.stdout.flush()
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        code = 1
    gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(run())
