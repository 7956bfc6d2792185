"""Benchmark of the untangler CLI on synthetic threads with gold structure.

    python3 perfbench/run.py --workload oracle-180 --seed 1 --seconds 10 --trace 0

Run it from the root of a checkout; the package is imported from `src/`.
Each run synthesises its threads from `--seed`, then times the real CLI
(`train`, `disentangle`, `eval`) as child processes, one at a time: a
closed loop with a single caller.  `--seconds` is how long the
disentangle/eval loop runs after set-up and training.  Every output is checked.  With
`--trace 1` it instead runs the workload once through the CLI and once
in-process with spans around each module's public functions, and reports
per-layer metrics.  A summary goes to stdout; the last stdout line is one
JSON object with the keys correct, attempted, failed and metrics.  Files
go to `.bench_runs/` under the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUNS_DIR = ROOT / ".bench_runs"
TIME_LIMIT_S = 170.0  # a run must end within 180 s
STARTUP_PROBES = 3

from children import Call, run_cli  # noqa: E402
from workloads import WORKLOADS, Workload, instance_seed  # noqa: E402
import checks  # noqa: E402


@dataclass
class Instance:
    seed: int
    dir: Path
    n_posts: int
    thread: Path
    gold: Path
    train_input: Path
    checkpoint: Path
    digests: dict = field(default_factory=dict)   # file name -> sha256
    quality: Optional[dict] = None                # first eval payload

    @property
    def out(self) -> Path:
        return self.dir / "out"


class Runner:
    """Runs CLI children against a shared deadline and keeps every call."""

    def __init__(self, run_dir: Path, deadline: float):
        self.run_dir = run_dir
        self.deadline = deadline
        self.calls: list[Call] = []

    def cli(self, command: str, argv: list[str]) -> Call:
        log_dir = self.run_dir / "calls" / f"{len(self.calls):03d}-{command}"
        call = run_cli(command, argv, SRC, log_dir,
                       timeout_s=self.deadline - time.perf_counter())
        self.calls.append(call)
        return call

    def left(self) -> float:
        return self.deadline - time.perf_counter()


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


# ----------------------------------------------------------------- commands

def train_argv(inst: Instance, w: Workload, out_dir: Path, checkpoint: Path) -> list[str]:
    return ["--out-dir", str(out_dir), "train", "--input", str(inst.train_input),
            "--checkpoint", str(checkpoint), *w.train_flags]


def disentangle_argv(inst: Instance, w: Workload, out_dir: Path, checkpoint: Path) -> list[str]:
    return ["--out-dir", str(out_dir), "disentangle", "--input", str(inst.thread),
            "--checkpoint", str(checkpoint), *w.disentangle_flags]


def eval_argv(inst: Instance, out_dir: Path) -> list[str]:
    return ["eval", "--pred", str(out_dir / "graph.json"), "--gold", str(inst.gold)]


# ------------------------------------------------------------------- set-up

class SetupFailed(Exception):
    pass


def set_up(w: Workload, seed: int, inst_dir: Path, runner: Runner) -> Instance:
    """Synthesise the thread and gold structure with `untangler synth` and,
    for a workload that trains in set-up, train its checkpoint."""
    call = runner.cli("synth", ["--seed", str(seed), "--out-dir", str(inst_dir),
                                "synth", *w.synth_flags])
    payload, problems = checks.stdout_payload(call.stdout) if call.ok else ({}, [])
    call.problems += problems
    inst = Instance(seed=seed, dir=inst_dir, n_posts=payload.get("n_posts", -1),
                    thread=inst_dir / "thread.jsonl", gold=inst_dir / "gold.json",
                    train_input=inst_dir / "thread.jsonl",
                    checkpoint=inst_dir / "model.untg")
    if call.ok:
        lines = inst.thread.read_text(encoding="utf-8").splitlines(keepends=True)
        if len(lines) != inst.n_posts:
            call.problems.append(f"thread.jsonl has {len(lines)} posts, synth reports {inst.n_posts}")
    if not call.ok:
        raise SetupFailed(f"synth failed: {call.problems}")
    if w.train_posts is not None:
        stride = max(1, len(lines) // w.train_posts)
        inst.train_input = inst_dir / "train.jsonl"
        inst.train_input.write_text("".join(lines[::stride][:w.train_posts]), encoding="utf-8")
        checks.check_train(runner.cli("train", train_argv(inst, w, inst_dir, inst.checkpoint)),
                           inst.checkpoint)
    return inst


def disentangle_and_eval(inst: Instance, w: Workload, runner: Runner) -> tuple[Call, Call]:
    dis = runner.cli("disentangle", disentangle_argv(inst, w, inst.out, inst.checkpoint))
    checks.check_disentangle(dis, inst.out, inst.n_posts)
    if dis.ok:
        digests = {name: _sha256(inst.out / name) for name in ("graph.json", "conversations.json")}
        if inst.digests and digests != inst.digests:
            dis.problems.append("output differs from an earlier disentangle of the same thread")
        inst.digests = inst.digests or digests
    ev = runner.cli("eval", eval_argv(inst, inst.out))
    quality = checks.check_eval(ev)
    if quality and inst.quality is None:
        inst.quality = quality
    return dis, ev


# -------------------------------------------------------------------- runs

def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def _fastest(calls: list[Call]) -> float:
    return min((c.wall_s for c in calls), default=0.0)


def timed_run(w: Workload, seed: int, seconds: float, runner: Runner) -> tuple[dict, list[Instance], list]:
    """End-to-end metrics, tracing off."""
    instances, setup_times = [], []
    for i in range(w.setups):
        start = time.perf_counter()
        instances.append(set_up(w, instance_seed(seed, i), runner.run_dir / f"instance{i}", runner))
        setup_times.append(time.perf_counter() - start)

    pool = instances[:w.disentangled]
    dis_calls, eval_calls = [], []

    def loop(threads: list[Instance]) -> None:
        """Disentangle and eval for `seconds`, each thread at least once."""
        start = time.perf_counter()
        i = 0
        while True:
            started = time.perf_counter()
            dis, ev = disentangle_and_eval(threads[i % len(threads)], w, runner)
            dis_calls.append(dis)
            eval_calls.append(ev)
            i += 1
            if not (dis.ok and ev.ok) or runner.left() < 2 * (time.perf_counter() - started) + 5:
                return
            if i >= len(threads) and time.perf_counter() - start >= seconds:
                return

    if w.train_posts is None:
        # A loop after each training spreads the disentangle calls through
        # the run.
        for n, inst in enumerate(pool, start=1):
            checks.check_train(runner.cli("train", train_argv(inst, w, inst.dir, inst.checkpoint)),
                               inst.checkpoint)
            loop(pool[:n])
    else:
        loop(pool)

    # Other tenants of a shared host only ever slow a process down, in
    # episodes of seconds to minutes, so each command's fastest call in the
    # run is its steadiest time.
    trains = [c for c in runner.calls if c.command == "train"]
    train_s = _fastest(trains)
    disentangle_s = _fastest(dis_calls)
    eval_s = _fastest(eval_calls)
    scored = [inst.quality for inst in pool if inst.quality]
    metrics = {
        "setup_s": (_median(setup_times), "s"),
        "disentangle_s": (disentangle_s, "s"),
        "pipeline_s": (train_s + disentangle_s + eval_s, "s"),
        "peak_rss_mb": (_median([c.maxrss_mb for c in dis_calls]), "MB"),
        "train_peak_rss_mb": (_median([c.maxrss_mb for c in trains]), "MB"),
        "ari": (statistics.fmean(q["ari"] for q in scored) if scored else 0.0, "ARI"),
        "edge_f1": (statistics.fmean(q["f1"] for q in scored) if scored else 0.0, "F1"),
    }
    return metrics, pool, []


def traced_run(w: Workload, seed: int, runner: Runner) -> tuple[dict, list[Instance], list]:
    """Per-layer metrics: the workload once through the CLI, then once
    in-process with spans, whose outputs must match the CLI's byte for byte."""
    import traced

    inst = set_up(w, instance_seed(seed, 0), runner.run_dir / "instance0", runner)
    if w.train_posts is None:
        checks.check_train(runner.cli("train", train_argv(inst, w, inst.dir, inst.checkpoint)),
                           inst.checkpoint)
    dis, _ = disentangle_and_eval(inst, w, runner)
    startup = _fastest([runner.cli("help", ["--help"]) for _ in range(STARTUP_PROBES)])

    trace_dir = inst.dir / "traced"
    trace_ckpt = trace_dir / "model.untg"
    commands = [("train", train_argv(inst, w, trace_dir, trace_ckpt)),
                ("disentangle", disentangle_argv(inst, w, trace_dir / "out", trace_ckpt)),
                ("eval", eval_argv(inst, trace_dir / "out"))]
    tracer, results = traced.run_commands(commands, run_id=f"{w.name}/seed{seed}")
    (runner.run_dir / "spans.json").write_text(json.dumps(tracer.records(), indent=1) + "\n",
                                               encoding="utf-8")

    pass_calls = [Call(command=f"traced-{name}", argv=argv, wall_s=wall, maxrss_mb=0.0,
                       returncode=code, stdout=stdout, stderr="",
                       problems=[] if code == 0 else [f"exit code {code}"])
                  for (name, argv), (code, stdout, wall) in zip(commands, results)]
    t_train, t_dis, t_eval = pass_calls
    checks.check_train(t_train, trace_ckpt)
    checks.check_disentangle(t_dis, trace_dir / "out", inst.n_posts)
    checks.check_eval(t_eval)
    pairs = [(t_train, inst.checkpoint, trace_ckpt)] + [
        (t_dis, inst.out / name, trace_dir / "out" / name)
        for name in ("graph.json", "conversations.json")]
    for call, cli_file, trace_file in pairs:
        if call.ok and cli_file.read_bytes() != trace_file.read_bytes():
            call.problems.append(f"traced {trace_file.name} differs from the CLI's")

    hawkes = {"mu": 1.0, "alpha": 0.0, "beta": 1.0}
    if dis.ok:
        hawkes = json.loads((inst.out / "conversations.json").read_text(encoding="utf-8"))["hawkes"]
    metrics = traced.layer_metrics(tracer, hawkes, dis.wall_s, startup)
    return metrics, [inst], pass_calls


# ------------------------------------------------------------------- report

def environment() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = "unavailable"
    thread_vars = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "blas": blas, "thread_env": {k: os.environ[k] for k in thread_vars if k in os.environ}}


def result_line(metrics: dict, calls: list[Call]) -> dict:
    failed = sum(not c.ok for c in calls)
    return {"correct": failed == 0 and bool(calls), "attempted": max(len(calls), 1),
            "failed": failed if calls else 1,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()}}


def run(workload: str, seed: int, seconds: float, trace: bool,
        runs_dir: Path = RUNS_DIR) -> tuple[dict, Path]:
    """One benchmark run: the record (result line included) and its path."""
    w = WORKLOADS[workload]
    run_dir = runs_dir / w.name / f"seed{seed}-trace{int(trace)}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    runner = Runner(run_dir, deadline=time.perf_counter() + TIME_LIMIT_S)
    try:
        if trace:
            metrics, instances, extra = traced_run(w, seed, runner)
        else:
            metrics, instances, extra = timed_run(w, seed, seconds, runner)
    except SetupFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        metrics, instances, extra = {}, [], []
    calls = runner.calls + extra
    result = result_line(metrics, calls)
    record = {"workload": w.name, "seed": seed, "seconds": seconds, "trace": trace,
              "environment": environment(), "result": result,
              "digests": {str(inst.seed): inst.digests for inst in instances},
              "quality": {str(inst.seed): inst.quality for inst in instances},
              "calls": [c.record() for c in calls]}
    record_path = run_dir / "record.json"
    record_path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return record, record_path


def summary(record: dict, record_path: Path) -> str:
    result = record["result"]
    lines = [f"{name:32s} {m['value']:>16.6g} {m['unit']}"
             for name, m in result["metrics"].items()]
    for command in dict.fromkeys(c["command"] for c in record["calls"]):
        fastest = min(c["wall_s"] for c in record["calls"] if c["command"] == command)
        lines.append(f"{'fastest ' + command:32s} {fastest:>16.6g} s")
    rate = result["failed"] / result["attempted"]
    lines.append(f"{'fail_rate':32s} {rate:>16.6g} ratio "
                 f"({result['failed']} of {result['attempted']} calls)")
    lines.append(f"record: {record_path}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "untangler" / "cli.py").is_file():
        print(f"error: no untangler package under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    record, record_path = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(summary(record, record_path.relative_to(ROOT)))
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
