"""The benchmark's workloads.

Each workload names a synthetic thread (the flags of `untangler synth`,
which draws it with ``harness.generate(cli.default_synth_config(...), seed)``)
and the flags of the CLI commands it times.
Why each workload exists is recorded in ``BENCHMARK.json``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

# Small checkpoint of the criterion-8 scale check: enough to embed a large
# thread, cheap enough to train inside set-up.
SMALL_CHECKPOINT = ("--dim", "8", "--hidden", "8", "--epochs", "2",
                    "--k", "2", "--batch-size", "8")


@dataclass(frozen=True)
class Workload:
    name: str
    synth_flags: tuple[str, ...]   # flags of `untangler synth`
    train_flags: tuple[str, ...]
    # None: the timed phase runs `train` on the whole thread.  Otherwise
    # set-up trains on an evenly strided subsample of this many posts, so
    # every conversation's vocabulary is present.
    train_posts: Optional[int]
    disentangle_flags: tuple[str, ...]
    # Set-up runs `setups` times, each on its own thread: thread i of seed
    # s comes from generator seed s + INSTANCE_STRIDE * i.  The timed phase
    # disentangles (and, when train_posts is None, trains) the first
    # `disentangled` of them.
    setups: int
    disentangled: int


INSTANCE_STRIDE = 1_000_000

WORKLOADS = {
    w.name: w for w in (
        Workload("oracle-180",
                 synth_flags=("--conversations", "3", "--posts-lo", "60", "--posts-hi", "60"),
                 train_flags=(), train_posts=None, disentangle_flags=(),
                 setups=3, disentangled=2),
        Workload("interleaved-8k",
                 synth_flags=("--conversations", "40", "--posts-lo", "200", "--posts-hi", "200",
                              "--gap", "10"),
                 train_flags=SMALL_CHECKPOINT, train_posts=200,
                 disentangle_flags=("--mu", "0.1", "--alpha", "0.1", "--beta", "0.01"),
                 setups=3, disentangled=3),
    )
}


def instance_seed(seed: int, index: int) -> int:
    return seed + INSTANCE_STRIDE * index
