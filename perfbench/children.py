"""Run one `untangler` CLI command as a child process and measure it.

Peak RSS comes from ``os.wait4`` on the child's own pid:
``RUSAGE_CHILDREN`` keeps the maximum over every child reaped so far, so
it would blend an earlier `train` into a later `disentangle`.  Linux
starts a child's peak at the RSS of the process that spawned it, so the
benchmark spawns its children before it imports numpy or the package.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path


@dataclass
class Call:
    command: str
    argv: list[str]
    wall_s: float
    maxrss_mb: float
    returncode: int
    stdout: str
    stderr: str
    problems: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.returncode == 0 and not self.problems

    def record(self) -> dict:
        return {"command": self.command, "argv": self.argv, "wall_s": self.wall_s,
                "maxrss_mb": self.maxrss_mb, "returncode": self.returncode,
                "problems": self.problems, "stderr_tail": self.stderr[-2000:]}


def _kill(pid: int) -> None:
    try:
        os.kill(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def child_env(src_dir: Path) -> dict[str, str]:
    """The caller's environment with `src_dir` first on PYTHONPATH.

    Thread settings (OMP_NUM_THREADS and the like) are passed through
    untouched.
    """
    env = dict(os.environ)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(src_dir) + (os.pathsep + old if old else "")
    return env


def run_cli(command: str, argv: list[str], src_dir: Path, log_dir: Path,
            timeout_s: float) -> Call:
    """Run `python -m untangler.cli <argv>`, whose subcommand is `command`.

    Wall time runs from just before the spawn to the reap.  A child still
    running after `timeout_s` is killed and reported with a problem.
    """
    log_dir.mkdir(parents=True, exist_ok=True)
    out_path = log_dir / "stdout.txt"
    err_path = log_dir / "stderr.txt"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "untangler.cli", *argv],
                                stdout=out, stderr=err, env=child_env(src_dir))
        # os.kill, not proc.kill: Popen.kill polls, which could reap the
        # child before wait4 reads its usage.
        killer = threading.Timer(max(timeout_s, 0.0), _kill, (proc.pid,))
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    call = Call(command=command, argv=argv, wall_s=wall,
                maxrss_mb=usage.ru_maxrss / 1024.0, returncode=proc.returncode,
                stdout=out_path.read_text(encoding="utf-8", errors="replace"),
                stderr=err_path.read_text(encoding="utf-8", errors="replace"))
    if proc.returncode != 0:
        reason = "killed after timeout" if proc.returncode < 0 else "exit code"
        call.problems.append(f"{reason} {proc.returncode}")
    return call
