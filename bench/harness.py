"""Running and timing ops from outside the program: CLI children reaped with
``wait4`` for their peak RSS, in-process calls under a wall-clock alarm,
op records, latency statistics and in-memory spans."""

from __future__ import annotations

import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

# children must hit the interpreter's default int-string limit, so settings
# that lift it are never passed on
_SCRUBBED_ENV = ("PYTHONINTMAXSTRDIGITS",)


def child_env(src: str) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in _SCRUBBED_ENV}
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


@dataclass
class Op:
    """Outcome of one timed request."""

    kind: str  # CLI subcommand, or the in-process op name
    wall_s: float
    exit_code: int  # 0 on success; CLI exit code, or 3/1/124 for in-process refusals
    error: str = ""  # error class parsed from stderr or caught in process
    rss_mb: float = 0.0
    timed_out: bool = False
    checked: bool = False  # output passed its check
    pass_no: int = 0
    label: str = ""

    @property
    def failed(self) -> bool:
        return self.timed_out or self.error != ""

    def row(self) -> dict:
        return {"kind": self.kind, "label": self.label, "pass": self.pass_no,
                "wall_ms": round(self.wall_s * 1000, 3), "exit": self.exit_code,
                "error": self.error, "rss_mb": round(self.rss_mb, 2),
                "timed_out": self.timed_out, "checked": self.checked}


def _error_class(stderr: str, exit_code: int) -> str:
    lines = [ln for ln in stderr.strip().splitlines() if ln.strip()]
    if not lines:
        return f"exit {exit_code}"
    last = lines[-1]
    if "Traceback (most recent call last)" in stderr:
        return last.split(":", 1)[0].strip()
    if last.startswith("error:"):
        return "refused: " + last[len("error:"):].strip()[:80]
    return last[:80]


@dataclass
class CliResult:
    exit_code: int
    wall_s: float
    rss_mb: float
    stdout: str
    stderr: str
    timed_out: bool


class CliRunner:
    """Runs ``python -m treesym`` children one at a time, through a launcher
    process started while the benchmark is still small (see launcher.py)."""

    def __init__(self, root: str, work: str, timeout_s: float):
        self.root = root
        self.timeout_s = timeout_s
        self._out = os.path.join(work, "child.out")
        self._err = os.path.join(work, "child.err")
        launcher = os.path.join(os.path.dirname(os.path.abspath(__file__)), "launcher.py")
        self._launcher = subprocess.Popen(
            [sys.executable, launcher], cwd=root, env=child_env(os.path.join(root, "src")),
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def close(self):
        self._launcher.stdin.close()
        self._launcher.wait()
        self._launcher.stdout.close()

    def run(self, argv: list) -> CliResult:
        req = {"argv": [sys.executable, *argv], "cwd": self.root, "stdout": self._out,
               "stderr": self._err, "timeout": self.timeout_s}
        self._launcher.stdin.write(json.dumps(req) + "\n")
        self._launcher.stdin.flush()
        reply = json.loads(self._launcher.stdout.readline())
        with open(self._out, encoding="utf-8", errors="replace") as f:
            out = f.read()
        with open(self._err, encoding="utf-8", errors="replace") as f:
            err = f.read()
        return CliResult(reply["exit"], reply["wall_s"], reply["rss_kb"] / 1024.0, out, err,
                         reply["timed_out"])

    def op(self, kind: str, argv: list, label: str, pass_no: int) -> tuple:
        """Run one CLI request; returns ``(Op, CliResult)``.  A refusal, a
        traceback or a timeout marks the op failed."""
        res = self.run(["-m", "treesym", *argv])
        op = Op(kind, res.wall_s, res.exit_code, rss_mb=res.rss_mb,
                timed_out=res.timed_out, pass_no=pass_no, label=label)
        if res.timed_out:
            op.error = "timeout"
        elif res.exit_code == 3 or (res.exit_code == 1 and kind != "verify") \
                or res.exit_code not in (0, 1):
            op.error = _error_class(res.stderr, res.exit_code)
        return op, res

    def startup_s(self, argv: list, reps: int) -> list:
        """Wall times of ``reps`` fresh interpreters running ``argv``."""
        times = []
        for _ in range(reps):
            res = self.run(argv)
            if res.exit_code != 0:
                raise RuntimeError(f"set-up command failed: {res.stderr.strip()[-300:]}")
            times.append(res.wall_s)
        return times


class OpTimeout(Exception):
    pass


@contextmanager
def alarm(seconds: float):
    """Raise :class:`OpTimeout` inside the block after ``seconds``."""

    def fire(signum, frame):
        raise OpTimeout(f"no answer within {seconds:g} s")

    old = signal.signal(signal.SIGALRM, fire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


def self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- statistics ----------------------------------------------------------------


def tail_rank(n: int) -> int:
    """Ascending index of the highest percentile with at least 10 samples
    beyond it (the lowest sample when there are 11 or fewer)."""
    return max(0, n - 11)


def upper_quartile(values: list) -> float:
    return statistics.quantiles(values, n=4)[2] if len(values) > 1 else values[0]


def by_request(ops: list) -> dict:
    """Each distinct request (op label) with the upper quartile of its wall
    times over the run, and whether any of its repeats failed.

    The shared host switches between a busy state, about 1.5 times slower
    and the usual one, and quiet stretches of seconds to minutes.  A
    request's fastest repeat then depends on whether the run caught a quiet
    stretch, and its median flips when the host is busy about half the
    time; its upper quartile reads the busy-state cost steadily."""
    walls: dict = {}
    failed: dict = {}
    for op in ops:
        walls.setdefault(op.label, []).append(op.wall_s)
        failed[op.label] = failed.get(op.label, False) or op.failed
    return {label: (upper_quartile(w), failed[label]) for label, w in walls.items()}


def ranked_latencies(per_request: dict, timeout_s: float) -> list:
    """Per-request latencies in ascending order, requests that failed
    ranked above every success at the op timeout."""
    ok = sorted(wall for wall, failed in per_request.values() if not failed)
    return ok + [timeout_s] * sum(failed for _, failed in per_request.values())


def latency_summary(ops: list, timeout_s: float) -> dict:
    """Median and tail over the distinct requests of the run, each at the
    upper quartile of its repeats; throughput is a pass over those requests
    at those latencies."""
    per_request = by_request(ops)
    ranked = ranked_latencies(per_request, timeout_s)
    i = tail_rank(len(ranked))
    ok = sum(not failed for _, failed in per_request.values())
    return {
        "p50_ms": statistics.median(ranked) * 1000.0,
        "tail_ms": ranked[i] * 1000.0,
        "tail_percentile": round(100.0 * i / max(1, len(ranked) - 1), 2),
        "ops_per_s": ok / sum(wall for wall, _ in per_request.values()),
        "requests": len(ranked),
        "repeats": round(len(ops) / len(ranked), 2),
    }


# -- tracing --------------------------------------------------------------------


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    request: int
    counts: dict = field(default_factory=dict)


class Tracer:
    """Spans kept in memory: name, start, end, parent span, request id."""

    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        self.request = 0

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        rec = Span(name, time.perf_counter(), 0.0, parent, self.request)
        self.spans.append(rec)
        self._stack.append(idx)
        try:
            yield rec.counts
        finally:
            rec.end = time.perf_counter()
            self._stack.pop()

    def dump(self) -> list:
        return [{"name": s.name, "start": s.start, "end": s.end, "parent": s.parent,
                 "request": s.request, **s.counts} for s in self.spans]


class NullTracer:
    """Same interface, records nothing: the untraced replay."""

    @contextmanager
    def span(self, name: str):
        yield {}
