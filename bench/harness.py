"""Process running, the closed request loop, and trace aggregation."""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".bench_out"
TRACED_CLI = Path(__file__).resolve().parent / "traced_cli.py"
REQUEST_TIMEOUT_S = 60.0


@dataclass
class Outcome:
    code: int
    out: str
    err: str
    wall_s: float
    rss_mb: float
    timed_out: bool


def child_env() -> dict:
    env = dict(os.environ)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    return env


def run_process(argv, env) -> Outcome:
    """Run one process to completion; wall time from spawn to reap, peak RSS
    from wait4. Output goes to unlinked files, so no pipe can fill up."""
    SCRATCH.mkdir(exist_ok=True)
    with tempfile.TemporaryFile(dir=SCRATCH) as out, \
            tempfile.TemporaryFile(dir=SCRATCH) as err:
        killed = []
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=out,
                                stderr=err, env=env, cwd=ROOT)
        timer = threading.Timer(REQUEST_TIMEOUT_S, lambda: (killed.append(1), proc.kill()))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        timer.join()
        out.seek(0)
        err.seek(0)
        return Outcome(proc.returncode, out.read().decode(), err.read().decode(),
                       wall, usage.ru_maxrss / 1024.0, bool(killed))


def cli_argv(args) -> list[str]:
    return [sys.executable, "-m", "metacyclic", *args]


SETUP_ARGV = [sys.executable, "-c", "import metacyclic.cli"]
REFERENCE_ARGV = [sys.executable, str(Path(__file__).resolve().parent / "reference.py")]


class Probes:
    """Probe processes taken between requests, so they sample the same
    machine conditions as the requests they sit among.

    `reference.py` runs about once per `every_s` seconds of requests (up to
    three times in a row after a long request), to time the machine (see
    `speed`). Every second time it runs, a fresh interpreter also runs
    `import metacyclic.cli` (`setup_s`)."""

    def __init__(self, env, every_s: float = 1.0):
        self.env, self.every_s = env, every_s
        self.reference: list[float] = []
        self.setup: list[float] = []
        self.last = float("-inf")

    def __call__(self) -> float:
        """Take the probes that are due; return the seconds spent."""
        start = time.perf_counter()
        due = int(min(3.0, (start - self.last) / self.every_s))
        for _ in range(due):
            self.reference.append(median_wall(REFERENCE_ARGV, self.env, 1))
            if len(self.reference) % 2:
                self.setup.append(median_wall(SETUP_ARGV, self.env, 1))
        if due:
            self.last = time.perf_counter()
        return time.perf_counter() - start

    def speed(self, reference_s: float) -> float:
        """The factor that turns a time measured in this run into the time
        it would take on a machine on which `reference.py` takes
        `reference_s`; below 1 when this machine ran slower than that."""
        return reference_s / statistics.median(self.reference)


def median_wall(argv, env, times: int) -> float:
    """Median wall seconds of `times` fresh runs of argv (each must exit 0)."""
    walls = []
    for _ in range(times):
        outcome = run_process(argv, env)
        if outcome.code != 0:
            raise RuntimeError(f"{argv} exited {outcome.code}: {outcome.err.strip()}")
        walls.append(outcome.wall_s)
    return statistics.median(walls)


# ---------------------------------------------------------------------------
# rounds
# ---------------------------------------------------------------------------

@dataclass
class RoundResult:
    walls: list[float]  # per request, seconds
    rss: list[float]
    loop_s: float  # first spawn to last reap, less time spent in probes
    requests: int
    groups: int  # groups answered by requests whose output checked out
    group_wall_s: float  # summed wall of those requests
    failures: list[str]
    traces: list[dict]


def run_round(requests, env, oracle, check, traced: bool = False,
              probe: Probes | None = None) -> RoundResult:
    """Run a round back to back, then check every output (off the clock).
    Time spent in probes is left out of the round's loop time."""
    oracle.prepare(requests)
    outcomes, traces = [], []
    probe_s = 0.0
    loop_start = time.perf_counter()
    for index, req in enumerate(requests):
        if probe is not None:
            probe_s += probe()
        if traced:
            trace_file = SCRATCH / f"trace-{os.getpid()}-{index}.json"
            argv = [sys.executable, str(TRACED_CLI), str(trace_file), str(index),
                    "--", *req.argv]
        else:
            argv = cli_argv(req.argv)
        outcomes.append(run_process(argv, env))
        if traced:
            try:
                traces.append(json.loads(trace_file.read_text()))
            except (OSError, ValueError):
                traces.append(None)
            trace_file.unlink(missing_ok=True)
    loop_s = time.perf_counter() - loop_start - probe_s
    failures, groups, group_wall = [], 0, 0.0
    for index, (req, outcome) in enumerate(zip(requests, outcomes)):
        reason = ("timed out" if outcome.timed_out
                  else check(req, outcome.code, outcome.out, outcome.err, oracle))
        if reason is None and traced and traces[index] is None:
            reason = "no trace written"
        if reason is not None:
            failures.append(f"{' '.join(req.argv)}: {reason}")
        elif req.groups:
            groups += req.groups
            group_wall += outcome.wall_s
    return RoundResult(
        [o.wall_s for o in outcomes], [o.rss_mb for o in outcomes], loop_s,
        len(requests), groups, group_wall, failures,
        [t for t in traces if t is not None])


def run_rounds(make_round, seconds: float, run_one, min_rounds: int = 1) -> list:
    """Run rounds 0, 1, ... while the time used plus the last round's length
    fits in `seconds`, and at least `min_rounds`. A round's length is its whole
    wall time, probes and checks included. Rounds are never cut short, so
    every round holds the workload's full mix."""
    results, used = [], 0.0
    while True:
        start = time.perf_counter()
        results.append(run_one(make_round(len(results))))
        length = time.perf_counter() - start
        used += length
        if len(results) >= min_rounds and used + length > seconds:
            return results


# ---------------------------------------------------------------------------
# traces
# ---------------------------------------------------------------------------

def self_times(traces) -> tuple[dict[str, float], dict[str, int]]:
    """Total self time (ns) and call count per span name. A span's self time
    is its duration minus the durations of its direct children; spans of one
    request nest strictly, since the CLI is single-threaded."""
    total: dict[str, float] = {}
    calls: dict[str, int] = {}
    for trace in traces:
        spans = trace["spans"]
        own = [end - start for _, start, end, _ in spans]
        for name, start, end, parent in spans:
            if parent >= 0:
                own[parent] -= end - start
        for (name, *_), value in zip(spans, own):
            total[name] = total.get(name, 0) + value
            calls[name] = calls.get(name, 0) + 1
    return total, calls


def merged_counts(traces) -> dict[str, int]:
    counts: dict[str, int] = {}
    for trace in traces:
        for name, value in trace["counts"].items():
            counts[name] = counts.get(name, 0) + value
    return counts
