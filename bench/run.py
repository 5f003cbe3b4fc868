#!/usr/bin/env python3
"""Benchmark of the `metacyclic` CLI, as a user runs it: one process per
request, one at a time (closed loop, one client).

    python3 bench/run.py --workload cli_oneshot --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 40 --out runs.jsonl
    python3 bench/run.py --compare parent.jsonl change.jsonl

--trace 0 measures the end-to-end metrics, scaled to the speed of a reference
machine (see REFERENCE_S). --trace 1 runs the same requests
through bench/traced_cli.py and reports the per-layer metrics instead. The
last stdout line is one JSON object with the keys correct, attempted, failed
and metrics. Run it from the root of a source tree: the program is taken
from ./src. See bench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import sys
from functools import partial

import harness
import workloads
from harness import ROOT, SRC

WORKLOADS = ("cli_oneshot", "oracle_grid", "deep_verify")
INTERPRETER_RUNS = 5
# Times and rates are reported at the speed of a machine on which
# bench/reference.py takes this long (see `end_to_end`).
REFERENCE_S = 0.2

END_TO_END = {
    "setup_s": "s",
    "wall_ms.p50": "ms",
    "wall_ms.p90": "ms",
    "requests_per_s": "1/s",
    "groups_per_s": "1/s",
    "peak_rss_mb": "MB",
}

# per-layer metric -> (unit, span whose self time it is); times are per request
LAYER_TIMES = {
    "cli.import_ms": ("ms", "cli.import"),
    "cli.main_ms": ("ms", "cli.main"),
    "cli.format_us": ("us", "cli.format"),
    "group.validate_us": ("us", "group.validate"),
    "arith.is_prime_us": ("us", "arith.is_prime"),
    "arith.split_r_us": ("us", "arith.split_r"),
    "formulas.closed_form_us": ("us", "formulas.closed_form"),
    "formulas.counts_us": ("us", "formulas.counts"),
    "complex_reps.enumerate_ms": ("ms", "complex_reps.enumerate"),
    "rational.galois_classes_ms": ("ms", "rational.galois_classes"),
    "rational.assemble_ms": ("ms", "rational.assemble"),
    "verify.cross_validate_ms": ("ms", "verify.cross_validate"),
    "verify.value_table_ms": ("ms", "verify.value_table"),
    **{
        f"verify.check.{name}_ms": ("ms", f"verify.check.{name}")
        for name in ("counts", "class_functions", "orthogonality", "galois_action",
                     "matrix_relations", "value_agreement", "rational_counts",
                     "decomposition")
    },
    "group.conjugacy_classes_ms": ("ms", "group.conjugacy_classes"),
    "cyclotomic.reduce_power_vector_ms": ("ms", "cyclotomic.reduce_power_vector"),
}
# per-layer counters, totals per round: from span call counts or traced counters
LAYER_SPAN_CALLS = {
    "group.validate_calls": "group.validate",
    "cyclotomic.reduce_power_vector_calls": "cyclotomic.reduce_power_vector",
}
LAYER_COUNTS = (
    "complex_reps.chars", "complex_reps.canonical_label_calls",
    "complex_reps.character_value_calls", "rational.sigma_calls",
    "verify.table_cells", "group.elements_walked", "cyclotomic.root_power_calls",
)
SCALE = {"ms": 1e-6, "us": 1e-3}


def per_layer_units() -> dict[str, str]:
    units = {"cli.interpreter_ms": "ms"}
    units.update({name: unit for name, (unit, _) in LAYER_TIMES.items()})
    units.update({name: "count" for name in (*LAYER_SPAN_CALLS, *LAYER_COUNTS)})
    units["rational.sigma_calls_per_char"] = "ratio"
    units["verify.oracle_passes_per_group"] = "ratio"
    return units


# ---------------------------------------------------------------------------
# environment record
# ---------------------------------------------------------------------------

def git_sha() -> str:
    """HEAD of the enclosing git checkout, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def src_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "metacyclic").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def environment(args) -> dict:
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "nproc": os.cpu_count(), "git_sha": git_sha(), "src_sha256": src_digest(),
    }


# ---------------------------------------------------------------------------
# one workload
# ---------------------------------------------------------------------------

def quantile(values, q: int, n: int) -> float:
    """The q-th of the n-quantiles (statistics.quantiles, exclusive method)."""
    return values[0] if len(values) == 1 else statistics.quantiles(values, n=n)[q - 1]


def end_to_end(rounds, setup: list[float], speed: float) -> dict[str, float]:
    """The end-to-end metrics of a run, at reference speed: every time is
    multiplied by `speed` and every rate divided by it. Percentiles are over
    all request processes of the run, rates over the whole run."""
    walls = [w * 1000.0 * speed for r in rounds for w in r.walls]
    group_wall = sum(r.group_wall_s for r in rounds)
    return {
        "setup_s": statistics.median(setup) * speed,
        "wall_ms.p50": statistics.median(walls),
        "wall_ms.p90": quantile(walls, 9, 10),
        "requests_per_s": sum(r.requests for r in rounds)
        / sum(r.loop_s for r in rounds) / speed,
        "groups_per_s": (sum(r.groups for r in rounds) / group_wall / speed
                         if group_wall else 0.0),
        "peak_rss_mb": max(x for r in rounds for x in r.rss),
    }


def layer_metrics(rnd, interpreter_ms: float) -> dict[str, float]:
    """Per-layer metrics of one traced round: self times per request, counts
    per round."""
    own, calls = harness.self_times(rnd.traces)
    counts = harness.merged_counts(rnd.traces)
    out = {"cli.interpreter_ms": interpreter_ms}
    for name, (unit, span) in LAYER_TIMES.items():
        out[name] = own.get(span, 0) * SCALE[unit] / rnd.requests
    for name, span in LAYER_SPAN_CALLS.items():
        out[name] = calls.get(span, 0)
    for name in LAYER_COUNTS:
        out[name] = counts.get(name, 0)
    classified = counts.get("rational.chars_classified", 0)
    out["rational.sigma_calls_per_char"] = (
        counts.get("rational.sigma_calls_in_galois", 0) / classified if classified else 0.0)
    out["verify.oracle_passes_per_group"] = (
        calls.get("rational.galois_classes", 0) / rnd.groups if rnd.groups else 0.0)
    return out


def self_time_report(traces, requests: int) -> list[str]:
    """Top self times per layer (module), in ms per request."""
    own, calls = harness.self_times(traces)
    layers: dict[str, list] = {}
    for name, ns in own.items():
        layers.setdefault(name.split(".")[0], []).append((ns / 1e6 / requests, name))
    lines = []
    for layer, items in sorted(layers.items(), key=lambda kv: -sum(v for v, _ in kv[1])):
        items.sort(reverse=True)
        top = ", ".join(f"{name} {ms:.3f} ({calls[name] / requests:g} calls)"
                        for ms, name in items[:3])
        lines.append(f"  {layer:<13} {sum(v for v, _ in items):10.3f} ms/request: {top}")
    return lines


def run_workload(args, log, detail: dict) -> dict:
    """Run one workload; return its result line. Untraced, `detail` receives
    the reference median and the unscaled metrics, for the --out record."""
    env = harness.child_env()
    oracle = workloads.Oracle()
    make_round = partial(workloads.ROUNDS[args.workload], args.seed)
    check = workloads.check
    # compile bytecode and warm the file cache before anything is timed
    harness.median_wall(harness.cli_argv(["--help"]), env, 1)
    failures, attempted = [], 0

    if not args.trace:
        probes = harness.Probes(env)
        rounds = harness.run_rounds(
            make_round, args.seconds,
            lambda reqs: harness.run_round(reqs, env, oracle, check, probe=probes),
            workloads.MIN_ROUNDS[args.workload])
        speed = probes.speed(REFERENCE_S)
        metrics = end_to_end(rounds, probes.setup, speed)
        units = END_TO_END
        samples = sum(r.requests for r in rounds)
        log(f"{len(rounds)} rounds, {samples} request processes: percentiles over "
            f"{samples}, rates over the whole run, setup_s is the median of "
            f"{len(probes.setup)} probes")
        detail["reference_s"] = statistics.median(probes.reference)
        detail["unscaled"] = end_to_end(rounds, probes.setup, 1.0)
        log(f"reference.py took {detail['reference_s']:.4f} s (median of "
            f"{len(probes.reference)}); times are scaled by {speed:.4f} to a machine "
            f"on which it takes {REFERENCE_S} s")
        for name, value in detail["unscaled"].items():
            log(f"{args.workload:<12} unscaled {name:<27} {value:>14.4f} {units[name]}")
    else:
        interpreter_ms = 1000.0 * harness.median_wall(
            [sys.executable, "-c", "pass"], env, INTERPRETER_RUNS)
        # the same round each time, so every traced round repeats the same work
        first = make_round(0)
        pairs, used, length = [], 0.0, 0.0
        while not pairs or used + length <= args.seconds:
            plain = harness.run_round(first, env, oracle, check)
            traced = harness.run_round(first, env, oracle, check, traced=True)
            pairs.append((plain, traced))
            length = plain.loop_s + traced.loop_s
            used += length
        rounds = [r for p in pairs for r in p]
        per_round = [layer_metrics(traced, interpreter_ms) for _, traced in pairs]
        metrics = {name: statistics.median(m[name] for m in per_round)
                   for name in per_round[0]}
        units = per_layer_units()
        overhead = statistics.median(sum(t.walls) - sum(p.walls) for p, t in pairs)
        untraced = statistics.median(sum(p.walls) for p, _ in pairs)
        log(f"{len(pairs)} traced rounds of {len(first)} requests, "
            f"each paired with an untraced run of the same round")
        log(f"tracing overhead: traced minus untraced wall = {overhead * 1000:.1f} ms "
            f"per round ({100 * overhead / untraced:.1f} % of {untraced:.3f} s)")
        log("self time by layer (last traced round):")
        for line in self_time_report(pairs[-1][1].traces, pairs[-1][1].requests):
            log(line)
    for rnd in rounds:
        attempted += rnd.requests
        failures += rnd.failures
    for failure in failures[:20]:
        log(f"FAIL {failure}")
    log(f"fail_ratio = {len(failures) / attempted:.4f} ratio "
        f"({len(failures)} of {attempted} requests)")
    for name, value in metrics.items():
        log(f"{args.workload:<12} {name:<36} {value:>14.4f} {units[name]}")
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }


# ---------------------------------------------------------------------------
# compare mode
# ---------------------------------------------------------------------------

def load_runs(path: str) -> dict[str, list[dict[str, float]]]:
    """End-to-end metric values of each untraced run in a --out file, per
    workload, in file order."""
    runs: dict[str, list[dict[str, float]]] = {}
    with open(path) as fh:
        for line in fh:
            if not line.strip():
                continue
            record = json.loads(line)
            if record["env"]["trace"]:
                continue
            metrics = record["result"]["metrics"]
            runs.setdefault(record["env"]["workload"], []).append(
                {name: m["value"] for name, m in metrics.items()})
    return runs


def verdict(parent: list[float], change: list[float], better: str, bound: float):
    """Verdict for one metric on one workload, parent runs against change runs.

    The i-th run of each side form a pair. A gain needs at least ten pairs,
    nine tenths of them won (ties count for neither side), and medians further
    apart than the parent's quartile spread. A regression is a change median
    worse than the parent's by more than `bound` (a share of the parent
    median). When the parent's own spread exceeds the bound, the metric is
    unresolved unless every change run beats every parent run.
    """
    sign = 1 if better == "higher" else -1
    pairs = list(zip(parent, change))
    wins = sum(sign * (c - p) > 0 for p, c in pairs)
    losses = sum(sign * (c - p) < 0 for p, c in pairs)
    mp, mc = statistics.median(parent), statistics.median(change)
    spread = quantile(parent, 3, 4) - quantile(parent, 1, 4)
    all_better = (min(change) > max(parent)) if sign > 0 else (max(change) < min(parent))
    if len(pairs) >= 10 and wins >= 0.9 * len(pairs) and sign * (mc - mp) > spread:
        label = "gain"
    elif sign * (mp - mc) > bound * mp:
        label = "regression"
    elif spread > bound * mp and not all_better:
        label = "unresolved"
    else:
        label = "no regression"
    return wins, losses, len(pairs), label


def compare(parent_path: str, change_path: str) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    parent, change = load_runs(parent_path), load_runs(change_path)

    def describe(values):
        return (f"{statistics.median(values):11.4f} "
                f"[{quantile(values, 1, 4):.4f}, {quantile(values, 3, 4):.4f}]")

    print(f"{'workload':<12} {'metric':<15} {'unit':<5} {'parent median [q1, q3]':<34} "
          f"{'change median [q1, q3]':<34} {'won/lost/pairs':<15} bound  verdict")
    for workload in WORKLOADS:
        if workload not in parent or workload not in change:
            continue
        for metric in spec:
            name = metric["name"]
            p = [run[name] for run in parent[workload]]
            c = [run[name] for run in change[workload]]
            wins, losses, n, label = verdict(p, c, metric["better"], metric["bound"])
            print(f"{workload:<12} {name:<15} {metric['unit']:<5} {describe(p):<34} "
                  f"{describe(c):<34} {f'{wins}/{losses}/{n}':<15} "
                  f"{metric['bound']:<6.2f} {label}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append each run's environment and result "
                        "to this file as one JSON line")
    parser.add_argument("--compare", nargs=2, metavar=("PARENT", "CHANGE"),
                        help="compare two --out files instead of running")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.workload is None:
        parser.error("--workload is required")
    if not (SRC / "metacyclic" / "cli.py").is_file():
        print(f"no program source under {SRC}; run from the root of a source tree",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        run_args = argparse.Namespace(**{**vars(args), "workload": name})
        env = environment(run_args)
        print("# env " + json.dumps(env), flush=True)
        detail = {}
        results[name] = run_workload(run_args, partial(print, flush=True), detail)
        if args.out:
            with open(args.out, "a") as fh:
                fh.write(json.dumps({"env": env, "result": results[name], **detail}) + "\n")
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}/{name}": m for w, r in results.items()
                        for name, m in r["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
