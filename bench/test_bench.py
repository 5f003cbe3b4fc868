"""Tests of the benchmark itself: run with `python3 -m pytest bench -q`."""

import dataclasses
import sys
from collections import Counter
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import harness  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from workloads import GOLDEN, Request  # noqa: E402


def golden_round():
    reqs = [r for r in workloads.cli_oneshot_round(0, 0) if "golden" in r.options]
    reqs.append(Request(("decompose", "--p", "2", "--n", "3", "--m", "2", "--r", "5"),
                        2, "reject"))
    return reqs


def run_with(monkeypatch, alter):
    """Run the golden round for real, passing each outcome through `alter`."""
    real = harness.run_process

    def fake(argv, env):
        return alter(argv, real(argv, env))

    monkeypatch.setattr(harness, "run_process", fake)
    return harness.run_round(golden_round(), harness.child_env(), workloads.Oracle(),
                             workloads.check)


def test_clean_round_has_no_failures(monkeypatch):
    result = run_with(monkeypatch, lambda argv, outcome: outcome)
    assert result.failures == []
    assert result.groups == 3 and result.requests == 4


def test_wrong_stdout_line_raises_fail_ratio(monkeypatch):
    target = "--r", "10"

    def alter(argv, outcome):
        if tuple(argv[-2:]) == target:
            return dataclasses.replace(outcome, out=outcome.out.replace("12*", "13*"))
        return outcome

    result = run_with(monkeypatch, alter)
    assert len(result.failures) == 1 and "golden" in result.failures[0]
    assert result.groups == 2


def test_wrong_exit_code_raises_fail_ratio(monkeypatch):
    def alter(argv, outcome):
        return dataclasses.replace(outcome, code=0) if "2" == argv[argv.index("--p") + 1] \
            else outcome

    result = run_with(monkeypatch, alter)
    assert len(result.failures) == 1 and "exit code 0" in result.failures[0]


def test_cli_mix_is_seeded_and_shaped():
    def mix(seed):
        return [workloads.cli_oneshot_round(seed, i) for i in range(2)]

    first = mix(7)
    assert [r.argv for rnd in first for r in rnd] == [r.argv for rnd in mix(7) for r in rnd]
    assert [r.argv for r in first[0]] != [r.argv for r in mix(8)[0]]
    reqs = [r for rnd in first for r in rnd]
    assert len(reqs) == 100
    assert sum(r.code == 0 for r in reqs) == 80
    assert {r.code for r in reqs} == {0, 1, 2, 4}
    assert Counter(r.options.get("why") for r in reqs if r.code) == {
        **{why: 3 for why in workloads.REJECTIONS}, "large_n": 2}
    for rnd in first:
        assert str(workloads.LARGE_N) in rnd[workloads.LARGE_N_SLOT].argv
        assert sum("golden" in r.options for r in rnd) == len(GOLDEN)
    for r in reqs:
        if r.code == 0:
            assert r.group.order <= workloads.FORMULA_BOUND


def test_grid_has_44_groups():
    assert sum(len(workloads.grid_triples(p, 10 ** 4)) for p in (3, 5, 7)) == 44


@pytest.mark.parametrize("line", list(GOLDEN.values()))
def test_parse_line_reads_golden_lines(line):
    multiset = workloads.parse_line(line, 3)
    assert multiset is not None
    assert workloads.dimension(multiset, 3) in (3 ** 5, 3 ** 6)


@pytest.mark.parametrize("line", ["Q + Q", "4*Q(z3) + Q", "1*Q", "M3(Q(z9)", "Q(z1)"])
def test_parse_line_rejects_non_canonical(line):
    assert workloads.parse_line(line, 3) is None


def test_self_time_subtracts_direct_children():
    trace = {"spans": [["a", 0, 100, -1], ["b", 10, 40, 0], ["c", 20, 30, 1],
                       ["b", 50, 60, 0]], "counts": {}}
    own, calls = harness.self_times([trace])
    assert own == {"a": 60, "b": 30, "c": 10}
    assert calls == {"a": 1, "b": 2, "c": 1}


def test_verdicts():
    parent = [100.0 + i % 3 for i in range(10)]
    faster = [90.0 + i % 3 for i in range(10)]
    assert run.verdict(parent, faster, "lower", 0.1)[3] == "gain"
    assert run.verdict(parent, [130.0] * 10, "lower", 0.1)[3] == "regression"
    assert run.verdict(parent, parent, "lower", 0.1)[3] == "no regression"
    noisy = [50.0, 150.0] * 5
    assert run.verdict(noisy, noisy, "lower", 0.1)[3] == "unresolved"


def test_end_to_end_scales_times_up_and_rates_down():
    rnd = harness.RoundResult(walls=[0.1, 0.2, 0.3], rss=[20.0, 30.0, 25.0], loop_s=0.6,
                              requests=3, groups=2, group_wall_s=0.4, failures=[],
                              traces=[])
    plain = run.end_to_end([rnd], [0.15], 1.0)
    assert plain == pytest.approx({
        "setup_s": 0.15, "wall_ms.p50": 200.0,
        "wall_ms.p90": run.quantile([100.0, 200.0, 300.0], 9, 10),
        "requests_per_s": 5.0, "groups_per_s": 5.0, "peak_rss_mb": 30.0})
    slow = run.end_to_end([rnd], [0.15], 2.0)
    for name in ("setup_s", "wall_ms.p50", "wall_ms.p90"):
        assert slow[name] == pytest.approx(2 * plain[name])
    for name in ("requests_per_s", "groups_per_s"):
        assert slow[name] == pytest.approx(plain[name] / 2)
    assert slow["peak_rss_mb"] == plain["peak_rss_mb"]
