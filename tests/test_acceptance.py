"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Everything is exact arithmetic; there are no tolerances anywhere,
equality is equality.
"""

import os
import random
import subprocess
import sys
import time
from pathlib import Path

from metacyclic.cyclotomic import CyclotomicElement
from metacyclic.deep import DeepChecker
from metacyclic.formulas import (
    complex_counts_closed_form,
    wedderburn_closed_form,
)
from metacyclic.group import conjugacy_classes, from_s, valid_parameter_sets, validate
from metacyclic.verify import cross_validate

SRC = str(Path(__file__).resolve().parent.parent / "src")

# the oracle grid: every valid (p, n, m, s) the deep checks run over
ORACLE_LIMITS = ((3, 2187), (5, 3125))

_grid_cache = None


def oracle_grid():
    global _grid_cache
    if _grid_cache is None:
        _grid_cache = [
            params
            for p, max_order in ORACLE_LIMITS
            for params in valid_parameter_sets(p, max_order)
        ]
    return _grid_cache


def run_cli(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-m", "metacyclic", *args],
        capture_output=True, text=True, env=env,
    )


def report(num, text):
    print(f"ACCEPTANCE {num} PASS  {text}")


def test_criterion_1_golden_examples():
    golden = {
        (3, 4, 2, 10): "Q + 4*Q(z3) + 12*Q(z9) + 3*M3(Q(z9)) + M9(Q(z9))",
        (3, 3, 3, 4): "Q + 4*Q(z3) + 3*Q(z9) + 3*Q(z27) + 3*M3(Q(z3)) "
                      "+ 2*M3(Q(z9)) + 3*M9(Q(z3))",
        (3, 2, 3, 4): "Q + 4*Q(z3) + 3*Q(z9) + 3*Q(z27) + 3*M3(Q(z3)) + 2*M3(Q(z9))",
    }
    for (p, n, m, r), line in golden.items():
        start = time.time()
        proc = run_cli("decompose", "--p", str(p), "--n", str(n),
                       "--m", str(m), "--r", str(r))
        elapsed = time.time() - start
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == line
        assert elapsed < 5.0  # expected well under 1s; 5s guards pathology
    report(1, "three golden decompositions reproduced exactly via the CLI")


def test_criterion_2_closed_form_equals_oracle():
    start = time.time()
    checked = 0
    for params in oracle_grid():
        result = cross_validate(params)
        assert not result.diff, (params, result.diff)
        checked += 1
    # the decomposition is also independent of the twist coefficient k
    for p, n, m, s, k in [(3, 4, 2, 2, 2), (3, 3, 3, 2, 2), (5, 3, 2, 1, 2)]:
        variant = validate(p, n, m, 1 + k * p ** (n - s))
        assert variant.s == s
        result = cross_validate(variant)
        assert not result.diff and result.closed == wedderburn_closed_form(from_s(p, n, m, s))
        checked += 1
    report(2, f"{checked} parameter sets, closed form == oracle, "
              f"{time.time() - start:.1f}s")


def test_criterion_3_dimension_identity_formula_scale():
    bound = 10 ** 7
    checked = 0
    for p in (3, 5, 7, 11):
        nm = 3
        while p ** nm <= bound:
            for n in range(2, nm):
                m = nm - n
                for s in range(1, min(n - 1, m) + 1):
                    params = from_s(p, n, m, s)
                    dec = wedderburn_closed_form(params)
                    assert dec.dimension() == p ** nm
                    checked += 1
            nm += 1
        # abelian outputs at the same scale, both orders (p^nm > bound)
        for n in range(nm):
            for m in range(nm):
                if 0 < n + m and p ** (n + m) <= bound:
                    dec = wedderburn_closed_form(from_s(p, n, m, 0))
                    assert dec.dimension() == p ** (n + m)
                    checked += 1
    assert checked > 300
    report(3, f"dimension identity on {checked} closed-form outputs up to 10^7")


def test_criterion_4_complex_counts_and_classes():
    for params in oracle_grid():
        counts = complex_counts_closed_form(params)
        total = (
            params.p ** (params.n + params.m - params.s)
            + params.p ** (params.n + params.m - params.s - 1)
            - params.p ** (params.n + params.m - 2 * params.s - 1)
        )
        checker = DeepChecker(cross_validate(params), rng=random.Random(4))
        by_degree = {}
        for ch in checker.chars:
            by_degree[ch.degree] = by_degree.get(ch.degree, 0) + 1
        assert by_degree == counts
        assert len(checker.chars) == total == len(conjugacy_classes(params))
        assert sum(ch.degree ** 2 for ch in checker.chars) == params.order
        # on every group: the orthogonality and trace checks of criteria 5
        # and 6 read class representatives only, exact for class functions
        result = checker.check_class_functions()
        assert result.ok, (params, result.detail)
    report(4, f"class count == representation count and class-function check "
              f"on {len(oracle_grid())} groups")


def test_criterion_5_orthogonality():
    all_pairs = sampled = 0
    for params in oracle_grid():
        checker = DeepChecker(cross_validate(params), rng=random.Random(params.order))
        result = checker.check_orthogonality()
        assert result.ok, (params, result.detail)
        if params.order <= 243:
            all_pairs += 1
        else:
            sampled += 1
    assert all_pairs >= 8 and sampled >= 15
    report(5, f"exact first orthogonality: all pairs on {all_pairs} groups, "
              f"100 sampled pairs on {sampled} larger groups")


def test_criterion_6_matrix_relations():
    degrees = 0
    for params in oracle_grid():
        checker = DeepChecker(cross_validate(params), rng=random.Random(6))
        result = checker.check_matrix_relations()
        assert result.ok, (params, result.detail)
        degrees += params.s
    report(6, f"presentation relations + trace identity for {degrees} sampled "
              f"induced representations")


def test_criterion_7_counting_identities():
    # vanishing orbit sums: sum_{i<p^S} zeta^((1+k p^(M-S))^i) = 0
    sums = 0
    for p in (3, 5):
        for big in range(1, 6):
            q = p ** big
            for small in range(1, big):
                for k in range(1, p ** small):
                    if k % p == 0:
                        continue
                    base = 1 + k * p ** (big - small)
                    vec = [0] * q
                    x = 1
                    for _ in range(p ** small):
                        vec[x] += 1
                        x = x * base % q
                    assert CyclotomicElement.from_power_vector(p, big, vec) == 0
                    sums += 1
    report(7, f"{sums} exact vanishing orbit sums")


def test_criterion_8_rational_counts_vs_oracle():
    findings = []
    for params in oracle_grid():
        checker = DeepChecker(cross_validate(params), rng=random.Random(8))
        oracle = checker.check_rational_counts()
        if not oracle.ok:
            findings.append(f"{params}: {oracle.detail}")
    for line in findings:
        print(f"criterion 8 FINDING (oracle is ground truth): {line}")
    assert not findings
    report(8, f"closed-form rational counts == Galois-class counts on "
              f"{len(oracle_grid())} groups; no boundary discrepancies")


def test_criterion_9_negative_controls():
    even = run_cli("decompose", "--p", "2", "--n", "3", "--m", "1", "--r", "3")
    assert even.returncode == 2, even.stderr
    bad_twist = run_cli("decompose", "--p", "3", "--n", "2", "--m", "1", "--r", "2")
    assert bad_twist.returncode == 2, bad_twist.stderr
    s_exceeds_m = run_cli("decompose", "--p", "3", "--n", "3", "--m", "1", "--r", "4")
    assert s_exceeds_m.returncode == 2, s_exceeds_m.stderr
    for proc in (even, bad_twist, s_exceeds_m):
        assert "validation error" in proc.stderr
    report(9, "even p, non-1-mod-p twist, and s > m all rejected with exit code 2")


def test_criterion_5_supplement_value_level_galois():
    # parameter-level Galois action == value-level action, on every
    # character under the generator sigma_g that the oracle walks
    for params in oracle_grid():
        checker = DeepChecker(cross_validate(params), rng=random.Random(55))
        result = checker.check_galois_action()
        assert result.ok, (params, result.detail)
    report("5b", "parameter-level Galois action agrees with value-level action")
