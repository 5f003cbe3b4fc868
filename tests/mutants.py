"""Mutation gate: each check of the package must notice its mutant.

Usage: python tests/mutants.py

Each row of MUTANTS names a file under src/metacyclic, one exact snippet of
it, the snippet's replacement, and the test node ids that must fail once
the replacement is made. For each row the script copies src/, tests/ and
bench/ to a fresh temporary directory, requires the snippet to occur
exactly once in the copied file (else it stops and names the row, so a
refactor that moves a snippet updates its row instead of skipping it),
applies the replacement, and runs the named tests in the copy. Every named
test must fail. First, the union of all named tests must pass on an
unmutated copy.

pytest runs in the copy, with the copy as its root directory:
tests/conftest.py puts its own checkout's src/ first on sys.path, so the
copied tests import the mutated src/ whatever PYTHONPATH says. pytest does
not collect this file (its name does not match test_*.py). Exit status 0
means the clean copy passed and every mutant was killed.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    path: str  # under src/metacyclic
    snippet: str
    replacement: str
    tests: tuple[str, ...]


V = "tests/test_verify.py::"
R = "tests/test_rational.py::"
C = "tests/test_complex_reps.py::"
Y = "tests/test_cyclotomic.py::"
E = "tests/test_entry.py::"

MUTANTS = [
    # deep.py: one or more per deep check
    Mutant("counts without the brute-force class count", "deep.py",
           "            and len(self.class_index[1]) == len(self.chars)\n", "",
           (V + "test_counts_check_reads_the_brute_force_class_count",)),
    Mutant("basis rows read from the value tables", "deep.py",
           "        return [_exponents(form, self.params, reps) for form in basis_characters(self.params)]",
           "        return [[value_table(form, self.params)[g] for g in self.class_index[1]]\n"
           "                for form in basis_characters(self.params)]",
           (V + "test_class_function_check_fails_tables_that_stay_class_functions",
            V + "test_class_function_check_is_not_vacuous")),
    Mutant("class_functions skips None cells", "deep.py",
           "            if [row[c] for c in class_of] != table:",
           "            if any(e is not None and e != row[c] for c, e in zip(class_of, table)):",
           (V + "test_run_all_fails_on_each_poison",
            V + "test_run_all_catches_every_single_cell_poisoning")),
    Mutant("orthogonality bucket key without the factor p^T", "deep.py",
           "x = buckets.setdefault((a_exp * d % qc, b_exp * d % qc), y)",
           "x = buckets.setdefault((a_exp, b_exp), y)",
           (V + "test_orthogonality_fails_a_repeated_table_above_243[0]",)),
    Mutant("orthogonality also rejects collisions below T", "deep.py",
           "                    if x != y and t in (ch.t, chars[x].t):",
           "                    if x != y:",
           (V + "test_orthogonality_equals_full_group_sums_on_every_pair",)),
    Mutant("galois_action without the (t, degree) comparison", "deep.py",
           "            if image not in listed or (t, degree) != (ch.t, ch.degree):",
           "            if image not in listed:",
           (V + "test_galois_image_of_another_degree_fails_the_check",)),
    Mutant("galois_action without the membership test", "deep.py",
           "            if image not in listed or (t, degree) != (ch.t, ch.degree):",
           "            if (t, degree) != (ch.t, ch.degree):",
           (V + "test_galois_image_outside_the_list_fails_the_check",)),
    Mutant("galois_action without the order check", "deep.py",
           "        if len({pow(g, k, qc) for k in range(1, phi + 1)}) != phi:",
           "        if False:",
           (V + "test_galois_action_requires_a_generator",)),
    Mutant("galois_action memo key without t", "deep.py",
           "            key = (t, a, b)", "            key = (a, b)",
           (V + "test_galois_action_check_is_not_vacuous",)),
    Mutant("galois_action without b Y", "deep.py",
           "(a * e + b * f) % qc", "(a * e) % qc",
           (V + "test_galois_action_check_is_not_vacuous",)),
    Mutant("traces skip the classes where d does not divide j", "deep.py",
           "            i, j = divmod(g, qb)\n",
           "            i, j = divmod(g, qb)\n            if j % len(a_mat.perm):\n"
           "                continue\n",
           (V + "test_matrix_relation_check_is_not_vacuous",)),
    Mutant("trace off by one at the identity", "deep.py",
           "                sums[e] = sums.get(e, 0) + 1\n",
           "                sums[e] = sums.get(e, 0) + 1 + (g == 0)\n",
           (V + "test_matrix_relation_check_is_not_vacuous",)),
    Mutant("_vanishes with step 1", "deep.py",
           "        step = self.qc // self.params.p", "        step = 1",
           (V + "test_vanishes_agrees_with_the_reduction",)),
    Mutant("value_agreement compares nothing", "deep.py",
           "            if slow != fast:", "            if False:",
           (V + "test_run_all_fails_on_each_poison",)),
    Mutant("rational_counts without the members tie", "deep.py",
           "        if sorted(ch for cls in self.galois for ch in cls.members) != sorted(self.chars):",
           "        if False:",
           (V + "test_rational_counts_ties_the_classes_to_the_listed_characters",
            V + "test_a_missing_degree_reads_fail_not_an_exception")),
    Mutant("decomposition always OK", "deep.py",
           'CheckResult("decomposition", not self.diff,', 'CheckResult("decomposition", True,',
           (V + "test_decomposition_check_detects_corrupted_closed_form",)),
    # the oracle: the Galois walk and the identities that raise
    # InternalInconsistencyError (tiling, class size, dimension, class count)
    Mutant("Galois walk without its return check", "rational.py",
           "        if k != start:", "        if False:",
           (R + "test_broken_action_is_rejected_quickly[False]",)),
    Mutant("Galois walk without the class size phi(p^L)", "rational.py",
           "        if len(members) != phi_pk(params.p, level):", "        if False:",
           (R + "test_cycle_longer_than_phi_p_c_fails_the_class_size",)),
    Mutant("_images runs keyed on t alone", "rational.py",
           "        if t != run_t or l != run_l:", "        if t != run_t:",
           (R + "test_class_sizes_match_field_degree",)),
    Mutant("_images keeps u", "rational.py",
           "images.append((t, label, alpha * u % modulus, degree))",
           "images.append((t, label, u, degree))",
           (R + "test_class_sizes_match_field_degree",)),
    Mutant("sigma_on_character returns a plain tuple", "rational.py",
           "    return IrreducibleCharacter(*_images([ch], alpha, params)[0])",
           "    return _images([ch], alpha, params)[0]",
           (R + "test_generator_walk_equals_all_units_classes",)),
    Mutant("oracle without the dimension identity", "rational.py",
           "    if decomposition.dimension() != params.order:", "    if False:",
           (R + "test_a_missing_class_fails_the_dimension_identity",)),
    Mutant("orbits tile by count only", "complex_reps.py",
           "    if members != list(range(p ** n)):", "    if len(members) != p ** n:",
           (C + "test_orbit_decomposition_rejects_bad_tiling",)),
    Mutant("enumeration without the class count", "complex_reps.py",
           "    if len(chars) != params.class_count:", "    if False:",
           (C + "test_enumeration_rejects_a_wrong_character_count",)),
    Mutant("_fold drops its last target", "cyclotomic.py",
           "        for f in range(e - phi, phi, q // p):",
           "        for f in range(e - phi, phi - q // p, q // p):",
           (Y + "test_add_mul_relations",)),
    Mutant("entry keeps Python's SIGPIPE handling", "cli.py",
           '    if hasattr(signal, "SIGPIPE"):', "    if False:",
           (E + "test_a_closed_stdout_ends_the_process_by_sigpipe"
                "[decompose --p 3 --n 4 --m 2 --r 10]",)),
]


def _copy(dest: Path) -> None:
    for part in ("src", "tests", "bench"):
        shutil.copytree(ROOT / part, dest / part,
                        ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))


def _failed(copy: Path, tests) -> tuple[int, set[str]]:
    """pytest's exit code and the node ids that failed or errored, running
    `tests` in `copy`."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(copy / "src") + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "--tb=no", "-rfE", "-p", "no:cacheprovider",
         "--rootdir", str(copy), *tests],
        cwd=copy, env=env, capture_output=True, text=True, timeout=600,
    )
    failed = {line.split(" ", 1)[1].split(" - ", 1)[0]
              for line in proc.stdout.splitlines() if line.startswith(("FAILED ", "ERROR "))}
    return proc.returncode, failed


def main() -> int:
    start = time.perf_counter()
    union = sorted({test for mutant in MUTANTS for test in mutant.tests})
    with tempfile.TemporaryDirectory() as tmp:
        clean = Path(tmp) / "clean"
        _copy(clean)
        code, failed = _failed(clean, union)
        if code or failed:
            print(f"clean copy: pytest exit {code}, failed {sorted(failed)}")
            return 1
    print(f"clean copy: {len(union)} tests pass")
    survivors = 0
    for k, mutant in enumerate(MUTANTS):
        with tempfile.TemporaryDirectory() as tmp:
            copy = Path(tmp) / "copy"
            _copy(copy)
            target = copy / "src" / "metacyclic" / mutant.path
            text = target.read_text()
            if text.count(mutant.snippet) != 1:
                print(f"row {k} ({mutant.name}): the snippet occurs "
                      f"{text.count(mutant.snippet)} times in {mutant.path}, not once")
                return 2
            mutated = text.replace(mutant.snippet, mutant.replacement)
            compile(mutated, str(target), "exec")  # a mutant must still be Python
            target.write_text(mutated)
            _, failed = _failed(copy, mutant.tests)
        alive = [test for test in mutant.tests if test not in failed]
        survivors += bool(alive)
        print(f"{'SURVIVED' if alive else 'killed'}: {mutant.name}"
              + (f" (passed: {', '.join(alive)})" if alive else ""))
    print(f"{len(MUTANTS) - survivors}/{len(MUTANTS)} mutants killed "
          f"in {time.perf_counter() - start:.1f} s")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
