import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parent.parent / "src")

GOLDEN = {
    (3, 4, 2, 10): "Q + 4*Q(z3) + 12*Q(z9) + 3*M3(Q(z9)) + M9(Q(z9))",
    (3, 3, 3, 4): "Q + 4*Q(z3) + 3*Q(z9) + 3*Q(z27) + 3*M3(Q(z3)) + 2*M3(Q(z9)) + 3*M9(Q(z3))",
    (3, 2, 3, 4): "Q + 4*Q(z3) + 3*Q(z9) + 3*Q(z27) + 3*M3(Q(z3)) + 2*M3(Q(z9))",
}


def run_cli(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-m", "metacyclic", *args],
        capture_output=True, text=True, env=env, timeout=60,
    )


def test_decompose_golden_lines():
    for (p, n, m, r), line in GOLDEN.items():
        proc = run_cli("decompose", "--p", str(p), "--n", str(n),
                       "--m", str(m), "--r", str(r))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == line


def test_s_flag_canonicalizes_r():
    via_s = run_cli("decompose", "--p", "3", "--n", "2", "--m", "3", "--s", "1")
    via_r = run_cli("decompose", "--p", "3", "--n", "2", "--m", "3", "--r", "4")
    assert via_s.returncode == via_r.returncode == 0
    assert via_s.stdout == via_r.stdout
    assert "r=4" in via_s.stderr


def test_abelian_decompose():
    proc = run_cli("decompose", "--p", "3", "--n", "1", "--m", "1", "--abelian")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "Q + 4*Q(z3)"


def test_json_round_trip():
    from metacyclic.cli import format_decomposition
    from metacyclic.components import assemble_components

    for p, n, m, r in GOLDEN:
        shape = ("--p", str(p), "--n", str(n), "--m", str(m), "--r", str(r))
        proc = run_cli("decompose", *shape, "--format", "json")
        text = run_cli("decompose", *shape)
        assert proc.returncode == text.returncode == 0
        doc = json.loads(proc.stdout)
        dec = assemble_components(
            doc["p"], [(c["q"], c["lambda"], c["mult"]) for c in doc["components"]]
        )
        assert dec.dimension() == doc["order"]
        assert format_decomposition(dec) + "\n" == text.stdout


def test_verify_command():
    proc = run_cli("verify", "--p", "3", "--n", "2", "--m", "3", "--r", "4")
    assert proc.returncode == 0
    assert proc.stdout.startswith("VERIFIED")

    sweep = run_cli("verify", "--p", "3", "--all", "--max-order", "729")
    assert sweep.returncode == 0
    assert sweep.stdout.count("VERIFIED") == 13


def test_verify_deep():
    proc = run_cli("verify", "--p", "3", "--n", "2", "--m", "2", "--r", "4", "--deep")
    assert proc.returncode == 0, proc.stderr
    assert "orthogonality: OK" in proc.stderr
    assert "matrix_relations: OK" in proc.stderr


def test_corrupt_hook_reports_mismatch(capsys, corrupted_closed_form):
    code, out, _ = run_main(capsys, "verify --p 3 --n 2 --m 3 --r 4")
    assert code == 3
    assert "MISMATCH" in out
    assert "closed=" in out and "oracle=" in out


def test_exit_codes():
    usage = run_cli("decompose", "--p", "3", "--n", "2")
    assert usage.returncode == 1
    validation = run_cli("decompose", "--p", "4", "--n", "2", "--m", "1", "--r", "3")
    assert validation.returncode == 2
    size = run_cli("verify", "--p", "3", "--n", "9", "--m", "1", "--s", "1")
    assert size.returncode == 4
    formula_size = run_cli("decompose", "--p", "3", "--n", "12", "--m", "5", "--s", "1")
    assert formula_size.returncode == 4


def test_counts_command():
    proc = run_cli("counts", "--p", "3", "--n", "4", "--m", "2", "--r", "10",
                   "--kind", "complex", "--format", "json")
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert {(row["degree"], row["count"]) for row in doc["rows"]} == {
        (1, 81), (3, 18), (9, 6)
    }

    rational = run_cli("counts", "--p", "3", "--n", "4", "--m", "2", "--r", "10",
                       "--kind", "rational", "--oracle", "--format", "json")
    assert rational.returncode == 0
    doc = json.loads(rational.stdout)
    rows = {row["lambda"]: (row["count"], row["oracle"]) for row in doc["rows"]}
    assert rows == {0: (1, 1), 1: (4, 4), 2: (12, 12), 3: (3, 3), 4: (1, 1)}


def test_sweep_rows_and_threads():
    serial = run_cli("sweep", "--p", "3", "--max-order", "243", "--format", "json")
    assert serial.returncode == 0
    rows = [json.loads(line) for line in serial.stdout.splitlines()]
    assert len(rows) == 7
    assert all(row["dim_ok"] for row in rows)
    for row in rows:
        assert json.loads(json.dumps(row)) == row

    threaded = run_cli("sweep", "--p", "3", "--max-order", "243",
                       "--format", "json", "--threads", "2")
    assert threaded.returncode == 0
    assert threaded.stdout == serial.stdout


def run_main(capsys, argv):
    from metacyclic import cli

    code = cli.main(argv.split())
    out, err = capsys.readouterr()
    return code, out, err


def test_oversized_input_rejected_fast():
    for argv in (
        "decompose --p 3 --n 30000000 --m 2 --r 10",
        "decompose --p 3 --n 30000000 --m 2 --s 1",
        "decompose --p 1000000000000000003 --n 2 --m 1 --r 4",
        "decompose --p 1000000000000000004 --n 2 --m 1 --r 4",
    ):
        start = time.perf_counter()
        proc = run_cli(*argv.split())
        assert time.perf_counter() - start < 2, argv
        assert proc.returncode == 4, (argv, proc.stderr)
        assert proc.stdout == ""


def test_verify_all_checks_oracle_bound_before_first_row(capsys):
    from metacyclic.group import valid_parameter_sets

    code, out, err = run_main(capsys, "verify --p 3 --all --max-order 100000")
    assert (code, out) == (4, "")
    assert "exceeds the oracle bound" in err
    code, out, _ = run_main(capsys, "verify --p 3 --all --max-order 15000")
    assert code == 0
    groups = len(list(valid_parameter_sets(3, 3 ** 8)))  # 3^9 > 15000
    assert out.count("VERIFIED") == len(out.splitlines()) == groups


def test_sweep_oracle_checks_oracle_bound_before_first_row(capsys, monkeypatch):
    from metacyclic import verify

    def never(params):
        raise AssertionError(f"cross_validate ran on {params}")

    monkeypatch.setattr(verify, "cross_validate", never)
    code, out, err = run_main(capsys, "sweep --p 3 --max-order 100000 --oracle")
    assert (code, out) == (4, "")
    assert err == "size bound: |G| = 19683 exceeds the oracle bound 10000\n"


def test_r_equal_to_one_points_to_s0(capsys):
    # the message names s = 0, which the library (`from_s`) and every
    # subcommand with group parameters (`--s 0`) accept
    for argv in ("counts --p 3 --n 2 --m 1 --r 10 --kind complex",
                 "decompose --p 3 --n 2 --m 1 --r 1",
                 "verify --p 3 --n 2 --m 1 --r 10"):
        code, out, err = run_main(capsys, argv)
        assert (code, out) == (2, "")
        assert err == "validation error: r = 1 mod p^n is the abelian group: use s = 0\n"
        code, _, _ = run_main(capsys, argv.replace("--r 10", "--s 0").replace("--r 1", "--s 0"))
        assert code == 0


def test_verify_abelian_json_and_deep(capsys):
    code, out, _ = run_main(capsys, "verify --p 3 --n 2 --m 2 --abelian --format json")
    assert code == 0
    doc = json.loads(out)
    assert doc["provenance"] == "both (verified)"
    assert (doc["s"], doc["order"], doc["complex_counts"]) == (0, 81, {"1": 81})
    code, out, err = run_main(capsys, "verify --p 3 --n 2 --m 2 --abelian --deep")
    assert (code, out) == (1, "")
    assert "--deep needs s >= 1" in err


def test_counts_oracle_mismatch_is_internal_inconsistency(capsys, monkeypatch):
    from metacyclic import complex_reps, rational

    real = complex_reps.enumerate_irreducibles
    monkeypatch.setattr(complex_reps, "enumerate_irreducibles",
                        lambda params: real(params)[1:])
    code, out, err = run_main(capsys, "counts --p 3 --n 2 --m 2 --r 4 --kind complex --oracle")
    assert (code, out) == (5, "")
    assert "complex count mismatch at degree 1" in err

    monkeypatch.setattr(complex_reps, "enumerate_irreducibles", real)
    real_counts = rational.rational_counts_from_classes
    monkeypatch.setattr(rational, "rational_counts_from_classes",
                        lambda classes, params: {**real_counts(classes, params), 2: 0})
    code, out, err = run_main(capsys, "counts --p 3 --n 2 --m 2 --r 4 --kind rational --oracle")
    assert (code, out) == (5, "")
    assert "rational count mismatch at degree 2" in err

    # an oracle degree that has no closed-form row is compared too
    monkeypatch.setattr(rational, "rational_counts_from_classes",
                        lambda classes, params: {**real_counts(classes, params), 999: 1})
    code, out, err = run_main(capsys, "counts --p 3 --n 2 --m 2 --r 4 --kind rational --oracle")
    assert (code, out) == (5, "")
    assert "rational count mismatch at degree 999" in err

    monkeypatch.setattr(complex_reps, "enumerate_irreducibles",
                        lambda params: real(params) + [complex_reps.IrreducibleCharacter(2, 1, 0, 9)])
    code, out, err = run_main(capsys, "counts --p 3 --n 2 --m 2 --r 4 --kind complex --oracle")
    assert (code, out) == (5, "")
    assert "complex count mismatch at degree 9" in err


def test_counts_oracle_agrees_on_the_oracle_grid(capsys):
    from metacyclic.group import valid_parameter_sets

    for p in (3, 5, 7):
        for params in valid_parameter_sets(p, 10 ** 4):
            for kind in ("complex", "rational"):
                argv = (f"counts --p {p} --n {params.n} --m {params.m} --s {params.s} "
                        f"--kind {kind} --oracle --format json")
                code, out, err = run_main(capsys, argv)
                assert (code, err) == (0, ""), argv
                rows = json.loads(out)["rows"]
                assert rows and all(row["oracle"] == row["count"] for row in rows), argv


def test_sweep_threads_validated_and_capped(capsys, monkeypatch):
    import concurrent.futures

    sizes = []

    class SerialPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    code, out, err = run_main(capsys, "sweep --p 3 --max-order 243 --threads 0")
    assert (code, out) == (1, "")
    assert "--threads must be >= 1" in err

    _, serial, _ = run_main(capsys, "sweep --p 3 --max-order 243")
    for cpus, threads, expected in ((4, 1000, [4]), (64, 1000, [7]), (64, 3, [3]),
                                    (None, 1000, []), (64, 1, [])):
        sizes.clear()
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        code, out, _ = run_main(capsys, f"sweep --p 3 --max-order 243 --threads {threads}")
        assert (code, out) == (0, serial)
        assert sizes == expected  # 7 rows: min(threads, rows, cpus) workers


def test_cli_import_starts_no_process_pool_machinery():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, metacyclic.cli; print('concurrent.futures.process' in sys.modules)"],
        capture_output=True, text=True, env=env,
    )
    assert proc.stdout.strip() == "False", proc.stderr


# Runs in a fresh interpreter: closed-form commands first, then the oracle
# commands, reporting which oracle modules have executed after each phase.
IMPORT_GRAPH_SCRIPT = r"""
import contextlib, io, json, sys, types
import metacyclic

listed = set(metacyclic.__all__) <= set(dir(metacyclic))
from metacyclic import cli

def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv.split())
    return [code, out.getvalue(), err.getvalue()]

def state():
    oracle = ("cyclotomic", "complex_reps", "rational", "verify", "deep")
    return {
        "executed": [name for name in oracle
                     if type(sys.modules["metacyclic." + name]) is types.ModuleType],
        "stdlib": [name for name in ("fractions", "decimal", "cmath", "dataclasses", "inspect")
                   if name in sys.modules],
    }

doc = {"listed": listed}
for phase, argvs in zip(("closed", "oracle", "deep"), sys.argv[1:]):
    doc[phase] = [run(argv) for argv in json.loads(argvs)]
    doc["after_" + phase] = state()
print(json.dumps(doc))
"""

CLOSED_FORM_COMMANDS = [
    "decompose --p 3 --n 4 --m 2 --r 10",
    "decompose --p 3 --n 2 --m 3 --s 1 --format json",
    "counts --p 3 --n 4 --m 2 --r 10 --kind complex",
    "counts --p 3 --n 4 --m 2 --r 10 --kind rational",
    "sweep --p 3 --max-order 243",
    "decompose --p 4 --n 2 --m 1 --r 3",
]

COUNTS_ORACLE = (
    "counts --p 3 --n 4 --m 2 --r 10 --kind rational --oracle",
    "lambda  degree  count  oracle\n"
    "0       1       1      1     \n"
    "1       2       4      4     \n"
    "2       6       12     12    \n"
    "3       18      3      3     \n"
    "4       54      1      1     \n"
    "total 21\n",
)


def test_closed_form_commands_execute_no_oracle_module():
    # three phases in one interpreter: closed-form commands run no oracle
    # module; oracle commands that evaluate no character leave `cyclotomic`
    # and `deep` unexecuted (and `fractions` unloaded); only `--deep` runs
    # the deep checks and evaluates characters
    oracle = ["verify --p 3 --all --max-order 243", COUNTS_ORACLE[0],
              "counts --p 3 --n 4 --m 2 --r 10 --kind complex --oracle"]
    deep = "verify --p 3 --n 2 --m 2 --r 4 --deep"
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_GRAPH_SCRIPT,
         json.dumps(CLOSED_FORM_COMMANDS), json.dumps(oracle), json.dumps([deep])],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["listed"]
    assert [code for code, _, _ in doc["closed"]] == [0, 0, 0, 0, 0, 2]
    assert doc["closed"][0][1] == GOLDEN[(3, 4, 2, 10)] + "\n"
    assert doc["after_closed"] == {"executed": [], "stdlib": []}
    (all_code, all_out, all_err), counts, complex_counts = doc["oracle"]
    assert (all_code, all_err) == (0, "")
    assert all_out and all(
        line.startswith("VERIFIED ") for line in all_out.splitlines()
    )
    assert counts == [0, COUNTS_ORACLE[1], ""]
    assert complex_counts[0] == 0 and complex_counts[1].endswith("total 105\n")
    assert doc["after_oracle"] == {
        "executed": ["complex_reps", "rational", "verify"],
        "stdlib": [],
    }
    [(deep_code, deep_out, deep_err)] = doc["deep"]
    assert (deep_code, deep_err) == (0, DEEP_REPORTS[deep])
    assert deep_out.startswith("VERIFIED p=3 n=2 m=2 s=1 r=4 |G|=81: ")
    assert doc["after_deep"] == {
        "executed": ["cyclotomic", "complex_reps", "rational", "verify", "deep"],
        "stdlib": ["fractions", "decimal"],
    }


def test_star_import_binds_the_home_module_objects():
    import importlib

    import metacyclic

    namespace = {}
    exec("from metacyclic import *", namespace)
    for name in metacyclic.__all__:
        obj = namespace[name]
        assert getattr(importlib.import_module(obj.__module__), name) is obj, name
    assert set(metacyclic.__all__) <= set(dir(metacyclic))
    with pytest.raises(AttributeError):
        metacyclic.no_such_name
    # the public API, name by name: a change to it is a change to this list
    assert sorted(metacyclic.__all__) == sorted([
        "p_adic_valuation", "split_r",
        "CyclotomicElement", "root_power", "galois_apply", "minimal_level",
        "GroupElement", "GroupParams", "validate", "from_s", "conjugacy_classes",
        "IrreducibleCharacter", "orbit_decomposition", "enumerate_irreducibles",
        "complex_counts_from_characters", "character_value",
        "GaloisClass", "SimpleComponent", "WedderburnDecomposition",
        "character_field_level", "galois_classes", "wedderburn_from_classes",
        "rational_counts_from_classes",
        "wedderburn_closed_form", "rational_counts_closed_form", "complex_counts_closed_form",
        "cross_validate", "decomposition_via_oracle", "DeepChecker",
        "MetacyclicError", "ValidationError", "SizeBoundError", "InternalInconsistencyError",
    ])


# The whole `verify --deep` stderr report for three groups (|G| = 81, 729
# and 2401, the last a benchmark deep group): the detail strings are part
# of the output, orthogonality covers all #Irr (#Irr + 1) / 2 pairs at every
# order, and test_cli_contract.py pins stdout only.
DEEP_REPORTS = {
    "verify --p 3 --n 2 --m 2 --r 4 --deep": (
        "deep p=3 n=2 m=2 s=1 r=4 counts: OK classes=33 chars=33\n"
        "deep p=3 n=2 m=2 s=1 r=4 class_functions: OK chars=33 classes=33\n"
        "deep p=3 n=2 m=2 s=1 r=4 orthogonality: OK all pairs (561)\n"
        "deep p=3 n=2 m=2 s=1 r=4 galois_action: OK chars=33 triples=6\n"
        "deep p=3 n=2 m=2 s=1 r=4 matrix_relations: OK degrees checked=[3]\n"
        "deep p=3 n=2 m=2 s=1 r=4 value_agreement: OK samples=50\n"
        "deep p=3 n=2 m=2 s=1 r=4 rational_counts: OK degrees=[1, 2, 6]\n"
        "deep p=3 n=2 m=2 s=1 r=4 decomposition: OK\n"
    ),
    "verify --p 3 --n 4 --m 2 --s 1 --deep": (
        "deep p=3 n=4 m=2 s=1 r=28 counts: OK classes=297 chars=297\n"
        "deep p=3 n=4 m=2 s=1 r=28 class_functions: OK chars=297 classes=297\n"
        "deep p=3 n=4 m=2 s=1 r=28 orthogonality: OK all pairs (44253)\n"
        "deep p=3 n=4 m=2 s=1 r=28 galois_action: OK chars=297 triples=8\n"
        "deep p=3 n=4 m=2 s=1 r=28 matrix_relations: OK degrees checked=[3]\n"
        "deep p=3 n=4 m=2 s=1 r=28 value_agreement: OK samples=50\n"
        "deep p=3 n=4 m=2 s=1 r=28 rational_counts: OK degrees=[1, 2, 6, 18, 54]\n"
        "deep p=3 n=4 m=2 s=1 r=28 decomposition: OK\n"
    ),
    "verify --p 7 --n 2 --m 2 --s 1 --deep": (
        "deep p=7 n=2 m=2 s=1 r=8 counts: OK classes=385 chars=385\n"
        "deep p=7 n=2 m=2 s=1 r=8 class_functions: OK chars=385 classes=385\n"
        "deep p=7 n=2 m=2 s=1 r=8 orthogonality: OK all pairs (74305)\n"
        "deep p=7 n=2 m=2 s=1 r=8 galois_action: OK chars=385 triples=12\n"
        "deep p=7 n=2 m=2 s=1 r=8 matrix_relations: OK degrees checked=[7]\n"
        "deep p=7 n=2 m=2 s=1 r=8 value_agreement: OK samples=50\n"
        "deep p=7 n=2 m=2 s=1 r=8 rational_counts: OK degrees=[1, 6, 42]\n"
        "deep p=7 n=2 m=2 s=1 r=8 decomposition: OK\n"
    ),
}


def test_verify_deep_report_pinned(capsys):
    for argv, report in DEEP_REPORTS.items():
        code, out, err = run_main(capsys, argv)
        assert code == 0
        assert out.startswith("VERIFIED ")
        assert err == report


def test_verify_deep_failure_reports_and_exits_3(capsys, escaping_galois_image):
    # a failed deep check is a mismatch (exit 3) after the full report
    code, out, err = run_main(capsys, "verify --p 3 --n 2 --m 1 --r 4 --deep")
    assert code == 3
    assert out == "MISMATCH p=3 n=2 m=1 s=1 r=4 deep checks failed: galois_action\n"
    lines = err.splitlines()
    assert len(lines) == 8 and all(line.startswith("deep ") for line in lines)
    statuses = [line.split(": ", 1)[1].split()[0] for line in lines]
    assert statuses == ["OK", "OK", "OK", "FAIL", "OK", "OK", "OK", "OK"]
    assert "galois_action: FAIL" in lines[3]


def test_verify_deep_runs_each_oracle_stage_once(capsys, monkeypatch):
    # the deep checks read Irr(G), the Galois classes and the component
    # diff from the cross-check instead of computing them again
    from metacyclic import deep, verify
    from metacyclic.group import validate

    stages = ["enumerate_irreducibles", "galois_classes", "wedderburn_closed_form"]
    calls = []
    for name in stages:
        def counting(*args, name=name, real=getattr(verify, name)):
            calls.append(name)
            return real(*args)

        monkeypatch.setattr(verify, name, counting)
    code, out, _ = run_main(capsys, "verify --p 3 --n 2 --m 2 --r 4 --deep")
    assert code == 0 and out.startswith("VERIFIED ")
    assert sorted(calls) == stages
    cross = verify.cross_validate(validate(3, 2, 2, 4))
    checker = deep.DeepChecker(cross)
    assert checker.chars is cross.chars and checker.galois is cross.classes


def test_oracle_grid_sweep_tests_primality_211_times(capsys, monkeypatch):
    # p is checked once per group, not once per valuation or Galois class
    from metacyclic import arith

    calls = []
    real = arith.is_prime
    monkeypatch.setattr(arith, "is_prime", lambda x: calls.append(x) or real(x))
    arith.unit_group_generator.cache_clear()  # an earlier test may have warmed it
    code, out, _ = run_main(capsys, "verify --p 3 --all --max-order 10000")
    assert code == 0 and out.count("VERIFIED") == len(out.splitlines()) == 34
    assert len(calls) == 211


def test_unexpected_exception_exits_5_without_traceback(capsys, monkeypatch):
    from metacyclic import cli

    def boom(args):
        raise RuntimeError("boom")

    monkeypatch.setitem(cli._COMMANDS, "decompose", boom)
    code, out, err = run_main(capsys, "decompose --p 3 --n 4 --m 2 --r 10")
    assert (code, out, err) == (5, "", "internal error: RuntimeError: boom\n")

    def interrupted(args):
        raise KeyboardInterrupt

    monkeypatch.setitem(cli._COMMANDS, "decompose", interrupted)
    with pytest.raises(KeyboardInterrupt):
        cli.main("decompose --p 3 --n 4 --m 2 --r 10".split())
