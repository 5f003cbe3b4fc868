"""The CLI contract: stdout and exit code of a fixed corpus of commands.

Each case runs `cli.main(argv)` in process. The expected stdout and exit
codes were recorded before the verify, counts and validation paths were
merged, so any change here is a change of the documented contract: every
subcommand and output format, `verify --abelian`, `--deep`, `--all`,
`--oracle` columns, and exit codes 1-4. The mismatch rows run under the
patched closed form (the `corrupted_closed_form` fixture).
"""

import pytest

from metacyclic import cli

CONTRACT = [
    (
        "decompose --p 3 --n 4 --m 2 --r 10",
        0,
        "Q + 4*Q(z3) + 12*Q(z9) + 3*M3(Q(z9)) + M9(Q(z9))\n",
    ),
    (
        "decompose --p 3 --n 2 --m 3 --s 1 --format json",
        0,
        (
            '{"p": 3, "n": 2, "m": 3, "r": 4, "s": 1, "k": 1, "order": 243, "canonical_r"'
            ': 4, "components": [{"q": 1, "lambda": 0, "mult": 1}, {"q": 1, "lambda": 1, '
            '"mult": 4}, {"q": 1, "lambda": 2, "mult": 3}, {"q": 1, "lambda": 3, "mult": '
            '3}, {"q": 3, "lambda": 1, "mult": 3}, {"q": 3, "lambda": 2, "mult": 2}], "co'
            'mplex_counts": {"1": 81, "3": 18}, "rational_counts": {"1": 1, "2": 4, "6": '
            '6, "18": 5}, "provenance": "closed_form"}\n'
        ),
    ),
    ("decompose --p 3 --n 1 --m 1 --abelian", 0, "Q + 4*Q(z3)\n"),
    (
        "decompose --p 3 --n 2 --m 2 --abelian --format json",
        0,
        (
            '{"p": 3, "n": 2, "m": 2, "r": 1, "s": 0, "k": 0, "order": 81, "canonical_r":'
            ' 1, "components": [{"q": 1, "lambda": 0, "mult": 1}, {"q": 1, "lambda": 1, "'
            'mult": 4}, {"q": 1, "lambda": 2, "mult": 12}], "complex_counts": {"1": 81}, '
            '"rational_counts": {"1": 1, "2": 4, "6": 12}, "provenance": "closed_form"}\n'
        ),
    ),
    # r is stored as 1 in every abelian group, also at n = 0 (was "r": 0)
    (
        "decompose --p 3 --n 0 --m 1 --abelian --format json",
        0,
        (
            '{"p": 3, "n": 0, "m": 1, "r": 1, "s": 0, "k": 0, "order": 3, "canonical_r": '
            '1, "components": [{"q": 1, "lambda": 0, "mult": 1}, {"q": 1, "lambda": 1, "m'
            'ult": 1}], "complex_counts": {"1": 3}, "rational_counts": {"1": 1, "2": 1}, '
            '"provenance": "closed_form"}\n'
        ),
    ),
    (
        "decompose --p 5 --n 3 --m 2 --r 6",
        0,
        "Q + 6*Q(z5) + 5*Q(z25) + 5*M5(Q(z5)) + M25(Q(z5))\n",
    ),
    (
        "verify --p 3 --n 2 --m 3 --r 4",
        0,
        (
            "VERIFIED p=3 n=2 m=3 s=1 r=4 |G|=243: Q + 4*Q(z3) + 3*Q(z9) + 3*Q(z27) + 3*M"
            "3(Q(z3)) + 2*M3(Q(z9))\n"
        ),
    ),
    (
        "verify --p 3 --n 2 --m 2 --r 4 --format json",
        0,
        (
            '{"p": 3, "n": 2, "m": 2, "r": 4, "s": 1, "k": 1, "order": 81, "canonical_r":'
            ' 4, "components": [{"q": 1, "lambda": 0, "mult": 1}, {"q": 1, "lambda": 1, "'
            'mult": 4}, {"q": 1, "lambda": 2, "mult": 3}, {"q": 3, "lambda": 1, "mult": 3'
            '}], "complex_counts": {"1": 27, "3": 6}, "rational_counts": {"1": 1, "2": 4,'
            ' "6": 6}, "provenance": "both (verified)"}\n'
        ),
    ),
    (
        "verify --p 3 --n 2 --m 2 --r 4 --deep",
        0,
        "VERIFIED p=3 n=2 m=2 s=1 r=4 |G|=81: Q + 4*Q(z3) + 3*Q(z9) + 3*M3(Q(z3))\n",
    ),
    (
        "verify --p 3 --n 2 --m 2 --r 4 --deep --format json",
        0,
        (
            '{"p": 3, "n": 2, "m": 2, "r": 4, "s": 1, "k": 1, "order": 81, "canonical_r":'
            ' 4, "components": [{"q": 1, "lambda": 0, "mult": 1}, {"q": 1, "lambda": 1, "'
            'mult": 4}, {"q": 1, "lambda": 2, "mult": 3}, {"q": 3, "lambda": 1, "mult": 3'
            '}], "complex_counts": {"1": 27, "3": 6}, "rational_counts": {"1": 1, "2": 4,'
            ' "6": 6}, "provenance": "both (verified)"}\n'
        ),
    ),
    (
        "verify --p 3 --all --max-order 243",
        0,
        (
            "VERIFIED p=3 n=2 m=1 s=1 r=4 |G|=27: Q + 4*Q(z3) + M3(Q(z3))\n"
            "VERIFIED p=3 n=2 m=2 s=1 r=4 |G|=81: Q + 4*Q(z3) + 3*Q(z9) + 3*M3(Q(z3))\n"
            "VERIFIED p=3 n=3 m=1 s=1 r=10 |G|=81: Q + 4*Q(z3) + 3*Q(z9) + M3(Q(z9))\n"
            "VERIFIED p=3 n=2 m=3 s=1 r=4 |G|=243: Q + 4*Q(z3) + 3*Q(z9) + 3*Q(z27) + 3*M"
            "3(Q(z3)) + 2*M3(Q(z9))\n"
            "VERIFIED p=3 n=3 m=2 s=1 r=10 |G|=243: Q + 4*Q(z3) + 12*Q(z9) + 3*M3(Q(z9))\n"
            "VERIFIED p=3 n=3 m=2 s=2 r=4 |G|=243: Q + 4*Q(z3) + 3*Q(z9) + 3*M3(Q(z3)) + "
            "M9(Q(z3))\n"
            "VERIFIED p=3 n=4 m=1 s=1 r=28 |G|=243: Q + 4*Q(z3) + 3*Q(z9) + 3*Q(z27) + M3"
            "(Q(z27))\n"
        ),
    ),
    (
        "verify --p 5 --all --max-order 3125",
        0,
        (
            "VERIFIED p=5 n=2 m=1 s=1 r=6 |G|=125: Q + 6*Q(z5) + M5(Q(z5))\n"
            "VERIFIED p=5 n=2 m=2 s=1 r=6 |G|=625: Q + 6*Q(z5) + 5*Q(z25) + 5*M5(Q(z5))\n"
            "VERIFIED p=5 n=3 m=1 s=1 r=26 |G|=625: Q + 6*Q(z5) + 5*Q(z25) + M5(Q(z25))\n"
            "VERIFIED p=5 n=2 m=3 s=1 r=6 |G|=3125: Q + 6*Q(z5) + 5*Q(z25) + 5*Q(z125) + "
            "5*M5(Q(z5)) + 4*M5(Q(z25))\n"
            "VERIFIED p=5 n=3 m=2 s=1 r=26 |G|=3125: Q + 6*Q(z5) + 30*Q(z25) + 5*M5(Q(z25"
            "))\n"
            "VERIFIED p=5 n=3 m=2 s=2 r=6 |G|=3125: Q + 6*Q(z5) + 5*Q(z25) + 5*M5(Q(z5)) "
            "+ M25(Q(z5))\n"
            "VERIFIED p=5 n=4 m=1 s=1 r=126 |G|=3125: Q + 6*Q(z5) + 5*Q(z25) + 5*Q(z125) "
            "+ M5(Q(z125))\n"
        ),
    ),
    (
        "verify --p 3 --n 2 --m 2 --abelian",
        0,
        "VERIFIED abelian p=3 n=2 m=2: Q + 4*Q(z3) + 12*Q(z9)\n",
    ),
    (
        "verify --p 3 --n 2 --m 2 --s 0",
        0,
        "VERIFIED abelian p=3 n=2 m=2: Q + 4*Q(z3) + 12*Q(z9)\n",
    ),
    (
        "verify --p 5 --n 0 --m 3 --abelian",
        0,
        "VERIFIED abelian p=5 n=0 m=3: Q + Q(z5) + Q(z25) + Q(z125)\n",
    ),
    (
        "counts --p 3 --n 4 --m 2 --r 10 --kind complex",
        0,
        (
            "degree  count\n"
            "1       81   \n"
            "3       18   \n"
            "9       6    \n"
            "total 105\n"
        ),
    ),
    (
        "counts --p 3 --n 4 --m 2 --r 10 --kind complex --oracle",
        0,
        (
            "degree  count  oracle\n"
            "1       81     81    \n"
            "3       18     18    \n"
            "9       6      6     \n"
            "total 105\n"
        ),
    ),
    (
        "counts --p 3 --n 4 --m 2 --r 10 --kind rational",
        0,
        (
            "lambda  degree  count\n"
            "0       1       1    \n"
            "1       2       4    \n"
            "2       6       12   \n"
            "3       18      3    \n"
            "4       54      1    \n"
            "total 21\n"
        ),
    ),
    (
        "counts --p 3 --n 4 --m 2 --r 10 --kind rational --oracle",
        0,
        (
            "lambda  degree  count  oracle\n"
            "0       1       1      1     \n"
            "1       2       4      4     \n"
            "2       6       12     12    \n"
            "3       18      3      3     \n"
            "4       54      1      1     \n"
            "total 21\n"
        ),
    ),
    (
        "counts --p 3 --n 3 --m 3 --s 2 --kind rational --oracle --format json",
        0,
        (
            '{"kind": "rational", "p": 3, "n": 3, "m": 3, "r": 4, "s": 2, "rows": [{"lamb'
            'da": 0, "degree": 1, "count": 1, "oracle": 1}, {"lambda": 1, "degree": 2, "c'
            'ount": 4, "oracle": 4}, {"lambda": 2, "degree": 6, "count": 6, "oracle": 6},'
            ' {"lambda": 3, "degree": 18, "count": 8, "oracle": 8}], "total": 19}\n'
        ),
    ),
    (
        "counts --p 3 --n 3 --m 3 --s 2 --kind complex --oracle --format json",
        0,
        (
            '{"kind": "complex", "p": 3, "n": 3, "m": 3, "r": 4, "s": 2, "rows": [{"degre'
            'e": 1, "count": 81, "oracle": 81}, {"degree": 3, "count": 18, "oracle": 18},'
            ' {"degree": 9, "count": 6, "oracle": 6}], "total": 105}\n'
        ),
    ),
    (
        "sweep --p 3 --max-order 243",
        0,
        (
            "p=3 n=2 m=1 s=1 r=4 order=27 components=3 dim_ok=True\n"
            "p=3 n=2 m=2 s=1 r=4 order=81 components=4 dim_ok=True\n"
            "p=3 n=3 m=1 s=1 r=10 order=81 components=4 dim_ok=True\n"
            "p=3 n=2 m=3 s=1 r=4 order=243 components=6 dim_ok=True\n"
            "p=3 n=3 m=2 s=1 r=10 order=243 components=4 dim_ok=True\n"
            "p=3 n=3 m=2 s=2 r=4 order=243 components=5 dim_ok=True\n"
            "p=3 n=4 m=1 s=1 r=28 order=243 components=5 dim_ok=True\n"
        ),
    ),
    (
        "sweep --p 3 --max-order 243 --oracle --format json",
        0,
        (
            '{"p": 3, "n": 2, "m": 1, "s": 1, "r": 4, "order": 27, "components": 3, "dim_'
            'ok": true, "oracle_match": true}\n'
            '{"p": 3, "n": 2, "m": 2, "s": 1, "r": 4, "order": 81, "components": 4, "dim_'
            'ok": true, "oracle_match": true}\n'
            '{"p": 3, "n": 3, "m": 1, "s": 1, "r": 10, "order": 81, "components": 4, "dim'
            '_ok": true, "oracle_match": true}\n'
            '{"p": 3, "n": 2, "m": 3, "s": 1, "r": 4, "order": 243, "components": 6, "dim'
            '_ok": true, "oracle_match": true}\n'
            '{"p": 3, "n": 3, "m": 2, "s": 1, "r": 10, "order": 243, "components": 4, "di'
            'm_ok": true, "oracle_match": true}\n'
            '{"p": 3, "n": 3, "m": 2, "s": 2, "r": 4, "order": 243, "components": 5, "dim'
            '_ok": true, "oracle_match": true}\n'
            '{"p": 3, "n": 4, "m": 1, "s": 1, "r": 28, "order": 243, "components": 5, "di'
            'm_ok": true, "oracle_match": true}\n'
        ),
    ),
    # s = 0 is the abelian group: every complex irreducible is linear
    ("counts --p 3 --n 2 --m 2 --s 0 --kind complex", 0, "degree  count\n1       81   \ntotal 81\n"),
    (
        "counts --p 3 --n 1 --m 2 --s 0 --kind rational --oracle",
        0,
        (
            "lambda  degree  count  oracle\n"
            "0       1       1      1     \n"
            "1       2       4      4     \n"
            "2       6       3      3     \n"
            "total 8\n"
        ),
    ),
    ("decompose --p 3 --n 2", 1, ""),
    ("verify --p 3 --n 2", 1, ""),
    ("verify --p 3 --all", 1, ""),
    ("verify --p 3 --n 2 --m 2", 1, ""),
    # the closed form's mismatch paths are reached by patching, not by a flag
    ("verify --p 3 --n 2 --m 3 --r 4 --corrupt-hook", 1, ""),
    ("counts --p 3 --n 2 --m 2 --r 4 --abelian --kind complex", 1, ""),
    ("decompose --p 4 --n 2 --m 1 --r 3", 2, ""),
    ("decompose --p 2 --n 2 --m 1 --r 3", 2, ""),
    ("decompose --p 3 --n 2 --m 1 --r 2", 2, ""),
    ("decompose --p 3 --n 2 --m 1 --abelian --s 1", 2, ""),
    ("verify --p 3 --n 9 --m 1 --s 1", 4, ""),
    ("decompose --p 3 --n 12 --m 5 --s 1", 4, ""),
    ("counts --p 3 --n 8 --m 2 --s 1 --kind complex --oracle", 4, ""),
    ("counts --p 3 --n 8 --m 2 --s 0 --kind complex --oracle", 4, ""),
    ("sweep --p 3 --max-order 100000000", 4, ""),
    ("decompose --p 10000019 --n 2 --m 1 --r 4", 4, ""),
    ("verify --p 4 --all --max-order 10", 2, ""),
    ("sweep --p 4 --max-order 10", 2, ""),
    ("sweep --p 1000000000000000003 --max-order 10", 4, ""),
    ("verify --p 3 --all --max-order 0", 1, ""),
    ("verify --p 3 --all --max-order -5", 1, ""),
    ("sweep --p 3 --max-order 0", 1, ""),
    ("sweep --p 3 --max-order -5", 1, ""),
    ("verify --p 3 --n 2 --m 2 --r 4 --max-order 5", 1, ""),
    # --all sweeps every group, so a per-group flag beside it is a usage error
    ("verify --p 3 --all --max-order 100 --abelian", 1, ""),
    ("verify --p 3 --all --max-order 100 --n 2", 1, ""),
]


# Run with the `corrupted_closed_form` fixture: the closed form that
# `verify` compares against the oracle has one more copy of its first
# component, so every group mismatches.
PATCHED_CONTRACT = [
    (
        "verify --p 3 --n 2 --m 3 --r 4",
        3,
        (
            "MISMATCH p=3 n=2 m=3 s=1 r=4\n"
            "  q=1 lambda=0: closed=2 oracle=1\n"
        ),
    ),
    (
        "verify --p 3 --all --max-order 243",
        3,
        (
            "MISMATCH p=3 n=2 m=1 s=1 r=4\n"
            "  q=1 lambda=0: closed=2 oracle=1\n"
            "MISMATCH p=3 n=2 m=2 s=1 r=4\n"
            "  q=1 lambda=0: closed=2 oracle=1\n"
            "MISMATCH p=3 n=3 m=1 s=1 r=10\n"
            "  q=1 lambda=0: closed=2 oracle=1\n"
            "MISMATCH p=3 n=2 m=3 s=1 r=4\n"
            "  q=1 lambda=0: closed=2 oracle=1\n"
            "MISMATCH p=3 n=3 m=2 s=1 r=10\n"
            "  q=1 lambda=0: closed=2 oracle=1\n"
            "MISMATCH p=3 n=3 m=2 s=2 r=4\n"
            "  q=1 lambda=0: closed=2 oracle=1\n"
            "MISMATCH p=3 n=4 m=1 s=1 r=28\n"
            "  q=1 lambda=0: closed=2 oracle=1\n"
        ),
    ),
    (
        "verify --p 3 --n 2 --m 2 --abelian",
        3,
        (
            "MISMATCH abelian p=3 n=2 m=2\n"
            "  q=1 lambda=0: closed=2 oracle=1\n"
        ),
    ),
    (
        "verify --p 3 --n 2 --m 3 --r 4 --format json",
        3,
        (
            "MISMATCH p=3 n=2 m=3 s=1 r=4\n"
            "  q=1 lambda=0: closed=2 oracle=1\n"
        ),
    ),
    # no deep check starts after a mismatch
    (
        "verify --p 3 --n 2 --m 1 --r 4 --deep",
        3,
        (
            "MISMATCH p=3 n=2 m=1 s=1 r=4\n"
            "  q=1 lambda=0: closed=2 oracle=1\n"
        ),
    ),
    # the row's own closed form is unpatched, so dim_ok stays True
    (
        "sweep --p 3 --max-order 81 --oracle --threads 1",
        3,
        (
            "p=3 n=2 m=1 s=1 r=4 order=27 components=3 dim_ok=True oracle_match=False\n"
            "p=3 n=2 m=2 s=1 r=4 order=81 components=4 dim_ok=True oracle_match=False\n"
            "p=3 n=3 m=1 s=1 r=10 order=81 components=4 dim_ok=True oracle_match=False\n"
        ),
    ),
]


@pytest.mark.parametrize("argv, code, stdout", CONTRACT, ids=[c[0] for c in CONTRACT])
def test_cli_contract(argv, code, stdout, capsys):
    assert cli.main(argv.split()) == code
    assert capsys.readouterr().out == stdout


@pytest.mark.parametrize(
    "argv, code, stdout", PATCHED_CONTRACT, ids=[c[0] for c in PATCHED_CONTRACT]
)
def test_cli_contract_patched_closed_form(argv, code, stdout, capsys, corrupted_closed_form):
    assert cli.main(argv.split()) == code
    assert capsys.readouterr().out == stdout


def test_mismatch_stderr_under_patched_closed_form(capsys, corrupted_closed_form):
    # `--threads 1`: a patch does not reach pool workers under a non-fork
    # start method
    assert cli.main("sweep --p 3 --max-order 81 --oracle --threads 1".split()) == 3
    assert capsys.readouterr().err == "3 rows mismatched the oracle\n"
    assert cli.main("verify --p 3 --n 2 --m 1 --r 4 --deep".split()) == 3
    assert capsys.readouterr().err == ""
