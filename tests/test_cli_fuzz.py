"""Seeded fuzz of the CLI, run in process through `cli.main`.

Valid parameter tuples (twists with k != 1 and unreduced r, `--s`, abelian
groups) are mixed with malformed ones: tokens replaced by bad values,
dropped, or joined by stray flags. Every exit code must be documented
(0-5), stderr must never carry a traceback or an "internal error" line, and
a `decompose` that succeeds must print a canonical decomposition of
dimension |G|. The loop stops after CASES commands or BUDGET_S seconds,
whichever comes first. `--threads` is never passed, so `sweep` keeps its
single worker and the fuzz starts no process.
"""

import json
import time
from random import Random

from metacyclic import cli

SEED = 20240
CASES = 400
BUDGET_S = 2.5
PRIMES = (3, 5, 7, 11)
BAD_VALUES = ("-7", "-1", "0", "1", "2", "4", "9", "x", "", "3.0", "10000019",
              "1000000000000000003", "99999999999999999999")
STRAY_FLAGS = ("--abelian", "--oracle", "--all", "--r", "--s", "--bogus",
               "--format", "--kind", "json")


def _group(rng: Random) -> tuple[int, int, int, list[str]]:
    """(p, n, m, twist argv) of a valid group, abelian one time in six, or
    one time in six an arbitrary r, which is mostly not a valid twist."""
    p = rng.choice(PRIMES)
    n, m = rng.randint(2, 5), rng.randint(1, 4)
    draw = rng.random()
    if draw < 1 / 6:
        return p, n, m, ["--abelian"]
    if draw < 2 / 6:
        return p, n, m, ["--r", str(rng.randint(-50, 500))]
    s = rng.randint(1, min(n - 1, m))
    if rng.random() < 0.3:
        return p, n, m, ["--s", str(s)]
    k = rng.choice([k for k in range(1, p ** s) if k % p])
    r = (1 + k * p ** (n - s)) % p ** n + rng.randint(-2, 2) * p ** n
    return p, n, m, ["--r", str(r)]


def _command(rng: Random) -> list[str]:
    p, n, m, twist = _group(rng)
    shape = ["--p", str(p), "--n", str(n), "--m", str(m)] + twist
    small = p ** (n + m) <= 729
    kind = rng.choice(("decompose", "decompose", "counts", "verify", "sweep"))
    if kind == "decompose":
        return ["decompose", *shape, "--format", rng.choice(("text", "json"))]
    if kind == "counts" and "--abelian" not in twist:
        oracle = ["--oracle"] if small else []
        return ["counts", *shape, "--kind", rng.choice(("complex", "rational")), *oracle]
    if kind == "verify" and small:
        return ["verify", *shape]
    return ["sweep", "--p", str(p), "--max-order", str(rng.choice((1, 81, 243, 10 ** 4)))]


def _mutate(rng: Random, argv: list[str]) -> list[str]:
    """One to three edits: a value replaced, a token dropped, or a stray
    flag or value inserted."""
    argv = list(argv)
    for _ in range(rng.randint(1, 3)):
        action = rng.randrange(3)
        index = rng.randrange(1, len(argv))
        values = [i for i, token in enumerate(argv) if i and not token.startswith("-")]
        if action == 0 and values:
            argv[rng.choice(values)] = rng.choice(BAD_VALUES)
        elif action == 1 and len(argv) > 2:
            del argv[index]
        else:
            argv.insert(index, rng.choice(STRAY_FLAGS + BAD_VALUES))
    return argv


def _check_decompose(argv: list[str], out: str) -> None:
    """The output, text or JSON, is a canonical decomposition of dimension
    |G| = p^(n+m), read from the last --p/--n/--m values as argparse does."""
    values = {flag: int(value) for flag, value in zip(argv, argv[1:])
              if flag in ("--p", "--n", "--m")}
    p = values["--p"]
    order = p ** (values["--n"] + values["--m"])
    if out.startswith("{"):
        doc = json.loads(out)
        assert (doc["p"], doc["order"]) == (p, order), argv
        report = cli.DecompositionReport.from_json_dict(doc)
        out = cli.format_decomposition(cli.WedderburnDecomposition(p, report.components))
    assert cli.parse_decomposition(out, p).dimension() == order, argv


def test_cli_fuzz(capsys):
    rng = Random(SEED)
    deadline = time.perf_counter() + BUDGET_S
    codes = []
    for _ in range(CASES):
        if time.perf_counter() > deadline:
            break
        argv = _command(rng)
        if rng.random() < 0.5:
            argv = _mutate(rng, argv)
        assert not any(token.startswith("--t") for token in argv)
        code = cli.main(argv)
        out, err = capsys.readouterr()
        assert code in range(6), (argv, code)
        assert "Traceback" not in err and "internal error" not in err, (argv, err)
        if code == 0 and argv[0] == "decompose":
            _check_decompose(argv, out)
        codes.append(code)
    assert len(codes) >= 50
    assert {0, 1, 2, 4} <= set(codes)
