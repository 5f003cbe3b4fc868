"""The three benchmark workloads: request lists and output checks.

A request is one `metacyclic` CLI process. Each workload is a sequence of
rounds; a round is a fixed list of requests that the harness runs back to
back, one process at a time (closed loop, one client). The expected result of
every request is worked out before its round starts, off the clock, from an
independent description of the input: the benchmark's own grid of (n, m, s)
triples, its own text parser, and `decomposition_via_oracle` run in the
benchmark process for groups of order at most 10^4.

Why each workload exists:

- cli_oneshot: short `decompose` / `counts` calls and rejections. The math
  takes microseconds, so interpreter start, imports, argparse and `validate`
  set the time. Lazy imports and early rejection of oversized input show
  here and almost nowhere else. Two requests per 100 use n = 3,000,000,
  which the seed code rejects only after computing p^(n+m); larger inputs
  (a prime near 10^18, n = 3*10^7) run past 20 s and would eat a whole run.
- oracle_grid: `verify --all --max-order 10000` for p = 3, 5, 7 (44
  non-abelian groups, one oracle pass each). Character enumeration and
  Galois orbits dominate; value tables and conjugacy classes are never built.
- deep_verify: `verify --deep` on three groups of order 2187, 3125 and 2401.
  Value tables and brute-force conjugacy classes dominate; the Galois route
  is a small share even though it runs three times per group.
"""

from __future__ import annotations

import json
import re
from collections import Counter
from dataclasses import dataclass, field
from random import Random

PRIMES = (3, 5, 7, 11)
FORMULA_BOUND = 10 ** 7
ORACLE_BOUND = 10 ** 4
BLOCK = 50  # cli_oneshot requests per round; a run has at least two rounds
LARGE_N = 3_000_000
LARGE_N_SLOT = 33  # fixed position of the round's n = 3,000,000 request

# Mirrors the golden strings of tests/test_acceptance.py (criterion 1).
GOLDEN = {
    (3, 4, 2, 10): "Q + 4*Q(z3) + 12*Q(z9) + 3*M3(Q(z9)) + M9(Q(z9))",
    (3, 3, 3, 4): "Q + 4*Q(z3) + 3*Q(z9) + 3*Q(z27) + 3*M3(Q(z3)) "
                  "+ 2*M3(Q(z9)) + 3*M9(Q(z3))",
    (3, 2, 3, 4): "Q + 4*Q(z3) + 3*Q(z9) + 3*Q(z27) + 3*M3(Q(z3)) + 2*M3(Q(z9))",
}

GRID_PRIMES = (3, 5, 7)
DEEP_GROUPS = ((3, 4, 3, 2), (5, 3, 2, 1), (7, 2, 2, 1))
DEEP_CHECKS = (
    "counts", "class_functions", "orthogonality", "galois_action",
    "matrix_relations", "value_agreement", "rational_counts", "decomposition",
)


@dataclass(frozen=True)
class Group:
    """Presentation data as the benchmark built it (not as the CLI parsed it)."""

    p: int
    n: int
    m: int
    s: int
    r: int  # as passed or implied; 1 for abelian

    @property
    def order(self) -> int:
        return self.p ** (self.n + self.m)

    @property
    def abelian(self) -> bool:
        return self.s == 0

    @property
    def tag(self) -> str:
        return f"p={self.p} n={self.n} m={self.m} s={self.s} r={self.r}"


@dataclass
class Request:
    argv: tuple[str, ...]
    code: int  # expected exit code
    kind: str  # decompose | counts | grid | deep | reject
    group: Group | None = None
    groups: int = 0  # groups answered when the request succeeds
    options: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# arithmetic the checks need, written independently of the package
# ---------------------------------------------------------------------------

def phi(p: int, e: int) -> int:
    return 1 if e == 0 else p ** e - p ** (e - 1)


def _valuation(x: int, p: int) -> int:
    w = 0
    while x % p == 0:
        x //= p
        w += 1
    return w


def grid_triples(p: int, max_order: int) -> list[tuple[int, int, int]]:
    """Every non-abelian (n, m, s): n >= 2, m >= 1, 1 <= s <= min(n-1, m)."""
    return [
        (n, m, s)
        for n in range(2, 64)
        for m in range(1, 64)
        if p ** (n + m) <= max_order
        for s in range(1, min(n - 1, m) + 1)
    ]


_TERM = re.compile(r"^(?:(\d+)\*)?(?:M(\d+)\()?Q(?:\(z(\d+)\))?(\))?$")


def parse_line(line: str, p: int) -> dict[tuple[int, int], int] | None:
    """Component multiset {(matrix size, centre level): mult} of a text
    decomposition, or None when the line breaks the grammar or is not in
    canonical (sorted, merged) form."""
    out: dict[tuple[int, int], int] = {}
    for term in line.split(" + "):
        match = _TERM.match(term)
        if not match or bool(match.group(2)) != bool(match.group(4)):
            return None
        mult, size, zq = match.group(1), match.group(2), match.group(3)
        level = 0
        if zq is not None:
            value = int(zq)
            while value > 1 and value % p == 0:
                value //= p
                level += 1
            if value != 1 or level == 0:
                return None
        key = (int(size or 1), level)
        if key in out or mult == "1":
            return None
        out[key] = int(mult or 1)
    if list(out) != sorted(out):
        return None
    return out


def dimension(multiset: dict[tuple[int, int], int], p: int) -> int:
    return sum(mult * q * q * phi(p, lam) for (q, lam), mult in multiset.items())


# ---------------------------------------------------------------------------
# off-clock reference answers from the oracle route
# ---------------------------------------------------------------------------

class Oracle:
    """Reference answers for groups of order <= 10^4, cached per group."""

    def __init__(self):
        from metacyclic.complex_reps import enumerate_irreducibles
        from metacyclic.group import validate
        from metacyclic.rational import galois_classes
        from metacyclic.verify import decomposition_via_oracle

        self._enumerate = enumerate_irreducibles
        self._validate = validate
        self._galois = galois_classes
        self._decompose = decomposition_via_oracle
        self._cache: dict = {}

    def _params(self, g: Group):
        if g.abelian:
            return self._validate(g.p, g.n, g.m, 1, abelian=True)
        return self._validate(g.p, g.n, g.m, g.r)

    def components(self, g: Group) -> dict[tuple[int, int], int]:
        key = ("components", g)
        if key not in self._cache:
            self._cache[key] = self._decompose(self._params(g)).as_multiset()
        return self._cache[key]

    def complex_counts(self, g: Group) -> dict[int, int]:
        """Degree -> number of irreducible complex characters."""
        if g.abelian:
            return {1: g.order}
        key = ("complex", g)
        if key not in self._cache:
            chars = self._enumerate(self._params(g))
            self._cache[key] = dict(Counter(ch.degree for ch in chars))
        return self._cache[key]

    def rational_by_degree(self, g: Group) -> dict[int, int]:
        """Degree -> number of irreducible rational representations; the one
        of a Galois class has degree psi(1) * phi(p^L), L its field level."""
        key = ("rational", g)
        if key not in self._cache:
            if g.abelian:
                counts: Counter = Counter()
                for (_, lam), mult in self.components(g).items():
                    counts[phi(g.p, lam)] += mult
            else:
                params = self._params(g)
                classes = self._galois(self._enumerate(params), params)
                counts = Counter(cls.representative.degree * phi(g.p, cls.field_level)
                                 for cls in classes)
            self._cache[key] = dict(counts)
        return self._cache[key]

    def prepare(self, requests) -> None:
        """Fill the cache for every oracle-sized group the requests check."""
        for req in requests:
            g = req.group
            if g is None or g.order > ORACLE_BOUND:
                continue
            self.components(g)
            if req.kind == "counts" or req.options.get("format") == "json":
                self.complex_counts(g)
                self.rational_by_degree(g)


# ---------------------------------------------------------------------------
# cli_oneshot
# ---------------------------------------------------------------------------

def _max_exponent(p: int, bound: int) -> int:
    """Largest e with p^e <= bound."""
    e = 0
    while p ** (e + 1) <= bound:
        e += 1
    return e


def _random_group(rng: Random, max_order: int) -> tuple[int, int, int, int]:
    p = rng.choice([q for q in PRIMES if q ** 3 <= max_order])
    e = rng.randint(3, _max_exponent(p, max_order))
    n = rng.randint(2, e - 1)
    m = e - n
    s = rng.randint(1, min(n - 1, m))
    return p, n, m, s


def _twist(rng: Random, p: int, n: int, s: int) -> int:
    k = rng.choice([k for k in range(1, min(p ** s, 200)) if k % p])
    return (1 + k * p ** (n - s)) % p ** n


def _params_argv(g: Group, twist: str) -> list[str]:
    argv = ["--p", str(g.p), "--n", str(g.n), "--m", str(g.m)]
    if twist == "r":
        argv += ["--r", str(g.r)]
    elif twist == "s":
        argv += ["--s", str(g.s)]
    elif twist == "abelian":
        argv += ["--abelian"]
    return argv


def _accepted(rng: Random) -> Request:
    fmt = rng.choice(("text", "json"))
    if rng.random() < 0.2:
        kind = rng.choice(("complex", "rational"))
        p, n, m, s = _random_group(rng, ORACLE_BOUND)
        twist = rng.choice(("r", "s"))
        r = _twist(rng, p, n, s) if twist == "r" else 1 + p ** (n - s)
        g = Group(p, n, m, s, r)
        argv = ["counts", *_params_argv(g, twist), "--kind", kind, "--format", fmt]
        return Request(tuple(argv), 0, "counts", g, 1, {"format": fmt, "kind": kind})
    bound = ORACLE_BOUND if rng.random() < 0.5 else FORMULA_BOUND
    twist = rng.choices(("r", "s", "abelian"), weights=(40, 35, 25))[0]
    if twist == "abelian":
        p = rng.choice(PRIMES)
        e = rng.randint(2, _max_exponent(p, bound))
        n = rng.randint(1, e - 1)
        g = Group(p, n, e - n, 0, 1)
    else:
        p, n, m, s = _random_group(rng, bound)
        r = _twist(rng, p, n, s) if twist == "r" else 1 + p ** (n - s)
        g = Group(p, n, m, s, r)
    argv = ["decompose", *_params_argv(g, twist), "--format", fmt]
    return Request(tuple(argv), 0, "decompose", g, 1, {"format": fmt})


def _rejected(rng: Random, why: str) -> Request:
    """One request the CLI must refuse, with the exit code the contract sets."""
    cmd = rng.choice(("decompose", "counts"))
    tail = ["--kind", "complex"] if cmd == "counts" else []
    if why == "missing_twist":
        p, n, m, _ = _random_group(rng, FORMULA_BOUND)
        argv, code = ["--p", str(p), "--n", str(n), "--m", str(m)], 1
    elif why == "p_two":
        argv, code = ["--p", "2", "--n", "3", "--m", "2", "--r", "5"], 2
    elif why == "composite_p":
        q = rng.choice((9, 15, 21, 25, 27))
        argv, code = ["--p", str(q), "--n", "2", "--m", "1", "--r", str(q + 1)], 2
    elif why == "s_above_m":
        p = rng.choice(PRIMES)
        n = rng.randint(3, 4)
        argv, code = ["--p", str(p), "--n", str(n), "--m", "1", "--s", "2"], 2
    elif why == "r_not_coprime":
        p = rng.choice(PRIMES)
        argv, code = ["--p", str(p), "--n", "3", "--m", "2",
                      "--r", str(p * rng.randint(1, 20))], 2
    elif why == "order_too_large":
        p = rng.choice(PRIMES)
        e = _max_exponent(p, FORMULA_BOUND) + 1  # |G| just past the bound
        n = rng.randint(2, e - 1)
        argv, code = ["--p", str(p), "--n", str(n), "--m", str(e - n), "--s", "1"], 4
    else:
        raise ValueError(why)
    return Request((cmd, *argv, *tail), code, "reject", options={"why": why})


REJECTIONS = ("missing_twist", "p_two", "composite_p", "s_above_m",
              "r_not_coprime", "order_too_large")


def cli_oneshot_round(seed: int, index: int) -> list[Request]:
    """50 requests: 3 golden + 37 random accepted, 9 rejections and one
    n = 3,000,000 request (exit 4) at a fixed position. Two rounds make the
    100-request mix: 80 accepted, 18 rejections (3 of each kind), 2 large n."""
    rng = Random(f"cli_oneshot:{seed}:{index}")
    reqs = [
        Request(("decompose", "--p", str(p), "--n", str(n), "--m", str(m),
                 "--r", str(r)), 0, "decompose",
                Group(p, n, m, n - _valuation(r - 1, p), r), 1,
                {"format": "text", "golden": line})
        for (p, n, m, r), line in GOLDEN.items()
    ]
    reqs += [_accepted(rng) for _ in range(37)]
    # nine rejections, the six kinds in turn, so each two rounds hold three of each
    reqs += [_rejected(rng, REJECTIONS[(9 * index + j) % len(REJECTIONS)])
             for j in range(9)]
    rng.shuffle(reqs)
    reqs.insert(LARGE_N_SLOT, Request(
        ("decompose", "--p", "3", "--n", str(LARGE_N), "--m", "2", "--r", "10"),
        4, "reject", options={"why": "large_n"}))
    assert len(reqs) == BLOCK
    return reqs


# ---------------------------------------------------------------------------
# oracle_grid and deep_verify
# ---------------------------------------------------------------------------

def oracle_grid_round(seed: int, index: int) -> list[Request]:
    reqs = [
        Request(("verify", "--p", str(p), "--all", "--max-order", str(ORACLE_BOUND)),
                0, "grid", groups=len(grid_triples(p, ORACLE_BOUND)),
                options={"p": p})
        for p in GRID_PRIMES
    ]
    Random(f"oracle_grid:{seed}:{index}").shuffle(reqs)
    return reqs


def deep_verify_round(seed: int, index: int) -> list[Request]:
    reqs = []
    for p, n, m, s in DEEP_GROUPS:
        g = Group(p, n, m, s, 1 + p ** (n - s))
        argv = ("verify", "--deep", "--p", str(p), "--n", str(n), "--m", str(m),
                "--s", str(s))
        reqs.append(Request(argv, 0, "deep", g, 1))
    Random(f"deep_verify:{seed}:{index}").shuffle(reqs)
    return reqs


ROUNDS = {
    "cli_oneshot": cli_oneshot_round,
    "oracle_grid": oracle_grid_round,
    "deep_verify": deep_verify_round,
}
# fewest rounds in a run: cli_oneshot needs 100 requests, so p90 has ten beyond it
MIN_ROUNDS = {"cli_oneshot": 2, "oracle_grid": 1, "deep_verify": 1}


# ---------------------------------------------------------------------------
# output checks: each returns None when the output is right, else a reason
# ---------------------------------------------------------------------------

def check(req: Request, code: int, out: str, err: str, oracle: Oracle) -> str | None:
    if code != req.code:
        return f"exit code {code}, expected {req.code}"
    if req.kind == "reject":
        return "stdout not empty on a rejection" if out else None
    return _CHECKS[req.kind](req, out, err, oracle)


def _check_decomposition(g: Group, multiset, oracle: Oracle) -> str | None:
    if multiset is None:
        return "unparseable or non-canonical decomposition"
    if dimension(multiset, g.p) != g.order:
        return "dimension identity fails"
    if g.order <= ORACLE_BOUND and multiset != oracle.components(g):
        return "differs from the oracle decomposition"
    return None


def _check_decompose(req: Request, out: str, err: str, oracle: Oracle) -> str | None:
    g = req.group
    if req.options["format"] == "text":
        lines = out.splitlines()
        if len(lines) != 1:
            return f"{len(lines)} stdout lines, expected 1"
        golden = req.options.get("golden")
        if golden is not None and lines[0] != golden:
            return "golden line differs"
        return _check_decomposition(g, parse_line(lines[0], g.p), oracle)
    try:
        doc = json.loads(out)
        multiset = {(c["q"], c["lambda"]): c["mult"] for c in doc["components"]}
        head = (doc["p"], doc["n"], doc["m"], doc["s"], doc["order"])
        complex_counts = {int(d): c for d, c in doc["complex_counts"].items()}
        rational_counts = {int(d): c for d, c in doc["rational_counts"].items()}
    except (ValueError, KeyError, TypeError, AttributeError):
        return "malformed json"
    if head != (g.p, g.n, g.m, g.s, g.order):
        return "json echoes the wrong parameters"
    if list(multiset) != sorted(multiset):
        return "json components not in canonical order"
    reason = _check_decomposition(g, multiset, oracle)
    if reason:
        return reason
    if sum(d * d * c for d, c in complex_counts.items()) != g.order:
        return "complex counts break sum(deg^2) = |G|"
    if g.order <= ORACLE_BOUND:
        if complex_counts != oracle.complex_counts(g):
            return "complex counts differ from the oracle"
        if rational_counts != oracle.rational_by_degree(g):
            return "rational counts differ from the oracle"
    return None


def _check_counts(req: Request, out: str, err: str, oracle: Oracle) -> str | None:
    g, kind = req.group, req.options["kind"]
    try:
        if req.options["format"] == "json":
            doc = json.loads(out)
            rows, total = doc["rows"], doc["total"]
            if (doc["kind"], doc["p"], doc["n"], doc["m"]) != (kind, g.p, g.n, g.m):
                return "json echoes the wrong parameters"
        else:
            lines = [line.split() for line in out.splitlines()]
            header, body, last = lines[0], lines[1:-1], lines[-1]
            if last[0] != "total" or len(last) != 2:
                return "missing total line"
            rows = [dict(zip(header, map(int, cells))) for cells in body]
            total = int(last[1])
        if kind == "complex":
            got = {row["degree"]: row["count"] for row in rows}
            want = oracle.complex_counts(g)
        else:
            if any(row["degree"] != phi(g.p, row["lambda"]) for row in rows):
                return "degree column is not phi(p^lambda)"
            got = {row["degree"]: row["count"] for row in rows}
            want = oracle.rational_by_degree(g)
    except (ValueError, KeyError, TypeError, IndexError):
        return "malformed counts table"
    if got != want:
        return f"{kind} counts differ from the oracle"
    if total != sum(got.values()):
        return "total is not the sum of the rows"
    return None


_VERIFIED = re.compile(
    r"^VERIFIED p=(\d+) n=(\d+) m=(\d+) s=(\d+) r=(\d+) \|G\|=(\d+): (.+)$"
)


def _verified_groups(out: str) -> list[tuple[Group, str]] | None:
    found = []
    for line in out.splitlines():
        match = _VERIFIED.match(line)
        if not match:
            return None
        p, n, m, s, r, order = map(int, match.groups()[:6])
        g = Group(p, n, m, s, r)
        if order != g.order:
            return None
        found.append((g, match.group(7)))
    return found


def _check_grid(req: Request, out: str, err: str, oracle: Oracle) -> str | None:
    p = req.options["p"]
    found = _verified_groups(out)
    if found is None:
        return "a stdout line is not a well-formed VERIFIED line"
    got = sorted((g.n, g.m, g.s) for g, _ in found)
    if got != sorted(grid_triples(p, ORACLE_BOUND)) or any(g.p != p for g, _ in found):
        return "VERIFIED lines do not match the (n, m, s) grid one to one"
    for g, line in found:
        reason = _check_decomposition(g, parse_line(line, p), oracle)
        if reason:
            return f"{g.tag}: {reason}"
    return None


def _check_deep(req: Request, out: str, err: str, oracle: Oracle) -> str | None:
    g = req.group
    found = _verified_groups(out)
    if found is None or len(found) != 1 or found[0][0] != g:
        return "expected exactly one VERIFIED line for the group"
    reason = _check_decomposition(g, parse_line(found[0][1], g.p), oracle)
    if reason:
        return reason
    for name in DEEP_CHECKS:
        marker = f"deep {g.tag} {name}: OK"
        if sum(line.startswith(marker) for line in err.splitlines()) != 1:
            return f"deep check {name} did not report OK once"
    return None


_CHECKS = {
    "decompose": _check_decompose,
    "counts": _check_counts,
    "grid": _check_grid,
    "deep": _check_deep,
}
