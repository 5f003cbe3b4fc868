"""Command-line interface: decompose, verify, counts, sweep.

Exit codes (stable contract for scripting):
  0  success / verified
  1  usage error
  2  validation error (bad presentation parameters)
  3  verification mismatch
  4  size bound exceeded
  5  internal inconsistency (an identity that must hold failed), or any
     other unexpected exception: one line "internal error: <Type>: <msg>"
     on stderr instead of a traceback (KeyboardInterrupt and SystemExit
     are not caught)

Results go to stdout, diagnostics to stderr. Text output for `decompose`
is a single line in the grammar

    Q | Q(z<q>) | M<size>(Q(z<q>))     joined by " + ",

with a "<mult>*" prefix when a component occurs more than once, e.g.
"Q + 4*Q(z3) + 12*Q(z9) + 3*M3(Q(z9)) + M9(Q(z9))". JSON output is a flat
document with keys p, n, m, r, s, k, order, canonical_r,
components:[{q, lambda, mult}], complex_counts, rational_counts, provenance.

One closed form and one oracle serve every s, the abelian group
(`--abelian` or `--s 0`) included. `verify` runs one path for every group:
both routes via `cross_validate`, one `diff_components`, then
"VERIFIED <tag>: <decomposition>" (or the same JSON document with
provenance "both (verified)") or "MISMATCH <tag>" plus one diff line per
component. The tag is "p= n= m= s= r= |G|=" for s >= 1 and
"abelian p= n= m=" for s = 0. `--deep` needs s >= 1 (a usage error,
exit 1, otherwise): an abelian group has only linear characters. Size and
primality bounds are checked before any expensive work, and `verify --all`
and `sweep --oracle` check the oracle bound on every group before their
first row.
`verify --all` and `sweep` check p and `--max-order >= 1` even when no
group fits. `--max-order` without `--all` is a usage error, and so is
`--all` beside a per-group flag (`--n`, `--m`, `--r`, `--s`, `--abelian`).
`sweep --threads N` needs N >= 1 and starts at most min(N, rows, CPUs)
worker processes.

Modules each command executes: `decompose`, and `counts` and `sweep`
without `--oracle`, run only `cli`, `errors`, `arith`, `group`,
`components` and `formulas`. The oracle modules `cyclotomic`,
`complex_reps`, `rational`, `verify` and `deep` are in sys.modules from
the start but wait behind a LazyLoader until their first attribute access:
`counts --kind complex --oracle` runs `complex_reps`,
`--kind rational --oracle` also `rational`, and `verify` and
`sweep --oracle` also `verify`. `deep` (the deep checks) and `cyclotomic`
(character values) run only under `verify --deep`.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import sys
from random import Random

from .arith import phi_pk
from .components import WedderburnDecomposition
from .errors import (
    InternalInconsistencyError,
    SizeBoundError,
    ValidationError,
)
from .formulas import (
    complex_counts_closed_form,
    rational_counts_closed_form,
    wedderburn_closed_form,
)
from .group import (
    GroupParams,
    check_oracle_bound,
    from_s,
    valid_parameter_sets,
    validate,
)


def _lazy_module(name: str):
    """`metacyclic.<name>`, registered in sys.modules with a LazyLoader
    unless it is already imported: its code runs on the first attribute
    access, so a command that never reads it never executes it."""
    fullname = f"{__package__}.{name}"
    module = sys.modules.get(fullname)
    if module is None:
        spec = importlib.util.find_spec(fullname)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = importlib.util.module_from_spec(spec)
        sys.modules[fullname] = module
        setattr(sys.modules[__package__], name, module)
        spec.loader.exec_module(module)
    return module


# The oracle: every oracle module is in sys.modules once `cli` is imported
# (bench/traced_cli.py wraps functions there), but none executes until a
# command reads one of its attributes. Commands read oracle functions as
# module attributes at call time (`verify.cross_validate(...)`), so a
# wrapper set on the module is the one called.
# `complex_reps` and `deep` read `cyclotomic` at call time, and only to
# evaluate characters, so commands without `--deep` never execute it.
_lazy_module("cyclotomic")
complex_reps = _lazy_module("complex_reps")
rational = _lazy_module("rational")
verify = _lazy_module("verify")
deep = _lazy_module("deep")

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VALIDATION = 2
EXIT_MISMATCH = 3
EXIT_SIZE_BOUND = 4
EXIT_INTERNAL = 5


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

def format_decomposition(dec: WedderburnDecomposition) -> str:
    """Render the canonical component list in the compact text grammar."""
    parts = []
    for c in dec.components:
        center = "Q" if c.center_level == 0 else f"Q(z{dec.p ** c.center_level})"
        core = center if c.matrix_size == 1 else f"M{c.matrix_size}({center})"
        prefix = f"{c.multiplicity}*" if c.multiplicity > 1 else ""
        parts.append(prefix + core)
    return " + ".join(parts)


def build_report(
    params: GroupParams, dec: WedderburnDecomposition, provenance: str
) -> dict:
    """The JSON document of a decomposition: the parameters, the components,
    the closed-form per-degree counts and where the result came from."""
    complex_counts = complex_counts_closed_form(params)
    rational_counts = rational_counts_closed_form(params).by_degree
    return {
        **params._asdict(),
        "order": params.order,
        "canonical_r": params.canonical_r,
        "components": [
            {"q": c.matrix_size, "lambda": c.center_level, "mult": c.multiplicity}
            for c in dec.components
        ],
        "complex_counts": {str(d): c for d, c in sorted(complex_counts.items())},
        "rational_counts": {str(d): c for d, c in sorted(rational_counts.items())},
        "provenance": provenance,
    }


# ---------------------------------------------------------------------------
# argument handling
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors; the contract wants 1
    def error(self, message):
        self.print_usage(sys.stderr)
        raise _UsageError(message)


class _UsageError(Exception):
    pass


def _build_parser() -> _Parser:
    parser = _Parser(prog="metacyclic", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add_params(sp, with_abelian=True, required=True):
        sp.add_argument("--p", type=int, required=True, help="odd prime")
        sp.add_argument("--n", type=int, required=required, help="exponent of |a| = p^n")
        sp.add_argument("--m", type=int, required=required, help="exponent of |b| = p^m")
        group = sp.add_mutually_exclusive_group()
        group.add_argument("--r", type=int, help="twist: b a b^-1 = a^r")
        group.add_argument("--s", type=int, help="order exponent of r mod p^n "
                           "(canonical r = 1 + p^(n-s) is used)")
        if with_abelian:
            sp.add_argument("--abelian", action="store_true",
                            help="the commuting case r = 1 (s = 0)")

    dec = sub.add_parser("decompose", help="closed-form decomposition of QG")
    add_params(dec)
    dec.add_argument("--format", choices=("text", "json"), default="text")

    ver = sub.add_parser("verify", help="closed form vs character-theoretic oracle")
    add_params(ver, required=False)
    ver.add_argument("--all", action="store_true",
                     help="sweep every valid (n, m, s) up to --max-order")
    ver.add_argument("--max-order", type=int, default=None)
    ver.add_argument("--deep", action="store_true",
                     help="also run orthogonality/class-function/matrix suites")
    ver.add_argument("--seed", type=int, default=0, help="seed for sampled checks")
    ver.add_argument("--format", choices=("text", "json"), default="text")

    cnt = sub.add_parser("counts", help="per-degree representation counts")
    add_params(cnt, with_abelian=False)
    cnt.add_argument("--kind", choices=("complex", "rational"), required=True)
    cnt.add_argument("--oracle", action="store_true",
                     help="add a brute-force cross-check column")
    cnt.add_argument("--format", choices=("text", "json"), default="text")

    swp = sub.add_parser("sweep", help="one row per valid (n, m, s)")
    swp.add_argument("--p", type=int, required=True)
    swp.add_argument("--max-order", type=int, required=True)
    swp.add_argument("--oracle", action="store_true",
                     help="cross-validate each row against the oracle")
    swp.add_argument("--threads", type=int, default=1,
                     help="parallel workers (output order is unchanged)")
    swp.add_argument("--format", choices=("text", "json"), default="text")
    return parser


def _params_from_args(args) -> GroupParams:
    if getattr(args, "abelian", False):
        if args.s not in (None, 0):
            raise ValidationError("--abelian contradicts --s > 0")
        r = 1 if args.r is None else args.r
        return validate(args.p, args.n, args.m, r, abelian=True)
    if args.s is not None:
        return from_s(args.p, args.n, args.m, args.s)
    if args.r is None:
        raise _UsageError("one of --r / --s / --abelian is required")
    return validate(args.p, args.n, args.m, args.r)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_decompose(args) -> int:
    params = _params_from_args(args)
    dec = wedderburn_closed_form(params)
    if args.format == "json":
        print(json.dumps(build_report(params, dec, "closed_form")))
    else:
        print(format_decomposition(dec))
        print(
            f"p={params.p} n={params.n} m={params.m} r={params.r} "
            f"s={params.s} k={params.k} |G|={params.order} "
            f"canonical_r={params.canonical_r}",
            file=sys.stderr,
        )
    return EXIT_OK


def _verify_one(params: GroupParams, args) -> int:
    result = verify.cross_validate(params)
    if params.abelian:
        tag, size = f"abelian p={params.p} n={params.n} m={params.m}", ""
    else:
        tag = f"p={params.p} n={params.n} m={params.m} s={params.s} r={params.r}"
        size = f" |G|={params.order}"
    if result.diff:
        print(f"MISMATCH {tag}")
        for line in result.diff:
            print(f"  {line}")
        return EXIT_MISMATCH
    if args.deep:
        checker = deep.DeepChecker(result, rng=Random(args.seed))
        failures = []
        for check in checker.run_all():
            status = "OK" if check.ok else "FAIL"
            print(f"deep {tag} {check.name}: {status} {check.detail}".rstrip(),
                  file=sys.stderr)
            if not check.ok:
                failures.append(check)
        if failures:
            print(f"MISMATCH {tag} deep checks failed: "
                  + ", ".join(c.name for c in failures))
            return EXIT_MISMATCH
    if args.format == "json":
        print(json.dumps(build_report(params, result.closed, "both (verified)")))
    else:
        print(f"VERIFIED {tag}{size}: {format_decomposition(result.closed)}")
    return EXIT_OK


def _groups_up_to(args, oracle: bool) -> list[GroupParams]:
    """Every valid group up to --max-order, after the checks on --max-order
    and p, and with `oracle` on every group's oracle bound."""
    if args.max_order < 1:
        raise _UsageError(f"--max-order must be >= 1, got {args.max_order}")
    groups = list(valid_parameter_sets(args.p, args.max_order))
    if oracle:
        for params in groups:
            check_oracle_bound(params)
    return groups


def _cmd_verify(args) -> int:
    if args.all:
        if args.max_order is None:
            raise _UsageError("--all requires --max-order")
        if args.abelian or (args.n, args.m, args.r, args.s) != (None,) * 4:
            raise _UsageError(
                "--all sweeps every group: it takes no --n, --m, --r, --s or --abelian"
            )
        groups = _groups_up_to(args, oracle=True)
        return max((_verify_one(params, args) for params in groups), default=EXIT_OK)
    if args.max_order is not None:
        raise _UsageError("--max-order needs --all")
    if args.n is None or args.m is None:
        raise _UsageError("verify needs --n and --m (or --all with --max-order)")
    params = _params_from_args(args)
    if args.deep and params.abelian:
        raise _UsageError("--deep needs s >= 1 (an abelian group has only linear characters)")
    return _verify_one(params, args)


def _cmd_counts(args) -> int:
    params = _params_from_args(args)
    if args.kind == "complex":
        closed = complex_counts_closed_form(params)
        rows = [{"degree": d, "count": c} for d, c in sorted(closed.items())]
    else:
        counts = rational_counts_closed_form(params)
        closed = counts.by_degree
        rows = [
            {"lambda": lam, "degree": phi_pk(params.p, lam), "count": c}
            for lam, c in counts.by_lambda.items()
        ]
    if args.oracle:
        chars = complex_reps.enumerate_irreducibles(params)
        if args.kind == "complex":
            oracle = complex_reps.complex_counts_from_characters(chars)
        else:
            classes = rational.galois_classes(chars, params)
            oracle = rational.rational_counts_from_classes(classes, params)
        for degree in sorted(closed.keys() | oracle.keys()):
            if closed.get(degree) != oracle.get(degree):
                raise InternalInconsistencyError(
                    f"{args.kind} count mismatch at degree {degree}")
        for row in rows:
            row["oracle"] = oracle[row["degree"]]
    doc = {
        "kind": args.kind,
        "p": params.p, "n": params.n, "m": params.m,
        "r": params.r, "s": params.s,
        "rows": rows,
        "total": sum(row["count"] for row in rows),
    }
    if args.format == "json":
        print(json.dumps(doc))
    else:
        headers = list(rows[0].keys())
        widths = {h: max(len(h), *(len(str(r[h])) for r in rows)) for h in headers}
        print("  ".join(h.ljust(widths[h]) for h in headers))
        for row in rows:
            print("  ".join(str(row[h]).ljust(widths[h]) for h in headers))
        print(f"total {doc['total']}")
    return EXIT_OK


def _sweep_row(task: tuple[GroupParams, bool]) -> dict:
    params, oracle = task  # validated once, by `valid_parameter_sets`
    dec = wedderburn_closed_form(params)
    row = {
        "p": params.p, "n": params.n, "m": params.m, "s": params.s, "r": params.r,
        "order": params.order,
        "components": len(dec.components),
        "dim_ok": dec.dimension() == params.order,
    }
    if oracle:
        row["oracle_match"] = not verify.cross_validate(params).diff
    return row


def _cmd_sweep(args) -> int:
    if args.threads < 1:
        raise _UsageError(f"--threads must be >= 1, got {args.threads}")
    groups = _groups_up_to(args, args.oracle)
    tasks = [(params, args.oracle) for params in groups]
    workers = min(args.threads, len(tasks), os.cpu_count() or 1)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_sweep_row, tasks))
    else:
        rows = [_sweep_row(t) for t in tasks]
    mismatched = [row for row in rows if not row.get("oracle_match", True)]
    for row in rows:
        if args.format == "json":
            print(json.dumps(row))
        else:
            text = " ".join(f"{key}={value}" for key, value in row.items())
            print(text)
    if mismatched:
        print(f"{len(mismatched)} rows mismatched the oracle", file=sys.stderr)
        return EXIT_MISMATCH
    return EXIT_OK


_COMMANDS = {
    "decompose": _cmd_decompose,
    "verify": _cmd_verify,
    "counts": _cmd_counts,
    "sweep": _cmd_sweep,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except SizeBoundError as exc:
        print(f"size bound: {exc}", file=sys.stderr)
        return EXIT_SIZE_BOUND
    except InternalInconsistencyError as exc:
        print(f"internal inconsistency: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except Exception as exc:  # a bug: one line and code 5, not a traceback
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
