"""Run one `metacyclic` CLI request with spans around each layer's public calls.

Usage: python bench/traced_cli.py TRACE_FILE REQUEST_ID -- CLI_ARGS...

The request runs in this fresh interpreter exactly as `python -m metacyclic
CLI_ARGS...` would, so caches start cold. After `import metacyclic.cli`, the
functions below are wrapped in every `metacyclic` module namespace that binds
them (so `galois_classes` is wrapped in both `rational` and `verify`), and the
`DeepChecker.check_*` methods on the class. Spans (name, start, end, parent)
and counters are kept in memory and written to TRACE_FILE as JSON at exit.

Functions called per table cell, such as `monomial_exponent`, are not wrapped.
Functions called per character or per root of unity are only counted, so their
time stays in the self time of the stage that calls them.
"""

import json
import sys
from time import perf_counter_ns

# (module, function) -> span name
SPANS = {
    ("cli", "main"): "cli.main",
    ("cli", "format_decomposition"): "cli.format",
    ("group", "validate"): "group.validate",
    ("group", "conjugacy_classes"): "group.conjugacy_classes",
    ("arith", "is_prime"): "arith.is_prime",
    ("arith", "split_r"): "arith.split_r",
    ("formulas", "wedderburn_closed_form"): "formulas.closed_form",
    ("formulas", "complex_counts_closed_form"): "formulas.counts",
    ("formulas", "rational_counts_closed_form"): "formulas.counts",
    ("complex_reps", "enumerate_irreducibles"): "complex_reps.enumerate",
    ("rational", "galois_classes"): "rational.galois_classes",
    ("rational", "wedderburn_from_classes"): "rational.assemble",
    ("verify", "cross_validate"): "verify.cross_validate",
    ("verify", "value_table"): "verify.value_table",
    ("cyclotomic", "reduce_power_vector"): "cyclotomic.reduce_power_vector",
}

# (module, function) -> call counter
COUNTED = {
    ("complex_reps", "canonical_orbit_label"): "complex_reps.canonical_label_calls",
    ("complex_reps", "character_value"): "complex_reps.character_value_calls",
    ("rational", "sigma_on_character"): "rational.sigma_calls",
    ("cyclotomic", "root_power"): "cyclotomic.root_power_calls",
}

# span name -> (counter, size of the work from (args, result))
WORK = {
    "complex_reps.enumerate": ("complex_reps.chars", lambda args, out: len(out)),
    "verify.value_table": ("verify.table_cells", lambda args, out: len(out)),
    "group.conjugacy_classes": (
        "group.elements_walked", lambda args, out: sum(len(c) for c in out)),
    "rational.galois_classes": ("rational.chars_classified", lambda args, out: len(args[0])),
}

CHECK_NAMES = {"check_value_function_agreement": "verify.check.value_agreement"}


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start_ns, end_ns, parent index or -1]
        self.stack = []
        self.counts = {}
        self.in_galois = 0

    def span(self, name, fn):
        spans, stack, counts = self.spans, self.stack, self.counts
        work = WORK.get(name)
        galois = name == "rational.galois_classes"

        def wrapper(*args, **kwargs):
            index = len(spans)
            record = [name, 0, 0, stack[-1] if stack else -1]
            spans.append(record)
            stack.append(index)
            self.in_galois += galois
            record[1] = perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
            finally:
                record[2] = perf_counter_ns()
                stack.pop()
                self.in_galois -= galois
            if work:
                counts[work[0]] = counts.get(work[0], 0) + work[1](args, out)
            return out

        return wrapper

    def counter(self, name, fn):
        counts = self.counts
        sigma = name == "rational.sigma_calls"

        def wrapper(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            if sigma and self.in_galois:
                counts["rational.sigma_calls_in_galois"] = (
                    counts.get("rational.sigma_calls_in_galois", 0) + 1)
            return fn(*args, **kwargs)

        return wrapper

    def install(self):
        modules = [mod for name, mod in list(sys.modules.items())
                   if name == "metacyclic" or name.startswith("metacyclic.")]
        for table, make in ((SPANS, self.span), (COUNTED, self.counter)):
            for (home, attr), name in table.items():
                original = getattr(sys.modules["metacyclic." + home], attr)
                wrapped = make(name, original)
                for mod in modules:
                    if getattr(mod, attr, None) is original:
                        setattr(mod, attr, wrapped)
        checker = sys.modules["metacyclic.verify"].DeepChecker
        for attr in dir(checker):
            if attr.startswith("check_"):
                name = CHECK_NAMES.get(attr, "verify.check." + attr[len("check_"):])
                setattr(checker, attr, self.span(name, getattr(checker, attr)))


def main():
    trace_file, request_id, sep, *cli_args = sys.argv[1:]
    if sep != "--":
        sys.exit("usage: traced_cli.py TRACE_FILE REQUEST_ID -- CLI_ARGS...")
    tracer = Tracer()
    start = perf_counter_ns()
    import metacyclic.cli
    tracer.spans.append(["cli.import", start, perf_counter_ns(), -1])
    tracer.install()
    try:
        code = metacyclic.cli.main(cli_args)
    finally:
        sys.stdout.flush()
        with open(trace_file, "w") as fh:
            json.dump({"request": request_id, "spans": tracer.spans,
                       "counts": tracer.counts}, fh)
    sys.exit(code)


if __name__ == "__main__":
    main()
