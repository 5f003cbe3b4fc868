#!/usr/bin/env python3
"""Sweep every valid parameter set and cross-validate the two routes.

For each (p, n, m, s) with p^(n+m) small enough for the brute-force side,
the closed-form component multiset must equal the multiset assembled from
Galois classes of the character table.
"""

import time

from metacyclic import cross_validate
from metacyclic.cli import format_decomposition
from metacyclic.group import valid_parameter_sets

start = time.time()
print(f"{'p':>2} {'n':>2} {'m':>2} {'s':>2} {'|G|':>5}  components")
print("-" * 72)
total = 0
for p, max_order in ((3, 2187), (5, 3125)):
    for params in valid_parameter_sets(p, max_order):
        result = cross_validate(params)
        assert not result.diff, result.diff
        total += 1
        line = format_decomposition(result.closed)
        if len(line) > 58:
            line = line[:55] + "..."
        print(f"{params.p:>2} {params.n:>2} {params.m:>2} {params.s:>2} "
              f"{params.order:>5}  {line}")
print("-" * 72)
print(f"{total} parameter sets verified in {time.time() - start:.2f}s")
