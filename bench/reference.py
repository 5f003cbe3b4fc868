"""A fixed workload that times the machine, not the program.

The benchmark runs it as its own process between requests and scales its
times by it (see `harness.Probes.speed`). It imports only the standard
library and never touches `metacyclic`, so no change to the program can move
it. It does what the CLI does, in miniature: start an interpreter, import
modules, fill a dict of some tens of MB with tuples and lists, read it back
in a scattered order, and do big-integer arithmetic. The scattered reads make
it slow down, as the deep checks do, when the host's caches are contended.
"""

import argparse  # noqa: F401  (imports are part of the workload)
import dataclasses  # noqa: F401
import fractions  # noqa: F401
import json  # noqa: F401


def work(size: int = 40_000, passes: int = 2) -> int:
    table = {}
    x = 1
    for i in range(size):
        x = (x * 1_103_515_245 + 12_345) % 2_147_483_648
        table[(x % 9973, i)] = [x, i * i]
    keys = list(table)
    total, big = 0, 3 ** 200
    for p in range(passes):
        step = 7919 + 2 * p
        for j in range(0, size * step, step):
            total += table[keys[j % size]][0] & 255
        big = (big * big) % (7 ** 300)
    return total ^ (big & 0xFFFF)


if __name__ == "__main__":
    work()
