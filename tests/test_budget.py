"""The worst admissible input of each route finishes within a time and
address-space budget, at today's bounds: 10^7 for the closed form, and
`ORACLE_ORDER_BOUND` = 10^4 for the oracle and the deep checks.

Each input runs in a child interpreter that caps its own address space
with `resource.setrlimit(RLIMIT_AS)` before it imports `metacyclic`; the
pytest process is never limited. The budget of each input is 20 times
its measured time, and at least 2 s, under 256 MiB of address space.

Measured as medians of five child processes (Python 3.11.7, 2 vCPUs,
PYTHONDEVMODE=1, interpreter start-up included), with VmPeak at most
24.5 MB: the figures in WORST below. A later change of a bound must pass
this test with the new worst inputs.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parent.parent / "src")
ADDRESS_SPACE = 256 * 2 ** 20
MARGIN = 20

LIMIT = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, ({limit}, {limit}))
""".format(limit=ADDRESS_SPACE)
CHILD = LIMIT + """
sys.argv = ["metacyclic", *sys.argv[1:]]
from metacyclic.cli import entry
entry()
"""

# (route, argv, measured ms, stdout lines, marker, lines holding the marker)
WORST = [
    ("closed form", "sweep --p 3 --max-order 10000000", 98, 203, "dim_ok=True", 203),
    ("oracle", "verify --p 3 --n 4 --m 4 --abelian", 82, 1, "VERIFIED", 1),
    ("oracle", "counts --p 3 --n 4 --m 4 --s 1 --kind rational --oracle", 69, 7, "total 107", 1),
    ("oracle", "sweep --p 3 --max-order 10000 --oracle", 108, 34, "oracle_match=True", 34),
    ("deep", "verify --p 3 --n 2 --m 6 --s 1 --deep", 115, 1, "VERIFIED", 1),
    ("deep", "verify --p 3 --n 6 --m 2 --s 1 --deep", 120, 1, "VERIFIED", 1),
    ("deep", "verify --p 3 --all --max-order 10000 --deep", 579, 34, "VERIFIED", 34),
]


def _child(code, *args, timeout):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-c", code, *args],
        capture_output=True, text=True, env=env, timeout=timeout,
    )


@pytest.mark.parametrize("route,argv,ms,lines,marker,marked", WORST, ids=[w[1] for w in WORST])
def test_worst_input_of_each_route_keeps_its_budget(route, argv, ms, lines, marker, marked):
    proc = _child(CHILD, *argv.split(), timeout=max(2.0, MARGIN * ms / 1000))
    assert proc.returncode == 0, (route, proc.stderr)
    out = proc.stdout.splitlines()
    assert len(out) == lines, route
    assert sum(marker in line for line in out) == marked, route


def test_the_child_limit_holds():
    # the same prefix refuses an allocation of the whole budget, so the
    # budgets above are not vacuous
    proc = _child(LIMIT + "bytearray({})".format(ADDRESS_SPACE), timeout=10)
    assert proc.returncode == 1
    assert "MemoryError" in proc.stderr
