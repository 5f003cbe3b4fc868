"""Every function the traced benchmark wraps exists under the name it uses.

`bench/traced_cli.py` wraps (module, function) pairs by name, read from
`sys.modules` right after `import metacyclic.cli`, and renames the spans of
`DeepChecker` methods listed in `CHECK_NAMES`. A deleted or renamed function
would otherwise fail only a traced benchmark run. The tables are read from
the file with `ast`; the file is neither imported nor changed.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TRACED_CLI = ROOT / "bench" / "traced_cli.py"

# runs in a fresh interpreter, so only what `import metacyclic.cli` loads is there
PROBE = """
import json, sys
import metacyclic.cli
pairs, checks = json.loads(sys.argv[1]), json.loads(sys.argv[2])
missing = [f"{home}.{attr}" for home, attr in pairs
           if not callable(getattr(sys.modules.get("metacyclic." + home), attr, None))]
checker = sys.modules["metacyclic.verify"].DeepChecker
missing += [f"DeepChecker.{attr}" for attr in checks
            if not callable(getattr(checker, attr, None))]
print(json.dumps(missing))
"""


def _tables() -> dict:
    tree = ast.parse(TRACED_CLI.read_text(), filename=str(TRACED_CLI))
    return {
        node.targets[0].id: ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign)
        and isinstance(node.targets[0], ast.Name)
        and node.targets[0].id in ("SPANS", "COUNTED", "CHECK_NAMES")
    }


def test_traced_cli_targets_resolve():
    tables = _tables()
    pairs = [*tables["SPANS"], *tables["COUNTED"]]
    assert ("formulas", "wedderburn_closed_form") in pairs
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, json.dumps(pairs), json.dumps(list(tables["CHECK_NAMES"]))],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []
