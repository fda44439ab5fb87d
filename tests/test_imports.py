"""Stages that never fit load no scipy optimizer, and the lazily loaded
`minimize` attributes are scipy's own function once touched."""

import json
import os
import subprocess
import sys
from pathlib import Path

import tagburst

HEAVY = ("scipy.optimize", "scipy.signal")


def python(*args):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [
        str(Path(tagburst.__file__).parents[1]), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc


def test_importing_the_cli_loads_no_optimizer():
    proc = python("-c", "import json, sys, tagburst.cli\n"
                  f"print(json.dumps([m for m in {HEAVY!r} if m in sys.modules]))")
    assert json.loads(proc.stdout) == []


def test_help_loads_no_optimizer():
    proc = python("-X", "importtime", "-m", "tagburst", "--help")
    assert "usage: tagburst" in proc.stdout
    imported = {line.rsplit("|", 1)[1].strip()
                for line in proc.stderr.splitlines() if line.startswith("import time:")}
    assert "tagburst.cli" in imported
    assert not imported & set(HEAVY)


def test_minimize_attributes_are_scipys_after_first_access():
    proc = python("-c", "import json, sys, tagburst.cli\n"
                  "import tagburst._optim as o, tagburst.baselines as b\n"
                  "import scipy.optimize as so\n"
                  "print(json.dumps([o.minimize is so.minimize, b.minimize is so.minimize]))")
    assert json.loads(proc.stdout) == [True, True]
