"""Stages that never fit load no scipy optimizer, and a Hawkes fit loads it
only when it comes out effectively Poisson; the lazily loaded `minimize`
attributes are scipy's own function once touched, and importing the package
asks OpenBLAS for one thread unless the caller chose a number."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import tagburst

HEAVY = ("scipy.optimize", "scipy.signal")


def python(*args, **environ):
    """Run the interpreter with src/ on the path; an environ value of None
    removes that variable."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [
        str(Path(tagburst.__file__).parents[1]), os.environ.get("PYTHONPATH")]))}
    for name, value in environ.items():
        if value is None:
            env.pop(name, None)
        else:
            env[name] = value
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


@pytest.mark.parametrize("stream, optimizer, poisson", [
    ("hawkes_stream(0), 100.0", "newton", False),
    ("beta_floor_stream(), 50.0", "newton+simplex", True),
])
def test_only_an_effectively_poisson_fit_loads_the_optimizer(stream, optimizer, poisson):
    tests = str(Path(__file__).resolve().parent)
    proc = python("-c", f"import json, sys\nsys.path.insert(0, {tests!r})\n"
                  "from test_hawkes import beta_floor_stream, fit_mle, hawkes_stream\n"
                  "before = 'scipy.optimize' in sys.modules\n"
                  f"fit = fit_mle({stream})\n"
                  "print(json.dumps([before, fit.optimizer, 'effectively_poisson' in fit.warnings,"
                  " 'scipy.optimize' in sys.modules]))")
    assert json.loads(proc.stdout) == [False, optimizer, poisson, poisson]


@pytest.mark.parametrize("caller, seen", [(None, "1"), ("2", "2")])
def test_one_blas_thread_unless_the_caller_sets_another(caller, seen):
    proc = python("-c", "import os, tagburst\n"
                  "print(os.environ['OPENBLAS_NUM_THREADS'])", OPENBLAS_NUM_THREADS=caller)
    assert proc.stdout.strip() == seen
