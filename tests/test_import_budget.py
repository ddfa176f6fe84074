"""Cold-start budget: what a fresh interpreter loads, and how long it takes.

Every case runs in a subprocess and checks two things.  The *set* of
heavy modules that must not have been imported — it repeats exactly, so
it is the real gate: a module-level ``import scipy.stats`` (or an eager
``from .chaos import ...`` in a package ``__init__``) anywhere on the
path fails here, whatever the machine.  And a generous wall bound on the
import itself, the best of three tries, so a loaded box does not flake.

See docs/PERFORMANCE.md section 9 and the import rule in CONTRIBUTING.md.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parent.parent / "src")

#: scipy's expensive subpackages: none of them is needed to import the
#: package, build a searcher or run an adam/sgd search.
HEAVY = {"scipy.stats", "scipy.spatial", "scipy.optimize", "scipy.sparse"}

PROBE = """
import json, sys, time
start = time.perf_counter()
{body}
wall = time.perf_counter() - start
print(json.dumps({{"wall": wall, "modules": sorted(sys.modules)}}))
"""


def probe(body: str) -> dict:
    """Run ``body`` in a fresh interpreter; its wall time and ``sys.modules``."""
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run(
        [sys.executable, "-c", PROBE.format(body=body)],
        env=env, capture_output=True, text=True, timeout=120,
    )  # fmt: skip
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout.rstrip().rsplit("\n", 1)[-1])
    report["modules"] = set(report["modules"])
    return report


def best_wall(body: str, bound: float, tries: int = 3) -> float:
    """Smallest wall of up to ``tries`` probes (stops at the first within ``bound``)."""
    walls = []
    for _ in range(tries):
        walls.append(probe(body)["wall"])
        if walls[-1] <= bound:
            break
    return min(walls)


@pytest.mark.parametrize(
    "statement, bound, also_absent",
    [
        ("import repro", 0.6, {"numpy", "repro.engine", "repro.core", "repro.bandit"}),
        ("import repro.engine", 0.5, {"repro.engine.chaos", "repro.core", "repro.learners"}),
    ],
)
def test_import_is_light(statement, bound, also_absent):
    report = probe(statement)
    assert not (HEAVY | also_absent) & report["modules"]
    assert best_wall(statement, bound) <= bound


def test_cli_help_does_not_load_the_engine():
    body = (
        "import runpy\n"
        "sys.argv = ['repro', '--help']\n"
        "try:\n"
        "    runpy.run_module('repro', run_name='__main__')\n"
        "except SystemExit as stop:\n"
        "    assert stop.code == 0\n"
    )
    report = probe(body)
    assert not (HEAVY | {"repro.engine", "repro.core", "repro.serve"}) & report["modules"]
    assert "repro.cli" in report["modules"]


def test_hb_plus_search_with_adam_needs_no_heavy_scipy():
    body = (
        "from repro import make_searcher\n"
        "from repro.datasets import load_dataset\n"
        "from repro.experiments import paper_search_space\n"
        "ds = load_dataset('australian', scale=0.15, random_state=0)\n"
        "space = paper_search_space(2)\n"
        "searcher = make_searcher('hb+', space, ds.X_train, ds.y_train, random_state=0)\n"
        "result = searcher.fit(configurations=space.grid()[:6])\n"
        "assert result.n_trials >= 6\n"
    )
    report = probe(body)
    assert not HEAVY & report["modules"]
    # The searchers and learners an hb+ MLP search never touches stay unloaded.
    unused = {
        "repro.bandit.smac", "repro.bandit.tpe", "repro.bandit.dehb", "repro.bandit.pasha",
        "repro.learners.forest", "repro.learners.tree", "repro.experiments.run_all",
        "repro.experiments.significance", "repro.engine.chaos",
    }  # fmt: skip
    assert not unused & report["modules"]


def test_lbfgs_fit_works_from_a_cold_interpreter():
    body = (
        "import numpy as np\n"
        "from repro.learners import LogisticRegression, MLPClassifier\n"
        "assert 'scipy.optimize' not in sys.modules\n"
        "rng = np.random.default_rng(0)\n"
        "X = rng.normal(size=(80, 4)); y = (X[:, 0] + X[:, 1] > 0).astype(int)\n"
        "mlp = MLPClassifier(hidden_layer_sizes=(6,), solver='lbfgs', max_iter=40,\n"
        "                    random_state=0).fit(X, y)\n"
        "assert 'scipy.optimize' in sys.modules and mlp.score(X, y) > 0.8\n"
        "assert LogisticRegression().fit(X, y).score(X, y) > 0.8\n"
    )
    report = probe(body)
    assert "scipy.optimize" in report["modules"]
    assert "scipy.stats" not in report["modules"]


def test_lazy_tables_and_all_agree():
    """``from pkg import *``, ``dir(pkg)`` and the docs generator see the same names."""
    import repro
    import repro.bandit
    import repro.engine
    import repro.experiments
    import repro.learners

    for package in (repro, repro.bandit, repro.engine, repro.experiments, repro.learners):
        assert len(set(package.__all__)) == len(package.__all__)
        assert set(package.__all__) <= set(dir(package)), package.__name__
        namespace = {}
        exec(f"from {package.__name__} import *", namespace)
        assert set(package.__all__) <= set(namespace), package.__name__


def test_export_named_like_its_submodule_stays_the_export():
    """``experiments.run_all`` is a function and a submodule: the function wins."""
    body = (
        "import repro.experiments as experiments\n"
        "function = experiments.run_all\n"
        "import repro.experiments.run_all\n"
        "from repro.experiments import run_all\n"
        "assert callable(function) and experiments.run_all is function is run_all\n"
    )
    assert "repro.experiments.run_all" in probe(body)["modules"]
