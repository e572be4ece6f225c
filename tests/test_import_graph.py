"""Import-graph guard: serving processes never load ``scipy.stats``.

``scipy.stats`` pulls most of scipy (spatial, optimize, linalg, special,
integrate, interpolate, ndimage, fft) with it: about a second of import
time and ~50 MB of RSS in every process that loads it. Only the §3.2
ablation tests (:mod:`repro.stats.tests`) call it, so the serving entry
points — the CLI, the HTTP server, and the module every spawned worker
re-imports — must not load it at module level, and a served request must
not load it lazily either (that would only move the cost into the first
answer).

Spawned workers also never load the HTTP server's modules
(``http.server``, ``ssl``): :mod:`repro.service` serves its server names
lazily. Nor do they load ``multiprocessing.shared_memory``: every worker
maps its snapshot from a file.

The checks run in a fresh interpreter: the pytest process has long since
imported everything.
"""

import ast
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

PROBE = """
import sys

import repro.cli
import repro.service.server
import repro.service.workers
from repro.datasets.loader import load_dataset
from repro.service.engine import EngineConfig, NCEngine

assert "scipy.stats" not in sys.modules, "scipy.stats loaded at import"

graph = load_dataset("figure1")
config = EngineConfig(context_size=3, seed=7, executor="thread")
with NCEngine(graph, config=config) as engine:
    result = engine.search(["Angela_Merkel", "Barack_Obama"])
assert result.results, "the search evaluated no characteristic"
assert "scipy.stats" not in sys.modules, "scipy.stats loaded by a search"

from repro.stats.tests import chi_square_test, two_proportion_z_test

chi = chi_square_test([10, 20, 30], [0.2, 0.3, 0.5])
z = two_proportion_z_test(30, 50, 20, 60)
assert "scipy.stats" in sys.modules
print(repr((chi.statistic, chi.p_value, z.statistic, z.p_value)))
"""


def test_serving_path_never_imports_scipy_stats():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    result = subprocess.run(
        [sys.executable, "-c", PROBE],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    chi_stat, chi_p, z_stat, z_p = ast.literal_eval(result.stdout.strip())
    # The lazily imported tests answer as with the old module-level
    # import; the p-values also match the closed forms exp(-x/2) (df=2
    # chi-square) and erfc(|z|/sqrt(2)) (two-sided z).
    assert chi_stat == pytest.approx(0.5555555555555556, rel=1e-12)
    assert chi_p == pytest.approx(0.7574651283969664, rel=1e-12)
    assert chi_p == pytest.approx(math.exp(-chi_stat / 2), rel=1e-12)
    assert z_stat == pytest.approx(2.7968235951204043, rel=1e-12)
    assert z_p == pytest.approx(0.00516077021553718, rel=1e-9)
    assert z_p == pytest.approx(math.erfc(z_stat / math.sqrt(2)), rel=1e-9)


WORKER_PROBE = """
import sys

import repro.service.workers

loaded = sorted(
    name
    for name in ("http.server", "ssl", "multiprocessing.shared_memory")
    if name in sys.modules
)
assert not loaded, f"a worker import loaded {loaded}"

import repro.service
from repro.service import create_server
from repro.service.server import create_server as defined

assert create_server is defined
assert "http.server" in sys.modules
assert all(hasattr(repro.service, name) for name in repro.service.__all__)
print(len(repro.service.__all__))
"""


def test_worker_import_leaves_out_the_http_server():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    result = subprocess.run(
        [sys.executable, "-c", WORKER_PROBE],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert int(result.stdout.strip()) == 23
