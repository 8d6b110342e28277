"""The warm path imports the spec layer only; numpy loads on the first QBD solve.

Only the Figure 9 CTMC (``MplPsQueue`` and ``repro.queueing.qbd``)
computes with numpy, so importing ``repro``, building and decoding a
scenario grid and simulating a cell must not load it, and neither must
a warm figure 10 or C² table, whose values come from the result cache.
The same holds one layer up for the simulator: building, hashing and
decoding scenario cells, and serving figures from the cache, load no
runtime module (:data:`WARM_PATH_FORBIDDEN`); a cold cell still loads
it and simulates.  pytest's own process has all of these loaded by
other test modules, so the checks run in a fresh interpreter.
"""

import json
import os
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

#: What executes a simulation (the kernel, the DBMS resources, the
#: front ends and routers, arrival sources, controllers, 2PC,
#: resilience, fault injection, the collector, the queueing models)
#: and numpy: none of it may load on the warm path.
WARM_PATH_FORBIDDEN = (
    "repro.sim.engine",
    "repro.sim.station",
    "repro.dbms.cpu",
    "repro.dbms.disk",
    "repro.dbms.engine",
    "repro.dbms.lockmgr",
    "repro.dbms.wal",
    "repro.core.cluster",
    "repro.core.controller",
    "repro.core.distributed",
    "repro.core.frontend",
    "repro.core.resilience",
    "repro.core.simulation",
    "repro.core.sources",
    "repro.metrics.collector",
    "repro.queueing.mg1",
    "repro.queueing.mpl_ps_queue",
    "repro.queueing.mva",
    "repro.queueing.qbd",
    "repro.queueing.throughput_model",
    "numpy",
)

PROBE = """
import json
import sys

import repro
import repro.experiments.__main__
from repro import MeasurementSpec, MplPsQueue, ScenarioSpec, StaticMpl, execute_scenario
from repro.experiments.figures import FIGURE_GRIDS

spec = FIGURE_GRIDS["4"](True)[0]
decoded = ScenarioSpec.from_json_dict(spec.to_json_dict())
outcome = execute_scenario(
    ScenarioSpec(control=StaticMpl(2), measurement=MeasurementSpec(transactions=50))
)
report = {
    "round_trip": decoded.fingerprint() == spec.fingerprint(),
    "completed": outcome.result.completed,
    "numpy_before_solve": "numpy" in sys.modules,
}
MplPsQueue(
    arrival_rate=0.7, mpl=3, service_mean=1.0, service_scv=4.0
).mean_response_time()
report["numpy_after_solve"] = "numpy" in sys.modules
print(json.dumps(report))
"""


CLI_PROBE = """
import contextlib
import io
import json
import re
import sys

from repro.experiments.__main__ import main

out = io.StringIO()
with contextlib.redirect_stdout(out):
    code = main(sys.argv[1:])
simulated = sum(int(n) for n in re.findall(r"(\\d+) simulated\\]", out.getvalue()))
print(json.dumps({"code": code, "simulated": simulated, "modules": sorted(sys.modules)}))
"""


GRID_PROBE = """
import json
import sys

from repro.core.scenario import ScenarioSpec
from repro.experiments.figures import FIGURE_GRIDS

cells = 0
for key, build in FIGURE_GRIDS.items():
    for fast in (True, False):
        for spec in build(fast):
            payload = json.loads(json.dumps(spec.to_json_dict()))
            decoded = ScenarioSpec.from_json_dict(payload)
            assert decoded.fingerprint() == spec.fingerprint(), (key, spec.tag)
            cells += 1
print(json.dumps({"cells": cells, "modules": sorted(sys.modules)}))
"""


PACKAGES_PROBE = """
import importlib
import json
import sys

packages = (
    "repro", "repro.core", "repro.dbms", "repro.sim", "repro.queueing",
    "repro.workloads", "repro.experiments", "repro.metrics", "repro.priority",
)
loaded = {}
for package in packages:
    for name in [name for name in sys.modules if name.startswith("repro")]:
        del sys.modules[name]
    importlib.import_module(package)
    loaded[package] = sorted(name for name in sys.modules if name.startswith("repro"))
print(json.dumps(loaded))
"""


def _fresh_interpreter(*argv: str) -> dict:
    """Run a probe in a new interpreter; its last stdout line as JSON."""
    # the child does not inherit pytest's in-process pythonpath setting
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    proc = subprocess.run(
        [sys.executable, "-c", *argv],
        capture_output=True,
        text=True,
        timeout=120,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _forbidden(report: dict) -> list:
    return [name for name in WARM_PATH_FORBIDDEN if name in report["modules"]]


def test_warm_figure10_and_c2_table_leave_numpy_unloaded(tmp_path):
    cache = str(tmp_path / "cache")
    cold = _fresh_interpreter(CLI_PROBE, "10", "--cache-dir", cache)
    assert cold["code"] == 0
    assert "numpy" in cold["modules"], "a cold figure 10 solves the chain"
    _fresh_interpreter(CLI_PROBE, "c2", "--cache-dir", cache)
    warm = _fresh_interpreter(CLI_PROBE, "10", "c2", "--cache-dir", cache)
    assert warm["code"] == 0
    assert "numpy" not in warm["modules"], "a warm run imported numpy"


def test_grid_cells_build_hash_and_round_trip_without_the_runtime():
    report = _fresh_interpreter(GRID_PROBE)
    assert report["cells"] > 0
    assert _forbidden(report) == [], "building scenario cells loaded the runtime"


def test_warm_figures_load_no_runtime_and_cold_cells_simulate(tmp_path):
    targets = ("4", "10", "12", "13", "tv", "--cache-dir", str(tmp_path / "cache"))
    cold = _fresh_interpreter(CLI_PROBE, *targets)
    assert cold["code"] == 0
    assert cold["simulated"] > 0
    assert "repro.sim.engine" in cold["modules"], "a cold cell ran without the kernel"
    warm = _fresh_interpreter(CLI_PROBE, *targets)
    assert warm["code"] == 0
    assert warm["simulated"] == 0
    assert _forbidden(warm) == [], "a warm run imported the runtime"


def test_importing_a_package_loads_no_submodule():
    # repro.queueing binds mva eagerly: the function shares its
    # submodule's name, which a later submodule import would rebind
    eager = {"repro.queueing": {"repro.queueing.mva"}}
    report = _fresh_interpreter(PACKAGES_PROBE)
    for package, loaded in report.items():
        parents = {".".join(package.split(".")[:n]) for n in range(1, package.count(".") + 2)}
        expected = parents | eager.get(package, set())
        assert set(loaded) == expected, f"import {package} loaded {loaded}"


def test_numpy_loads_only_when_a_qbd_model_is_solved():
    report = _fresh_interpreter(PROBE)
    assert report["round_trip"]
    assert report["completed"] > 0
    assert not report["numpy_before_solve"], "numpy was imported before any QBD solve"
    assert report["numpy_after_solve"]
