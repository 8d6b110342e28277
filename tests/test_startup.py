"""numpy stays off the startup path: it loads on the first QBD solve.

Only the Figure 9 CTMC (``MplPsQueue`` and ``repro.queueing.qbd``)
computes with numpy, so importing ``repro``, building and decoding a
scenario grid and simulating a cell must not load it, and neither must
a warm figure 10 or C² table, whose values come from the result cache.
pytest's own process has numpy loaded by other test modules, so the
checks run in a fresh interpreter.
"""

import json
import os
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

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
import json
import sys

from repro.experiments.__main__ import main

code = main(sys.argv[1:])
print(json.dumps({"code": code, "numpy": "numpy" in sys.modules}))
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


def test_warm_figure10_and_c2_table_leave_numpy_unloaded(tmp_path):
    cache = str(tmp_path / "cache")
    cold = _fresh_interpreter(CLI_PROBE, "10", "--cache-dir", cache)
    assert cold == {"code": 0, "numpy": True}, "a cold figure 10 solves the chain"
    _fresh_interpreter(CLI_PROBE, "c2", "--cache-dir", cache)
    warm = _fresh_interpreter(CLI_PROBE, "10", "c2", "--cache-dir", cache)
    assert warm == {"code": 0, "numpy": False}, "a warm run imported numpy"


def test_numpy_loads_only_when_a_qbd_model_is_solved():
    report = _fresh_interpreter(PROBE)
    assert report["round_trip"]
    assert report["completed"] > 0
    assert not report["numpy_before_solve"], "numpy was imported before any QBD solve"
    assert report["numpy_after_solve"]
