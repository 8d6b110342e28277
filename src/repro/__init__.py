"""repro — reproduction of Schroeder et al., ICDE 2006.

*How to determine a good multi-programming level for external
scheduling.*

The package implements external scheduling of database transactions
with an automatically tuned multi-programming limit (MPL):

* a discrete-event simulated DBMS (:mod:`repro.dbms`) standing in for
  the paper's DB2/Shore installations,
* the paper's TPC-C/TPC-W-style workloads and its 17 experimental
  setups (:mod:`repro.workloads`),
* the external scheduling front-end, feedback controller, and tuner
  (:mod:`repro.core`),
* the queueing models behind the tuner (:mod:`repro.queueing`),
* the prioritization application (:mod:`repro.priority`), and
* a harness regenerating every table/figure of the paper's evaluation
  (:mod:`repro.experiments`, also ``python -m repro.experiments``).

Quickstart::

    from repro import SystemConfig, SimulatedSystem, get_setup

    setup = get_setup(1)                     # Table 2, setup 1
    config = SystemConfig(workload=setup.workload,
                          hardware=setup.hardware, mpl=5)
    result = SimulatedSystem(config).run(transactions=2000)
    print(result.throughput, result.mean_response_time)

Importing :mod:`repro` or any of its packages loads no submodule: each
public name is imported on first use (:func:`_lazy_exports`).
"""

import importlib
import sys


def _lazy_exports(package, exports):
    """PEP 562 hooks that import each public name of ``package`` on first use.

    ``exports`` maps a submodule to the names it provides.  Returns the
    package's ``(__all__, __getattr__, __dir__)``; a resolved name is
    kept in the package namespace, so its submodule is imported once and
    a package import alone loads none of them.
    """
    home = {name: module for module, names in exports.items() for name in names}

    def __getattr__(name):
        module = home.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(module), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__():
        return sorted(set(vars(sys.modules[package])) | set(home))

    return sorted(home), __getattr__, __dir__


__version__ = "1.0.0"

__all__, __getattr__, __dir__ = _lazy_exports(__name__, {
    "repro.core.control_types": ("Thresholds",),
    "repro.core.controller": ("MplController", "PerClassSloController"),
    "repro.core.frontend": ("ExternalScheduler",),
    "repro.core.scenario": (
        "FeedbackMpl", "MeasurementSpec", "PerClassSlo", "ScenarioOutcome",
        "ScenarioSpec", "StaticMpl", "TopologySpec", "WorkloadRef", "execute_scenario",
    ),
    "repro.core.simulation": ("SimulatedSystem",),
    "repro.core.system": ("RunResult", "SystemConfig"),
    "repro.core.tuner": ("MplTuner", "TuningResult"),
    "repro.dbms.config": ("HardwareConfig", "InternalPolicy", "IsolationLevel"),
    "repro.dbms.engine": ("DatabaseEngine",),
    "repro.dbms.transaction": ("Priority", "Transaction"),
    "repro.queueing.mpl_ps_queue": ("MplPsQueue",),
    "repro.queueing.throughput_model": ("ThroughputModel",),
    "repro.workloads.setups": ("SETUPS", "WORKLOADS", "Setup", "get_setup", "get_workload"),
    "repro.workloads.spec": ("TransactionType", "WorkloadSpec"),
})
__all__.append("__version__")
