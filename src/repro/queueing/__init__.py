"""Queueing-theoretic models (§4 of the paper).

* :mod:`repro.queueing.mva` — exact Mean Value Analysis for closed
  networks, including load-dependent (multi-server) stations.
* :mod:`repro.queueing.throughput_model` — the Figure 6/7 model:
  throughput vs MPL as a function of the number of utilized
  resources, plus the minimum-MPL search the tuner uses.
* :mod:`repro.queueing.qbd` — matrix-geometric solver for
  quasi-birth-death CTMCs.
* :mod:`repro.queueing.mpl_ps_queue` — the Figure 8/9 model: an
  unbounded FIFO queue feeding a PS server that admits at most MPL
  jobs, with hyperexponential (H2) job sizes; yields mean response
  time vs MPL (Figure 10).
* :mod:`repro.queueing.mg1` — M/M/1, M/G/1-FIFO (Pollaczek–Khinchine),
  M/G/1-PS and M/M/k reference formulas.

Everything here is stdlib-only except the QBD solver and the Figure 8/9
model, which import numpy inside the functions that build and solve the
generator blocks.  numpy therefore loads on the first solve (Figure 10,
the tuner's response-time jump start), not when this package or
:mod:`repro` is imported, so CLI targets and workers that never solve
the chain skip its import cost.  The models themselves load on first
use too, except :func:`mva`: it shares its submodule's name, and
importing the submodule later would rebind the package attribute to
the module, so the function is bound here.
"""

from repro import _lazy_exports
from repro.queueing.mva import mva

__all__, __getattr__, __dir__ = _lazy_exports(__name__, {
    "repro.queueing.mg1": (
        "mg1_fifo_response_time", "mg1_ps_response_time", "mm1_response_time",
        "mmk_response_time",
    ),
    "repro.queueing.mpl_ps_queue": ("MplPsQueue", "h2_params"),
    "repro.queueing.mva": ("MvaResult", "Station"),
    "repro.queueing.qbd": ("compute_rate_matrix",),
    "repro.queueing.throughput_model": ("ThroughputModel",),
})
__all__.append("mva")
