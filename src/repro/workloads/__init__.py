"""Workload generators and the paper's experimental catalog.

* :mod:`repro.workloads.spec` — transaction-type and workload
  specifications (the schema every generator fills in).
* :mod:`repro.workloads.tpcc` / :mod:`repro.workloads.tpcw` — the
  TPC-C-like and TPC-W-like mixes of Table 1, calibrated to the
  saturation throughputs of Figures 2–5 and the paper's measured
  demand variability (C² ≈ 1–1.5 for TPC-C, ≈ 15 for TPC-W).
* :mod:`repro.workloads.synthetic` — H2 workloads with arbitrary C².
* :mod:`repro.workloads.traces` — synthetic stand-ins for the paper's
  proprietary online-retailer and auction-site traces (C² ≈ 2).
* :mod:`repro.workloads.setups` — Table 1's six workloads and
  Table 2's seventeen setups as data.
"""

from repro import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(__name__, {
    "repro.workloads.spec": ("TransactionType", "WorkloadSpec"),
    "repro.workloads.setups": ("SETUPS", "WORKLOADS", "Setup", "get_setup", "get_workload"),
    "repro.workloads.synthetic": ("synthetic_workload",),
    "repro.workloads.tpcc": ("tpcc_workload",),
    "repro.workloads.tpcw": ("tpcw_workload",),
    "repro.workloads.traces": (
        "auction_site_trace", "load_trace_file", "online_retailer_trace", "trace_workload",
    ),
})
