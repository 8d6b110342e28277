"""Transaction prioritization — external and internal (§5)."""

from repro import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(__name__, {
    "repro.priority.assignment": ("PriorityAssignment",),
    "repro.priority.evaluation": (
        "PrioritizationOutcome", "evaluate_external_prioritization",
        "evaluate_internal_prioritization",
    ),
})
