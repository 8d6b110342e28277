"""Measurement machinery: per-transaction records and statistics."""

from repro import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(__name__, {
    "repro.metrics.collector": ("MetricsCollector", "TransactionRecord"),
    "repro.metrics.stats": (
        "confidence_interval", "mean", "relative_half_width", "scv", "variance",
    ),
})
