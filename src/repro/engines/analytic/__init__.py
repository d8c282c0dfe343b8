"""``repro.engines.analytic`` — the closed-form fault-delta engine tier.

The paper's determinism result (one fault site, one configuration, one
workload → one fixed output perturbation) means a stuck-at campaign does
not need to *re-simulate* the workload per site: each faulty output is
the golden output plus a delta that the dataflow algebra yields in
closed form. This package computes those deltas in vectorised batches:

* :mod:`~repro.engines.analytic.algebra` — the per-dataflow delta
  kernels (OS cycle recurrence, WS two-matmul closed form, IS
  via transposition), bit-exact against the simulation engines.
* :mod:`~repro.engines.analytic.engine` — :func:`evaluate_batch`, the
  batched evaluator campaigns dispatch to, with per-site fallback to the
  functional engine and the fallback metric.
* :mod:`~repro.engines.analytic.support` — the supported-fault
  whitelist and the typed :class:`AnalyticUnsupported` refusal.

Select it with ``Campaign(..., engine="analytic")`` or ``--engine
analytic`` on the CLI; results are bit-identical to the functional and
cycle tiers (pinned by ``tests/engines``), only faster.
"""

from __future__ import annotations

from repro.engines.analytic.algebra import (
    FaultLens,
    os_chain_tile,
    ws_chain_tile,
)
from repro.engines.analytic.engine import (
    FALLBACK_METRIC,
    evaluate_batch,
    record_fallbacks,
    unsupported_sites,
)
from repro.engines.analytic.support import (
    AnalyticUnsupported,
    check_supported,
    supported_reason,
)

__all__ = [
    "AnalyticUnsupported",
    "FALLBACK_METRIC",
    "FaultLens",
    "check_supported",
    "evaluate_batch",
    "os_chain_tile",
    "record_fallbacks",
    "supported_reason",
    "unsupported_sites",
    "ws_chain_tile",
]
