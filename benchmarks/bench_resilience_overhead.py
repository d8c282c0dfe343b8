"""Cost of arming the resilience machinery on a healthy campaign.

The watchdog, retry ladder, and quarantine protocol only earn their keep
if a campaign that never fails pays (almost) nothing for them: the armed
executor adds a deadline computation per submitted shard and a bounded
scheduler tick, nothing per experiment. This bench runs the paper's
16x16 WS GEMM sweep under the cycle-accurate engine twice — plain
``ParallelExecutor(jobs=2)`` versus the same executor with the watchdog
armed (``shard_timeout=60``) and an explicit retry policy — and pins the
armed/plain wall-clock ratio at <= 1.05 (min-of-repeats, so a scheduler
hiccup in one sample does not fail the pin).

The overhead assertion only arms on hosts with at least 2 usable cores;
on starved runners the bench still asserts the determinism guarantee
(armed result identical to plain, field for field) and prints the
measured ratio as context.
"""

import time

from repro.core.campaign import Campaign, GemmWorkload
from repro.core.executor import GOLDEN_CACHE, ParallelExecutor
from repro.core.resilience import RetryPolicy
from repro.systolic import Dataflow, MeshConfig

from _common import banner, parallel_capacity, run_once

MESH = MeshConfig.paper()
WORKLOAD = GemmWorkload.square(16, Dataflow.WEIGHT_STATIONARY)
JOBS = 2
REPEATS = 3
OVERHEAD_CEILING = 1.05


def make_campaign() -> Campaign:
    return Campaign(MESH, WORKLOAD, engine="cycle")


def run_plain():
    return make_campaign().run(ParallelExecutor(jobs=JOBS))


def run_armed():
    return make_campaign().run(
        ParallelExecutor(
            jobs=JOBS,
            shard_timeout=60.0,
            retry=RetryPolicy(max_retries=2),
            on_error="quarantine",
        )
    )


def _best_of(fn, repeats: int = REPEATS):
    """(best wall-clock seconds, last result) over ``repeats`` runs."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def test_resilience_overhead(benchmark):
    # Warm the golden cache so both timed sweeps measure the 256 fault
    # experiments, not the shared fault-free reference run.
    GOLDEN_CACHE.golden_run(make_campaign())

    plain_seconds, plain = _best_of(run_plain)
    armed_seconds, armed = _best_of(run_armed)
    ratio = armed_seconds / plain_seconds

    cores = parallel_capacity()
    print(banner(
        "Resilience overhead — 16x16 WS GEMM, cycle engine, 256-site "
        f"sweep at {JOBS} workers ({cores} core(s) available)"
    ))
    print(f"{'executor':>8}  {'seconds':>8}")
    print(f"{'plain':>8}  {plain_seconds:>8.3f}")
    print(f"{'armed':>8}  {armed_seconds:>8.3f}")
    print(f"armed/plain ratio: {ratio:.3f} (ceiling {OVERHEAD_CEILING})")

    # Determinism guarantee: arming the machinery never changes results.
    assert armed.is_complete and plain.is_complete
    assert armed.census() == plain.census()
    assert armed.sdc_rate() == plain.sdc_rate()
    assert armed.dominant_class() is plain.dominant_class()
    assert [e.site for e in armed.experiments] == [
        e.site for e in plain.experiments
    ]

    if cores >= 2:
        assert ratio <= OVERHEAD_CEILING, (
            f"armed executor is {ratio:.3f}x the plain one "
            f"(ceiling {OVERHEAD_CEILING}); the watchdog/retry plumbing "
            f"must stay off the per-experiment hot path"
        )
    else:
        print(f"\n(overhead assertion skipped: only {cores} core(s) available)")

    run_once(benchmark, run_armed)
