"""Parallel campaign scaling on the paper's 16x16 configuration.

An exhaustive SSF campaign is embarrassingly parallel: 256 independent
experiments sharing one golden run. This bench measures the sharded
executor's wall-clock scaling against the serial reference on the paper's
16x16 WS GEMM sweep under the cycle-accurate engine — the RTL-equivalent
cost model whose ~tens-of-ms experiments are what parallel execution is
for (the functional engine's sub-millisecond experiments are dominated by
pool dispatch) — and asserts the determinism guarantee along the way
(every worker count reduces to an identical CampaignResult).

The speedup assertion (>= 2x at 4 workers) only arms on hosts with at
least 4 usable cores — on starved runners the bench still verifies
equivalence and prints the measured ratios as context.
"""

import time

from repro.core.campaign import Campaign, GemmWorkload
from repro.core.executor import GOLDEN_CACHE, ParallelExecutor, SerialExecutor
from repro.systolic import Dataflow, MeshConfig

from _common import banner, parallel_capacity, run_once

MESH = MeshConfig.paper()
WORKLOAD = GemmWorkload.square(16, Dataflow.WEIGHT_STATIONARY)
JOB_COUNTS = (2, 4)


def make_campaign() -> Campaign:
    return Campaign(MESH, WORKLOAD, engine="cycle")


def run_serial():
    return make_campaign().run(SerialExecutor())


def run_parallel(jobs: int):
    return make_campaign().run(ParallelExecutor(jobs=jobs))


def test_parallel_scaling(benchmark):
    # Warm the golden cache so every timed sweep below measures the 256
    # fault experiments, not the shared fault-free reference run.
    GOLDEN_CACHE.golden_run(make_campaign())

    start = time.perf_counter()
    serial = run_serial()
    serial_seconds = time.perf_counter() - start

    timings = {1: serial_seconds}
    results = {}
    for jobs in JOB_COUNTS:
        start = time.perf_counter()
        results[jobs] = run_parallel(jobs)
        timings[jobs] = time.perf_counter() - start

    cores = parallel_capacity()
    print(banner(
        "Parallel scaling — 16x16 WS GEMM, cycle engine, 256-site "
        f"exhaustive sweep ({cores} core(s) available)"
    ))
    print(f"{'jobs':>4}  {'seconds':>8}  {'speedup':>7}")
    for jobs, seconds in sorted(timings.items()):
        print(f"{jobs:>4}  {seconds:>8.3f}  {serial_seconds / seconds:>6.2f}x")

    # Determinism guarantee: identical reductions at every worker count.
    for result in results.values():
        assert result.census() == serial.census()
        assert result.sdc_rate() == serial.sdc_rate()
        assert result.dominant_class() is serial.dominant_class()
        assert [e.site for e in result.experiments] == [
            e.site for e in serial.experiments
        ]

    if cores >= 4:
        assert serial_seconds / timings[4] >= 2.0, (
            f"expected >= 2x speedup at 4 workers on {cores} cores, got "
            f"{serial_seconds / timings[4]:.2f}x"
        )
    else:
        print(f"\n(speedup assertion skipped: only {cores} core(s) available)")

    run_once(benchmark, run_parallel, 4)
