"""Observability must not perturb results: armed == plain, bit for bit.

The contract pinned here is the one ``docs/observability.md`` promises:
enabling any combination of trace/metrics/progress leaves the merged
:class:`CampaignResult` field-for-field identical to an unobserved run —
only the observational attachments (``telemetry``, the recorder's event
buffer) differ. Covered for both the serial path and the sharded pool.
"""

from __future__ import annotations

import io
import os

from repro.core.campaign import Campaign, GemmWorkload
from repro.core.executor import ParallelExecutor, SerialExecutor
from repro.obs import MetricsRegistry, Observability, ProgressReporter, TraceRecorder
from repro.systolic import Dataflow, MeshConfig

from tests.core._support import assert_campaigns_equivalent

MESH = MeshConfig(rows=4, cols=4)
WORKLOAD = GemmWorkload.square(8, Dataflow.OUTPUT_STATIONARY)


def _armed_obs() -> Observability:
    return Observability(
        recorder=TraceRecorder(),
        metrics=MetricsRegistry(),
        progress=ProgressReporter(stream=io.StringIO(), min_interval=0.0),
    )


class TestSerialEquivalence:
    def test_armed_serial_matches_plain_serial(self):
        plain = Campaign(MESH, WORKLOAD).run(SerialExecutor())
        armed = Campaign(MESH, WORKLOAD).run(SerialExecutor(obs=_armed_obs()))
        assert_campaigns_equivalent(plain, armed)

    def test_plain_run_has_no_telemetry(self):
        result = Campaign(MESH, WORKLOAD).run(SerialExecutor())
        assert result.telemetry is None

    def test_armed_run_attaches_telemetry(self):
        obs = _armed_obs()
        result = Campaign(MESH, WORKLOAD).run(SerialExecutor(obs=obs))
        telemetry = result.telemetry
        assert telemetry is not None
        assert telemetry["sites"] == 16
        assert telemetry["sites_completed"] == 16
        assert telemetry["retries"] == 0
        assert telemetry["quarantined"] == 0
        assert telemetry["elapsed_seconds"] > 0.0

    def test_serial_spans_cover_the_experiment_hierarchy(self):
        obs = _armed_obs()
        Campaign(MESH, WORKLOAD).run(SerialExecutor(obs=obs))
        names = {event["name"] for event in obs.recorder.events()}
        assert {"campaign.execute", "campaign.golden", "experiment"} <= names
        assert {"experiment.simulate", "experiment.classify"} <= names


class TestParallelEquivalence:
    def test_armed_parallel_matches_plain_serial(self):
        plain = Campaign(MESH, WORKLOAD).run(SerialExecutor())
        armed = Campaign(MESH, WORKLOAD).run(
            ParallelExecutor(jobs=2, obs=_armed_obs())
        )
        assert_campaigns_equivalent(plain, armed)

    def test_armed_parallel_matches_plain_parallel(self):
        plain = Campaign(MESH, WORKLOAD).run(ParallelExecutor(jobs=2))
        assert plain.telemetry is None
        armed = Campaign(MESH, WORKLOAD).run(
            ParallelExecutor(jobs=2, obs=_armed_obs())
        )
        assert armed.telemetry is not None
        assert_campaigns_equivalent(plain, armed)

    def test_worker_spans_reach_the_parent_recorder(self):
        obs = _armed_obs()
        Campaign(MESH, WORKLOAD).run(ParallelExecutor(jobs=2, obs=obs))
        events = obs.recorder.events()
        names = {event["name"] for event in events}
        assert "shard.run" in names  # recorded worker-side, ingested here
        assert "experiment" in names
        pids = {event["pid"] for event in events}
        assert os.getpid() in pids
        assert len(pids) > 1  # at least one worker pid besides the parent

    def test_parallel_telemetry_counts_all_sites(self):
        obs = _armed_obs()
        result = Campaign(MESH, WORKLOAD).run(ParallelExecutor(jobs=2, obs=obs))
        assert result.telemetry["sites_completed"] == len(result.experiments)
        assert obs.metrics.value("repro_sites_total") == 16.0

    def test_trace_only_bundle_leaves_telemetry_unset(self):
        # Telemetry derives from metrics; a trace-only bundle records
        # spans but attaches no summary.
        obs = Observability(recorder=TraceRecorder())
        result = Campaign(MESH, WORKLOAD).run(ParallelExecutor(jobs=2, obs=obs))
        assert result.telemetry is None
        assert len(obs.recorder.events()) > 0
