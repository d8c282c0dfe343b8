"""The durable journal and the persisted formats behind it.

Three kinds of evidence:

* a crash-consistency property — a journal truncated at *any* byte offset
  either reads back exactly its complete records or is refused, and
  reopening it for append heals it so the next record reads back;
* a regression test for a reused checkpoint path: ``checkpoint=`` on a
  file another campaign wrote is refused instead of appended to;
* fixtures under ``fixtures/`` written by the serializer as it stood
  before the record layouts were declared once (commit ba24297): a 4x4
  checkpoint with a quarantine line, a job registry, a result artefact,
  an archive and a fault dictionary. Today's code must read or resume
  them and write them again byte for byte.
"""

from __future__ import annotations

import json
import shutil
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.campaign import Campaign, ConvWorkload, FaultSpec, GemmWorkload
from repro.core.executor import ParallelExecutor, SerialExecutor
from repro.core.journal import Journal, read_journal
from repro.core.resilience import CheckpointCorrupt, FailureKind, FailureRecord
from repro.core.serialize import (
    CHECKPOINT_JOURNAL,
    REGISTRY_JOURNAL,
    campaign_result_from_record,
    campaign_result_record,
    campaign_to_dict,
    checkpoint_header,
    decode_campaign_spec,
    experiment_from_record,
    experiment_record,
    failure_from_record,
    failure_record,
    fault_dictionary,
    is_failure_record,
    job_record,
    job_registry_header,
    read_checkpoint,
    read_job_registry,
)
from repro.service.jobs import JobManager
from repro.systolic import Dataflow, MeshConfig

from tests.core._support import assert_campaigns_equivalent, assert_experiments_equal

FIXTURES = Path(__file__).parent / "fixtures"
MESH = MeshConfig(rows=4, cols=4)


def fixture_campaign(**kwargs) -> Campaign:
    """The campaign every GEMM fixture was written from."""
    return Campaign(MESH, GemmWorkload.square(8, Dataflow.WEIGHT_STATIONARY), **kwargs)


# ----------------------------------------------------------------------
# Crash consistency at every byte offset
# ----------------------------------------------------------------------

text = st.text(max_size=12)
failures = st.builds(
    FailureRecord,
    row=st.integers(0, 15),
    col=st.integers(0, 15),
    kind=st.sampled_from(FailureKind),
    attempts=st.integers(1, 5),
    error=text,
)
jobs = st.builds(
    job_record,
    job_id=text,
    seq=st.integers(0, 99),
    state=st.sampled_from(["queued", "running", "done"]),
    spec=st.dictionaries(text, st.integers(), max_size=2),
    error=st.none() | text,
)

#: (journal kind, header, record strategy, record as the reader returns it)
KINDS = {
    "checkpoint": (
        CHECKPOINT_JOURNAL,
        checkpoint_header(fixture_campaign()),
        failures.map(failure_record),
        lambda record: record,
    ),
    "registry": (
        REGISTRY_JOURNAL,
        job_registry_header(),
        jobs,
        REGISTRY_JOURNAL.check_record,
    ),
}


def write_journal(path: Path, kind, header, batches) -> bytes:
    journal = Journal(path, header, kind)
    for batch in batches:
        journal.append(batch)
    journal.close()
    return path.read_bytes()


def read_quietly(path: Path, kind):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return read_journal(path, kind)


@pytest.mark.parametrize("name", sorted(KINDS))
def test_truncation_at_any_offset_reads_complete_records_then_heals(name):
    kind, header, records, as_read = KINDS[name]

    @settings(max_examples=8, deadline=None)
    @given(batches=st.lists(st.lists(records, max_size=2), max_size=3), extra=records)
    def prop(batches, extra):
        with tempfile.TemporaryDirectory() as scratch:
            path = Path(scratch) / "journal.jsonl"
            data = write_journal(path, kind, header, batches)
            written = [record for batch in batches for record in batch]
            # Byte offset at which each line's JSON text is complete.
            ends, offset = [], 0
            for line in data.split(b"\n")[:-1]:
                offset += len(line)
                ends.append(offset)
                offset += 1
            for cut in range(len(data) + 1):
                path.write_bytes(data[:cut])
                if cut < ends[0]:
                    with pytest.raises(ValueError):
                        read_quietly(path, kind)
                    if cut > 0:
                        with pytest.raises(CheckpointCorrupt):
                            Journal(path, header, kind)
                        continue
                else:
                    found, landed = read_quietly(path, kind)
                    assert found == header
                    complete = sum(end <= cut for end in ends[1:])
                    assert landed == [as_read(r) for r in written[:complete]]
                    expected = written[:complete]
                if cut == 0:
                    expected = []
                journal = Journal(path, header, kind)
                journal.append([extra])
                journal.close()
                assert read_quietly(path, kind) == (
                    header, [as_read(r) for r in [*expected, extra]]
                )

    prop()


# ----------------------------------------------------------------------
# One checkpoint path, two campaigns
# ----------------------------------------------------------------------


def test_checkpoint_of_another_campaign_is_refused_not_appended(tmp_path):
    path = tmp_path / "campaign.jsonl"
    first = fixture_campaign()
    reference = first.run(ParallelExecutor(jobs=2, checkpoint=path))
    before = path.read_bytes()
    other = fixture_campaign(fault_spec=FaultSpec(bit=5))
    with pytest.raises(CheckpointCorrupt, match="different campaign"):
        other.run(ParallelExecutor(jobs=2, checkpoint=path))
    assert path.read_bytes() == before
    resumed = first.run(ParallelExecutor(jobs=2, resume=path))
    assert_campaigns_equivalent(reference, resumed)


# ----------------------------------------------------------------------
# Files written before the layouts were declared once
# ----------------------------------------------------------------------


def reencoded_checkpoint(campaign: Campaign, path: Path) -> str:
    golden, plan, geometry = campaign.golden_run()
    header, records = read_checkpoint(path)
    lines = [json.dumps(header)]
    for record in records:
        if is_failure_record(record):
            lines.append(json.dumps(failure_record(failure_from_record(record))))
        else:
            experiment = experiment_from_record(
                record, shape=golden.shape, plan=plan, geometry=geometry
            )
            lines.append(json.dumps(experiment_record(experiment)))
    return "\n".join(lines) + "\n"


class TestParentFixtures:
    def test_checkpoint_rewrites_byte_identically(self):
        campaign = fixture_campaign()
        path = FIXTURES / "checkpoint.jsonl"
        assert reencoded_checkpoint(campaign, path) == path.read_text()
        header, _ = read_checkpoint(path)
        assert header == checkpoint_header(campaign)

    def test_fresh_checkpoint_matches_fixture_lines(self, tmp_path):
        path = tmp_path / "campaign.jsonl"
        # One worker: records land in site order, as in the fixture.
        fixture_campaign().run(ParallelExecutor(jobs=1, checkpoint=path))
        fresh = path.read_text().splitlines()
        parent = (FIXTURES / "checkpoint.jsonl").read_text().splitlines()
        assert fresh[:11] == parent[:11]

    def test_checkpoint_resumes_with_its_quarantine(self, tmp_path):
        path = tmp_path / "campaign.jsonl"
        shutil.copy(FIXTURES / "checkpoint.jsonl", path)
        campaign = fixture_campaign()
        resumed = campaign.run(ParallelExecutor(jobs=2, resume=path))
        assert resumed.failures == [FailureRecord(
            row=3, col=3, kind=FailureKind.CRASH, attempts=2,
            error="RuntimeError: injected",
        )]
        serial = {e.site: e for e in campaign.run(SerialExecutor()).experiments}
        assert len(resumed.experiments) == 15
        for experiment in resumed.experiments:
            assert_experiments_equal(serial[experiment.site], experiment)
        # The resume appended only the four sites that had not landed.
        appended = path.read_text()
        assert appended.startswith((FIXTURES / "checkpoint.jsonl").read_text())
        assert len(read_checkpoint(path)[1]) == 16

    def test_job_registry_rewrites_byte_identically(self, tmp_path):
        path = FIXTURES / "jobs.jsonl"
        lines = [json.dumps(job_registry_header())] + [
            json.dumps(job_record(**record)) for record in read_job_registry(path)
        ]
        assert "\n".join(lines) + "\n" == path.read_text()
        # A server resuming from it re-queues nothing and appends nothing.
        shutil.copy(path, tmp_path / "jobs.jsonl")
        manager = JobManager(tmp_path)
        assert manager.open(resume=True) == 0
        assert [job.state for job in manager.jobs()] == ["done", "cancelled"]
        manager.close()
        assert (tmp_path / "jobs.jsonl").read_bytes() == path.read_bytes()

    def test_registry_specs_decode_and_reencode(self):
        from repro.core.serialize import encode_campaign_spec

        for record in read_job_registry(FIXTURES / "jobs.jsonl"):
            campaign, executor = decode_campaign_spec(record["spec"])
            assert encode_campaign_spec(campaign, executor) == record["spec"]

    def test_result_artefact_rewrites_byte_identically(self):
        campaign = fixture_campaign()
        text = (FIXTURES / "result.json").read_text()
        rebuilt = campaign_result_from_record(json.loads(text), campaign)
        assert json.dumps(campaign_result_record(rebuilt)) == text
        assert_campaigns_equivalent(campaign.run(SerialExecutor()), rebuilt)

    # The archive and the fault dictionary fixtures hold the parent's
    # dicts as one-line JSON, as save_* writes them: key order and
    # values are what is compared.
    def test_archive_matches_a_fresh_run(self):
        parent = (FIXTURES / "campaign.json").read_text()
        fresh = campaign_to_dict(fixture_campaign().run(SerialExecutor()))
        fresh["wall_seconds"] = json.loads(parent)["wall_seconds"]
        assert json.dumps(fresh) + "\n" == parent

    def test_fault_dictionary_matches_a_fresh_run(self):
        conv = Campaign(
            MESH,
            ConvWorkload.paper_kernel(6, (3, 3, 2, 3)),
            sites=[(0, 0), (1, 2), (3, 1)],
        )
        fresh = fault_dictionary(conv.run(SerialExecutor()))
        assert json.dumps(fresh) + "\n" == (FIXTURES / "dictionary.json").read_text()
