"""JSON serialisation of campaigns, checkpoints, wire payloads and specs.

Campaign archives (``save_campaign``) make expensive FI campaigns
reloadable; a *fault dictionary* (``fault_dictionary``) hands one entry per
fault site to application-level injectors (TensorFI / LLTFI), the paper's
end goal. Every persisted record is declared once below as a layout
(:mod:`repro.core.records`) from which its encoder and strict decoder both
derive; the crash-safe JSONL files are journals (:mod:`repro.core.journal`).
Patterns are stored sparsely, because SSF corruption is sparse in exactly
the structured way the taxonomy describes.
"""

from __future__ import annotations

import base64
import json
import pickle
import struct
from pathlib import Path
from typing import Any, Literal, get_args

import numpy as np

from repro.core.campaign import (
    Campaign,
    CampaignResult,
    ConvWorkload,
    ExperimentResult,
    FaultSpec,
    FillKind,
    GemmWorkload,
)
from repro.core.classifier import Classification, PatternClass
from repro.core.fault_patterns import FaultPattern
from repro.core.journal import JournalKind, read_journal
from repro.core.records import SCHEMA_VERSION, SpecError, Version, decode
from repro.core.records import decode_record, encode, key, layout
from repro.core.resilience import FailureKind, FailureRecord
from repro.faults.sites import FaultSite
from repro.obs.metrics import MetricsRegistry
from repro.ops.im2col import ConvGeometry
from repro.ops.tiling import TilingPlan
from repro.systolic import Dataflow, MeshConfig

__all__ = [
    "SCHEMA_VERSION", "SpecError", "MAX_FRAME_BYTES", "JOB_STATES",
    "CHECKPOINT_JOURNAL", "REGISTRY_JOURNAL",
    "campaign_to_dict", "save_campaign", "load_campaign",
    "fault_dictionary", "save_fault_dictionary",
    "metrics_to_dict", "metrics_from_dict", "save_metrics", "load_metrics",
    "checkpoint_header", "experiment_record", "experiment_from_record",
    "failure_record", "failure_from_record", "is_failure_record",
    "read_checkpoint",
    "encode_frame", "decode_frame", "lease_record", "lease_from_record",
    "fabric_setup_record", "fabric_setup_from_record",
    "encode_campaign_spec", "decode_campaign_spec",
    "job_registry_header", "job_record", "job_from_record", "read_job_registry",
    "campaign_result_record", "campaign_result_from_record",
]


# -- Layouts shared by several records ---------------------------------


@layout
class _Mesh:
    rows: int = key(minimum=1)
    cols: int = key(minimum=1)


@layout
class _Coords:
    row: int
    col: int


@layout
class _FailureEvidence:
    kind: FailureKind
    attempts: int
    error: str


@layout
class _Quarantine:
    kind: Literal["quarantine"] = "quarantine"
    site: _Coords
    failure: _FailureEvidence


def _identity(run: Campaign | CampaignResult) -> dict[str, Any]:
    """The header fields naming a campaign — shared by the checkpoint
    header, the result artefact, the archive and the fault dictionary."""
    return {
        "workload": run.workload.describe(),
        "operation": str(run.workload.operation),
        "mesh": _Mesh(rows=run.mesh.rows, cols=run.mesh.cols),
        "fault_spec": run.fault_spec,
    }


def _quarantine(failure: FailureRecord) -> _Quarantine:
    return _Quarantine(
        site=_Coords(row=failure.row, col=failure.col),
        failure=_FailureEvidence(
            kind=failure.kind, attempts=failure.attempts, error=failure.error
        ),
    )


def _failure(record: _Quarantine) -> FailureRecord:
    return FailureRecord(
        row=record.site.row, col=record.site.col, **vars(record.failure)
    )


# -- Archival artefact and fault dictionary ----------------------------


def _gemm_cells(pattern: FaultPattern) -> list[list[int]]:
    """The corrupted ``[row, col]`` cells of a pattern in GEMM space."""
    return np.argwhere(pattern.gemm_mask()).tolist()


def campaign_to_dict(result: CampaignResult) -> dict[str, Any]:
    """Serialise a campaign result to JSON-compatible primitives: the
    golden output by shape only, each experiment with its corrupted
    coordinates, and ``"telemetry"`` only for an observability-armed run."""
    identity, plan = _identity(result), result.plan
    data: dict[str, Any] = {
        "schema_version": SCHEMA_VERSION,
        "workload": identity["workload"],
        "operation": identity["operation"],
        "fault_spec": encode(identity["fault_spec"], FaultSpec),
        "mesh": encode(identity["mesh"]),
        "dataflow": str(plan.dataflow),
        "gemm_shape": [plan.m, plan.k, plan.n],
        "tile_shape": [plan.tile_m, plan.tile_k, plan.tile_n],
        "output_shape": list(result.golden.shape),
        "wall_seconds": result.wall_seconds,
        "failures": [failure_record(f) for f in result.failures],
        "experiments": [
            {
                "site": encode(e.site, FaultSite),
                "pattern_class": e.pattern_class.value,
                "num_corrupted": e.num_corrupted,
                "max_abs_deviation": e.max_abs_deviation,
                "corrupted_cells": (
                    _gemm_cells(e.pattern) if e.pattern is not None else None
                ),
            }
            for e in result.experiments
        ],
    }
    if result.telemetry is not None:
        data["telemetry"] = result.telemetry
    return data


def save_campaign(result: CampaignResult, path: str | Path) -> Path:
    """Write a campaign result as JSON; returns the written path."""
    path = Path(path)
    path.write_text(json.dumps(campaign_to_dict(result)))
    return path


def load_campaign(path: str | Path) -> dict[str, Any]:
    """Load a saved campaign artefact as plain dicts; raises
    :class:`ValueError` if its schema version is unknown."""
    data = json.loads(Path(path).read_text())
    version = data.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ValueError(
            f"unsupported campaign schema version {version!r} "
            f"(expected {SCHEMA_VERSION})"
        )
    return data


def fault_dictionary(result: CampaignResult) -> dict[str, Any]:
    """Build an LLTFI-style fault dictionary from a campaign: one entry
    per fault site, keyed ``"row,col"``, with the pattern class and the
    corrupted coordinates a downstream injector perturbs to replay it."""
    entries: dict[str, Any] = {}
    for experiment in result.experiments:
        entry: dict[str, Any] = {
            "pattern_class": experiment.pattern_class.value,
            "num_corrupted": experiment.num_corrupted,
        }
        if experiment.pattern is not None:
            entry["cells"] = _gemm_cells(experiment.pattern)
            if experiment.pattern.is_conv:
                entry["channels"] = list(experiment.pattern.corrupted_channels())
        entries[f"{experiment.site.row},{experiment.site.col}"] = entry
    identity = _identity(result)
    return {
        "schema_version": SCHEMA_VERSION,
        "hardware": {
            "mesh_rows": identity["mesh"].rows,
            "mesh_cols": identity["mesh"].cols,
            "dataflow": str(result.plan.dataflow),
        },
        "operation": identity["workload"],
        "fault_model": result.fault_spec.describe(),
        "sites": entries,
    }


def save_fault_dictionary(result: CampaignResult, path: str | Path) -> Path:
    """Write the fault dictionary as JSON; returns the written path."""
    path = Path(path)
    path.write_text(json.dumps(fault_dictionary(result)))
    return path


# -- Metrics snapshot (see repro.obs.metrics) --------------------------


@layout
class _MetricsSnapshot:
    schema_version: Version = SCHEMA_VERSION
    kind: Literal["metrics-snapshot"] = "metrics-snapshot"
    metrics: list[dict]


def metrics_to_dict(registry: MetricsRegistry) -> dict[str, Any]:
    """Serialise a metrics registry as a versioned JSON snapshot (the
    :meth:`~repro.obs.metrics.MetricsRegistry.snapshot` dump inside the
    envelope every artefact of this module carries)."""
    return encode(_MetricsSnapshot(metrics=registry.snapshot()))


def metrics_from_dict(data: dict[str, Any]) -> MetricsRegistry:
    """Rebuild a :class:`~repro.obs.metrics.MetricsRegistry` snapshot;
    raises :class:`ValueError` for another artefact or schema version."""
    snapshot = decode_record(_MetricsSnapshot, data, "metrics snapshot artefact")
    return MetricsRegistry.from_snapshot(snapshot.metrics)


def save_metrics(registry: MetricsRegistry, path: str | Path) -> Path:
    """Write a metrics snapshot as JSON; returns the written path."""
    path = Path(path)
    path.write_text(json.dumps(metrics_to_dict(registry), indent=2))
    return path


def load_metrics(path: str | Path) -> MetricsRegistry:
    """Load a metrics snapshot written by :func:`save_metrics`."""
    return metrics_from_dict(json.loads(Path(path).read_text()))


# -- Checkpoint records (a journal) ----------------------------------
#
# Records land in completion order and carry their fault site, so the
# executor merges them back into canonical site order.


@layout
class _CheckpointHeader:
    schema_version: Version = SCHEMA_VERSION
    kind: Literal["campaign-checkpoint"] = "campaign-checkpoint"
    workload: str
    operation: str
    mesh: _Mesh
    fault_spec: FaultSpec
    engine: str
    num_sites: int


@layout
class _Experiment:
    site: FaultSite
    classification: Classification
    num_corrupted: int
    max_abs_deviation: int
    #: ``[*coords, deviation]`` per corrupted element. The bulky field: a
    #: bare ``list``, checked as one integer array when densified.
    cells: list | None


def checkpoint_header(campaign: Campaign) -> dict[str, Any]:
    """The identifying first line of a campaign checkpoint stream."""
    return encode(_CheckpointHeader(
        **_identity(campaign),
        engine=campaign.engine_kind,
        num_sites=len(campaign.sites),
    ))


def experiment_record(experiment: ExperimentResult) -> dict[str, Any]:
    """Serialise one experiment as a checkpoint record. The classification
    evidence is stored verbatim, so a resumed campaign is field-for-field
    identical to an uninterrupted one even when patterns were not kept."""
    cells: list[list[int]] | None = None
    if experiment.pattern is not None:
        pattern = experiment.pattern
        cells = np.column_stack(
            [np.argwhere(pattern.mask), pattern.deviation[pattern.mask]]
        ).tolist()
    return encode(_Experiment(
        site=experiment.site,
        classification=experiment.classification,
        num_corrupted=experiment.num_corrupted,
        max_abs_deviation=experiment.max_abs_deviation,
        cells=cells,
    ))


def experiment_from_record(
    record: dict[str, Any],
    shape: tuple[int, ...] | None = None,
    plan: TilingPlan | None = None,
    geometry: ConvGeometry | None = None,
) -> ExperimentResult:
    """Rebuild an :class:`ExperimentResult` from a checkpoint record.

    The sparse cells are densified against ``shape`` (the golden output's)
    with ``plan`` and ``geometry`` reattached; without a shape the pattern
    is ``None``, as a ``keep_patterns=False`` run produces.

    Raises :class:`ValueError` if the record does not match the experiment
    layout.
    """
    parsed = decode(_Experiment, record)
    pattern: FaultPattern | None = None
    if parsed.cells is not None and shape is not None:
        deviation = np.zeros(shape, dtype=np.int64)
        if parsed.cells:
            cells = np.asarray(parsed.cells)
            if cells.dtype.kind != "i" or cells.shape[1:] != (len(shape) + 1,):
                raise ValueError(
                    f"cells must be [*coords, deviation] integer lists of "
                    f"length {len(shape) + 1}"
                )
            deviation[tuple(cells[:, :-1].T)] = cells[:, -1]
        pattern = FaultPattern(
            mask=deviation != 0, deviation=deviation, plan=plan, geometry=geometry
        )
    return ExperimentResult(
        site=parsed.site,
        classification=parsed.classification,
        num_corrupted=parsed.num_corrupted,
        max_abs_deviation=parsed.max_abs_deviation,
        pattern=pattern,
    )


def failure_record(failure: FailureRecord) -> dict[str, Any]:
    """Serialise a quarantined site as a checkpoint line (``"kind":
    "quarantine"``), so a resume restores it instead of re-running it."""
    return encode(_quarantine(failure))


def failure_from_record(record: dict[str, Any]) -> FailureRecord:
    """Rebuild a :class:`FailureRecord` from a quarantine checkpoint line."""
    return _failure(decode_record(_Quarantine, record, "quarantine record"))


def is_failure_record(record: dict[str, Any]) -> bool:
    """True when a checkpoint record is a quarantine (failure) line."""
    return record.get("kind") == "quarantine"


def _checkpoint_line(record: Any) -> dict[str, Any]:
    if not isinstance(record, dict) or "site" not in record:
        raise ValueError("record is not an experiment object")
    return record


#: The campaign checkpoint journal: experiment and quarantine lines.
CHECKPOINT_JOURNAL = JournalKind(
    label="checkpoint",
    owner="campaign",
    header=_CheckpointHeader,
    check_record=_checkpoint_line,
    skip_note="; the site will be re-executed",
)


def read_checkpoint(path: str | Path) -> tuple[dict[str, Any], list[dict[str, Any]]]:
    """Read a checkpoint stream: ``(header, experiment records)`` (see
    :func:`~repro.core.journal.read_journal`)."""
    return read_journal(path, CHECKPOINT_JOURNAL)


# -- Fabric wire codecs (see repro.core.fabric) -----------------------
#
# A frame is a 4-byte big-endian length, then one JSON object with a
# ``"type"`` key. Results travel as checkpoint experiment records.

#: Upper bound on one frame's payload: generous, but finite so a corrupt
#: length prefix cannot make a peer allocate unboundedly.
MAX_FRAME_BYTES = 64 * 1024 * 1024

_FRAME_HEADER = struct.Struct(">I")


def encode_frame(message: dict[str, Any]) -> bytes:
    """Encode one fabric message as a length-prefixed JSON frame.

    Raises :class:`ValueError` if ``message`` lacks a ``"type"`` key or
    encodes past :data:`MAX_FRAME_BYTES`.
    """
    if "type" not in message:
        raise ValueError("fabric messages must carry a 'type' key")
    payload = json.dumps(message, separators=(",", ":")).encode("utf-8")
    if len(payload) > MAX_FRAME_BYTES:
        raise ValueError(
            f"frame payload of {len(payload)} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte frame limit"
        )
    return _FRAME_HEADER.pack(len(payload)) + payload


def decode_frame(payload: bytes) -> dict[str, Any]:
    """Decode one frame *payload* (the length prefix already consumed).

    Raises :class:`ValueError` if the payload is not a JSON object with a
    ``"type"`` key.
    """
    try:
        message = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ValueError(f"undecodable frame payload: {exc}") from exc
    if not isinstance(message, dict) or "type" not in message:
        raise ValueError("frame payload is not a typed fabric message")
    return message


@layout
class _Lease:
    kind: Literal["lease"] = "lease"
    shard_id: int
    worker_id: int
    deadline: float
    granted_at: float
    renewals: int


def lease_record(lease) -> dict[str, Any]:
    """Serialise one shard lease (:class:`repro.core.fabric.lease.Lease`),
    the coordinator's status surface."""
    return encode(_Lease(**vars(lease)))


def lease_from_record(record: dict[str, Any]):
    """Rebuild a :class:`repro.core.fabric.lease.Lease` from its record."""
    from repro.core.fabric.lease import Lease

    fields = vars(decode_record(_Lease, record, "lease record"))
    return Lease(**{name: fields[name] for name in fields if name != "kind"})


@layout
class _FabricSetup:
    kind: Literal["fabric-setup"] = "fabric-setup"
    schema_version: Version = SCHEMA_VERSION
    campaign: str
    chaos: str | None
    trace: bool
    shard_timeout: float | None


def _pickle_b64(obj: Any) -> str:
    return base64.b64encode(pickle.dumps(obj)).decode("ascii")


def _unpickle_b64(text: str) -> Any:
    return pickle.loads(base64.b64decode(text.encode("ascii")))


def fabric_setup_record(
    campaign: Campaign,
    chaos: Any = None,
    trace: bool = False,
    shard_timeout: float | None = None,
) -> dict[str, Any]:
    """The coordinator's ``welcome`` payload for a joining worker. The
    campaign and chaos specs travel as base64 pickle, so the fabric assumes
    the trust domain of :mod:`multiprocessing`."""
    return encode(_FabricSetup(
        campaign=_pickle_b64(campaign),
        chaos=_pickle_b64(chaos) if chaos is not None else None,
        trace=bool(trace),
        shard_timeout=shard_timeout,
    ))


def fabric_setup_from_record(
    record: dict[str, Any],
) -> tuple[Campaign, Any, bool, float | None]:
    """Decode a ``welcome`` payload into ``(campaign, chaos, trace,
    shard_timeout)``; raises :class:`ValueError` if it is not one."""
    setup = decode_record(_FabricSetup, record, "fabric setup record")
    chaos = _unpickle_b64(setup.chaos) if setup.chaos is not None else None
    return _unpickle_b64(setup.campaign), chaos, setup.trace, setup.shard_timeout


# -- Campaign spec (the service's POST /campaigns request body) --------
#
# A campaign plus the executor to run it — what CLI flags encode. Every
# error names its field's dotted path, so an HTTP 400 points at the key.


@layout
class _GemmSpec:
    op: Literal["gemm"]
    m: int = key(minimum=1)
    k: int = key(minimum=1)
    n: int = key(minimum=1)
    dataflow: Dataflow = Dataflow.WEIGHT_STATIONARY
    fill: FillKind = FillKind.ONES
    seed: int = key(0, minimum=0)


#: The ``ConvWorkload`` fields a spec's ``kernel`` list carries, in order.
_KERNEL = ("kernel_rows", "kernel_cols", "in_channels", "out_channels")


@layout
class _ConvSpec:
    op: Literal["conv"]
    input_size: int = key(minimum=1)
    #: The paper's ``[R, S, C, K]``.
    kernel: tuple[int, int, int, int] = key(minimum=1)
    batch: int = key(1, minimum=1)
    stride: int = key(1, minimum=1)
    padding: int = key(0, minimum=0)
    dataflow: Dataflow = Dataflow.WEIGHT_STATIONARY
    fill: FillKind = FillKind.ONES
    seed: int = key(0, minimum=0)


@layout
class _FaultSpecDoc:
    signal: str = FaultSpec.signal
    bit: int = key(FaultSpec.bit, minimum=0)
    stuck: int = 1


@layout
class _SerialSpec:
    kind: Literal["serial"] = "serial"


@layout
class _ParallelSpec:
    kind: Literal["parallel"] = "parallel"
    jobs: int = key(2, minimum=1)


@layout
class _FabricSpec:
    kind: Literal["fabric"] = "fabric"
    host: str = "127.0.0.1"
    port: int = key(0, minimum=0)
    workers: int = key(2, minimum=1)
    lease_seconds: float = key(10.0, positive=True)
    heartbeat_interval: float = key(2.0, positive=True)
    join_timeout: float = key(60.0, positive=True)


#: A missing ``kind`` selects the first member, serial.
_ExecutorSpec = _SerialSpec | _ParallelSpec | _FabricSpec


@layout
class _CampaignSpec:
    schema_version: Version = SCHEMA_VERSION
    kind: Literal["campaign-spec"] = "campaign-spec"
    mesh: _Mesh
    workload: _GemmSpec | _ConvSpec
    fault: _FaultSpecDoc = _FaultSpecDoc()
    engine: Literal["functional", "cycle", "analytic"] = "functional"
    sites: list[tuple[int, int]] | None = None
    keep_patterns: bool = True
    executor: _ExecutorSpec = _SerialSpec()


def _checked(executor: _ExecutorSpec) -> _ExecutorSpec:
    """The cross-field rules of an executor spec."""
    if isinstance(executor, _FabricSpec):
        if executor.port > 65535:
            raise SpecError("executor.port", f"must be <= 65535, got {executor.port}")
        if executor.heartbeat_interval >= executor.lease_seconds:
            raise SpecError(
                "executor.heartbeat_interval",
                f"({executor.heartbeat_interval}) must be shorter than "
                f"lease_seconds ({executor.lease_seconds}), "
                f"or every lease expires between renewals",
            )
        if not executor.host:
            raise SpecError("executor.host", "expected a non-empty string")
    return executor


def decode_campaign_spec(data: Any) -> tuple[Campaign, dict[str, Any]]:
    """Validate a campaign spec and build ``(campaign, executor spec)``, the
    executor spec as a normalised dict with its defaults filled in. Raises
    :class:`SpecError` whose ``path`` names the field (``"workload.m"``)."""
    spec = decode(_CampaignSpec, data)
    mesh = MeshConfig(rows=spec.mesh.rows, cols=spec.mesh.cols)
    fields = {name: v for name, v in vars(spec.workload).items() if name != "op"}
    if isinstance(spec.workload, _GemmSpec):
        workload = GemmWorkload(**fields)
    else:
        kernel = dict(zip(_KERNEL, fields.pop("kernel")))
        workload = ConvWorkload(**fields, **kernel)
    try:
        fault_spec = FaultSpec(
            signal=spec.fault.signal, bit=spec.fault.bit, stuck_value=spec.fault.stuck
        )
    except (KeyError, ValueError) as exc:
        raise SpecError("fault", str(exc)) from exc
    for index, (row, col) in enumerate(spec.sites or ()):
        if not (0 <= row < mesh.rows and 0 <= col < mesh.cols):
            raise SpecError(
                f"sites[{index}]",
                f"({row}, {col}) is outside the {mesh.rows}x{mesh.cols} mesh",
            )
    campaign = Campaign(
        mesh,
        workload,
        fault_spec=fault_spec,
        engine=spec.engine,
        sites=spec.sites,
        keep_patterns=spec.keep_patterns,
    )
    return campaign, encode(_checked(spec.executor))


def encode_campaign_spec(
    campaign: Campaign, executor: dict[str, Any] | None = None
) -> dict[str, Any]:
    """Serialise a campaign (and optional executor spec) as a spec document
    that :func:`decode_campaign_spec` rebuilds with identical fields."""
    workload = campaign.workload
    fields = {name: v for name, v in vars(workload).items() if name not in _KERNEL}
    if isinstance(workload, GemmWorkload):
        workload_spec: _GemmSpec | _ConvSpec = _GemmSpec(op="gemm", **fields)
    else:
        workload_spec = _ConvSpec(op="conv", kernel=workload.kernel_spec, **fields)
    fault = campaign.fault_spec
    return encode(_CampaignSpec(
        mesh=_Mesh(rows=campaign.mesh.rows, cols=campaign.mesh.cols),
        workload=workload_spec,
        fault=_FaultSpecDoc(
            signal=fault.signal, bit=fault.bit, stuck=fault.stuck_value
        ),
        engine=campaign.engine_kind,
        sites=campaign.sites,
        keep_patterns=campaign.keep_patterns,
        executor=_checked(decode(_ExecutorSpec, executor or {}, "executor")),
    ))


# -- Job registry (a journal of full job snapshots) ---------------------

_JobState = Literal["queued", "running", "done", "failed", "cancelled"]

#: Terminal and non-terminal job lifecycle states (see repro.service.jobs).
JOB_STATES = get_args(_JobState)


@layout
class _RegistryHeader:
    schema_version: Version = SCHEMA_VERSION
    kind: Literal["job-registry"] = "job-registry"


@layout
class _Job:
    schema_version: Version = SCHEMA_VERSION
    kind: Literal["job"] = "job"
    job_id: str
    seq: int
    state: _JobState
    spec: dict
    error: str | None = None


def job_registry_header() -> dict[str, Any]:
    """The identifying first line of a service job registry stream."""
    return encode(_RegistryHeader())


def job_record(
    job_id: str,
    seq: int,
    state: str,
    spec: dict[str, Any],
    error: str | None = None,
) -> dict[str, Any]:
    """One lifecycle snapshot of a service job, JSON-compatible."""
    if state not in JOB_STATES:
        raise ValueError(f"unknown job state {state!r}")
    return encode(_Job(job_id=job_id, seq=seq, state=state, spec=spec, error=error))


def job_from_record(record: dict[str, Any]) -> dict[str, Any]:
    """Validate one job registry record into a plain dict of ``job_id``,
    ``seq``, ``state``, ``spec`` and ``error``; raises :class:`ValueError`."""
    job = vars(decode_record(_Job, record, "job record"))
    return {name: job[name] for name in ("job_id", "seq", "state", "spec", "error")}


#: The service's job registry journal: job lifecycle snapshots.
REGISTRY_JOURNAL = JournalKind(
    label="job registry",
    owner="service",
    header=_RegistryHeader,
    check_record=job_from_record,
)


def read_job_registry(path: str | Path) -> list[dict[str, Any]]:
    """Read a job registry stream: validated job snapshots in file order
    (see :func:`~repro.core.journal.read_journal`)."""
    return read_journal(path, REGISTRY_JOURNAL)[1]


# -- Campaign result artefact (GET /campaigns/{id}/result) ------------


@layout
class _CampaignResult:
    schema_version: Version = SCHEMA_VERSION
    kind: Literal["campaign-result"] = "campaign-result"
    workload: str
    operation: str
    mesh: _Mesh
    fault_spec: FaultSpec
    wall_seconds: float
    telemetry: Any = None
    #: Checkpoint records, each decoded by :func:`experiment_from_record`.
    experiments: list[Any]
    failures: list[_Quarantine]


def campaign_result_record(result: CampaignResult) -> dict[str, Any]:
    """Serialise a campaign result at checkpoint fidelity: unlike the
    archival :func:`campaign_to_dict` it stores every experiment's
    checkpoint record, so the same spec rebuilds it field for field."""
    return encode(_CampaignResult(
        **_identity(result),
        wall_seconds=result.wall_seconds,
        telemetry=result.telemetry,
        experiments=[experiment_record(e) for e in result.experiments],
        failures=[_quarantine(f) for f in result.failures],
    ))


def campaign_result_from_record(
    data: dict[str, Any], campaign: Campaign
) -> CampaignResult:
    """Rebuild a full-fidelity :class:`CampaignResult` from its artefact,
    recomputing the deterministic golden run from ``campaign``. Raises
    :class:`ValueError` for another artefact or schema version."""
    artefact = decode_record(_CampaignResult, data, "campaign result artefact")
    golden, plan, geometry = campaign.golden_run()
    shape = golden.shape if campaign.keep_patterns else None
    return CampaignResult(
        workload=campaign.workload,
        fault_spec=campaign.fault_spec,
        mesh=campaign.mesh,
        golden=golden,
        plan=plan,
        geometry=geometry,
        experiments=[
            experiment_from_record(record, shape=shape, plan=plan, geometry=geometry)
            for record in artefact.experiments
        ],
        wall_seconds=artefact.wall_seconds,
        failures=[_failure(f) for f in artefact.failures],
        telemetry=artefact.telemetry,
    )
