"""The five benchmark workloads.

Each workload turns the benchmark's ``--seed`` into campaign specs (the
program sees only the specs), prepares them during set-up, and runs
operations in a closed loop: the next operation starts when the previous
one has finished.  An operation ends when its result artefact is in
hand.  Checks run after each operation, outside the timed region.

Why these five: they load the layers very differently (see README.md).

* ``cold_cli``          -- fresh CLI processes: import dominates.
* ``rq3_analytic``      -- the paper's 112x112 grid, warm, analytic tier.
* ``checkpoint_resume`` -- the durable journal under a two-worker pool.
* ``functional_sweep``  -- per-site simulation, bypassing the analytic tier.
* ``service_submit``    -- the HTTP service with two closed-loop clients.
"""

from __future__ import annotations

import gc
import json
import os
import random
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import checks
import layers

#: Modules the in-process workloads import during set-up.
IN_PROCESS_IMPORTS = (
    "repro.core.campaign",
    "repro.core.executor",
    "repro.core.serialize",
    "repro.obs",
    "repro.systolic",
)
#: What a ``repro-fi`` process imports before it does anything.
CLI_IMPORTS = ("repro.cli",)


@dataclass
class Op:
    """One timed operation and what the checks and the trace need of it."""

    kind: str
    start_ns: int = 0
    end_ns: int = 0
    sites: int = 0
    analytic_sites: int = 0
    traced: bool = False
    ok: bool = True
    problems: list[str] = field(default_factory=list)
    #: Deterministic per-operation counts the workload measures itself.
    counts: dict[str, int] = field(default_factory=dict)
    #: Client-observed phase times (service only).
    phases: dict[str, float] = field(default_factory=dict)
    #: Metrics registry of a traced in-process operation.
    metrics: Any = None
    payload: Any = None

    @property
    def wall_s(self) -> float:
        return (self.end_ns - self.start_ns) / 1e9


def _stable_size(size: int, *volatile: Any) -> int:
    """Artefact size less the encoded values that differ between two
    runs of one campaign (its wall time and telemetry)."""
    return size - sum(len(json.dumps(value)) for value in volatile)


def _run_and_save(self, op: Op) -> None:
    """One operation of an in-process grid: run every campaign of
    ``self.grid(op.kind)`` with the serial executor and save each result."""
    from repro.core.executor import SerialExecutor
    from repro.core.serialize import save_campaign

    obs, op.metrics = self.obs(op.traced)
    op.payload = {}
    op.counts["serialize.artefact_bytes"] = 0
    for key, campaign in self.grid(op.kind).items():
        result = campaign.run(SerialExecutor(obs=obs))
        path = save_campaign(result, self.work_dir / f"{key}.json")
        op.counts["serialize.artefact_bytes"] += _stable_size(path.stat().st_size, result.wall_seconds)
        op.payload[key] = result
        op.sites += len(campaign.sites)
        if campaign.engine_kind == "analytic":
            op.analytic_sites += len(campaign.sites)


class Workload:
    """Base: a sequential closed loop of in-process operations."""

    name = ""
    #: What set-up imports in the benchmark process.
    imports: tuple[str, ...] = IN_PROCESS_IMPORTS
    #: What the program imports before its first campaign; the
    #: ``import.*`` metrics time these in a fresh interpreter.
    program_imports: tuple[str, ...] = IN_PROCESS_IMPORTS
    kinds: tuple[str, ...] = ("op",)
    concurrent = False
    #: Operations fan out over a process pool (and need every core).
    uses_pool = False

    def __init__(self, seed: int, work_dir: Path) -> None:
        self.seed = seed
        self.rng = random.Random(f"{self.name}:{seed}")
        self.work_dir = work_dir
        self.tracer: layers.Tracer | None = None
        self.digests: dict[str, str] = {}
        self.cores = len(os.sched_getaffinity(0))

    # -- set-up ----------------------------------------------------------
    def import_program(self) -> None:
        import importlib

        for module in self.imports:
            importlib.import_module(module)

    def prepare(self) -> None:
        """Build inputs and fill caches; everything a first operation
        would otherwise pay for."""

    def _operand_seed(self) -> int:
        return self.rng.randrange(1, 2**31)

    # -- operations ------------------------------------------------------
    def kind_for(self, index: int) -> str:
        return self.kinds[index % len(self.kinds)]

    def obs(self, traced: bool, metrics: bool = False):
        """The observability bundle of one operation: the span recorder
        when traced, plus a metrics registry if asked.  An armed registry
        adds a telemetry section to saved artefacts, so workloads that
        save results leave it off."""
        from repro.obs import NULL_METRICS, NULL_OBS, MetricsRegistry, Observability

        if not traced:
            return NULL_OBS, None
        registry = MetricsRegistry() if metrics else None
        bundle = Observability(
            recorder=self.tracer.recorder,
            metrics=registry if registry is not None else NULL_METRICS,
        )
        return bundle, registry

    def run(self, op: Op) -> None:
        raise NotImplementedError

    def check(self, op: Op, index: int) -> None:
        raise NotImplementedError

    def run_phase(self, seconds: float, traced_mode: bool, min_ops: int) -> list[Op]:
        """Closed loop until ``seconds`` of operation time have passed.

        :meth:`warm` goes first, so the timed operations do not pay for
        first-call effects.  In traced mode each kind runs
        twice in a row, once untraced and once traced, so both halves see
        the same mix of kinds.
        """
        self.warm()
        cpus = sorted(os.sched_getaffinity(0))
        ops: list[Op] = []
        busy = 0.0
        index = 0
        rotate = not self.uses_pool
        try:
            # Whole rounds over the cores, so each core weighs the same in
            # the median whatever its speed during this run.
            while busy < seconds or len(ops) < min_ops or (rotate and len(ops) % len(cpus)):
                kind = self.kind_for(index // 2 if traced_mode else index)
                # Pairs alternate which half goes first (untraced, traced,
                # traced, untraced, ...) so drift does not bias the overhead.
                traced = traced_mode and (index % 2 == 1) == (index // 2 % 2 == 0)
                op = Op(kind=kind, traced=traced)
                if rotate:
                    # A single-threaded operation stays on whichever core it
                    # started on, and a shared host slows one core at a time:
                    # rotating cores keeps one slow spell from setting a run.
                    os.sched_setaffinity(0, {cpus[index % len(cpus)]})
                self._timed(op)
                busy += op.wall_s
                self._checked(op, index)
                ops.append(op)
                index += 1
        finally:
            os.sched_setaffinity(0, cpus)
        return ops

    def warm(self) -> None:
        """An untimed operation that takes first-call costs out of the timed phase."""
        warmup = Op(kind=self.kind_for(0))
        self._timed(warmup)
        if not warmup.ok:
            raise RuntimeError(f"warm-up operation failed: {warmup.problems}")

    def _timed(self, op: Op) -> None:
        # Garbage left by the previous operation and its checks would be
        # collected at a point that depends on their allocation history;
        # collecting it here makes every operation start from the same heap.
        gc.collect()
        if self.tracer is not None:
            self.tracer.enabled = op.traced
        op.start_ns = time.perf_counter_ns()
        try:
            self.run(op)
        except Exception as exc:  # an operation that raised counts as failed
            op.ok = False
            op.problems.append(f"{op.kind}: raised {type(exc).__name__}: {exc}")
        op.end_ns = time.perf_counter_ns()
        if self.tracer is not None:
            self.tracer.enabled = False

    def _checked(self, op: Op, index: int) -> None:
        if op.ok:
            try:
                self.check(op, index)
            except Exception as exc:  # a check that cannot run is a failed check
                op.problems.append(f"{op.kind}: check raised {type(exc).__name__}: {exc}")
        op.payload = None
        op.ok = op.ok and not op.problems

    def same_digest(self, key: str, result) -> list[str]:
        """Repeated operations must reproduce the first one's result."""
        digest = checks.result_digest(result)
        first = self.digests.setdefault(key, digest)
        return [] if digest == first else [f"{key}: result digest changed between repeats"]

    def close(self) -> None:
        """Stop whatever set-up started."""

    def finish(self) -> list[str]:
        """Teardown, then the once-per-invocation checks."""
        self.close()
        return checks.cycle_oracle_problems(random.Random(f"oracle:{self.seed}").randrange(1, 2**31))

    def environment(self) -> dict[str, Any]:
        return {}


# ----------------------------------------------------------------------


class ColdCli(Workload):
    """Fresh ``python -m repro.cli campaign --engine analytic --size 16``
    processes, one at a time, OS and WS in an order drawn from the seed."""

    name = "cold_cli"
    imports = program_imports = CLI_IMPORTS
    kinds = ("OS", "WS")

    def __init__(self, seed: int, work_dir: Path) -> None:
        super().__init__(seed, work_dir)
        self.references: dict[str, dict] = {}
        self.order: list[str] = []
        self.launcher = Path(__file__).with_name("launch.py")

    def warm(self) -> None:
        """Every operation is a fresh process: there is nothing to warm."""

    def kind_for(self, index: int) -> str:
        while len(self.order) <= index:
            block = list(self.kinds)
            self.rng.shuffle(block)
            self.order.extend(block)
        return self.order[index]

    def run(self, op: Op) -> None:
        artefact = self.work_dir / f"cli-{op.kind}.json"
        artefact.unlink(missing_ok=True)
        args = ["campaign", "--engine", "analytic", "--size", "16",
                "--dataflow", op.kind, "--json", str(artefact)]
        if op.traced:
            events = self.work_dir / "cli-events.json"
            command = [sys.executable, str(self.launcher), "--events", str(events), *args]
        else:
            command = [sys.executable, "-m", "repro.cli", *args]
        completed = subprocess.run(
            command, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            timeout=120, check=False,
        )
        if completed.returncode != 0:
            raise RuntimeError(
                f"CLI exited {completed.returncode}: "
                f"{completed.stderr.decode(errors='replace')[-300:]}"
            )
        if op.traced:
            self.tracer.recorder.ingest(json.loads(events.read_text()))
        op.sites = 256
        op.analytic_sites = 256
        op.payload = artefact

    def reference(self, kind: str) -> dict:
        """The in-process analytic result the CLI artefact must equal,
        itself checked against the functional engine on drawn sites."""
        if kind not in self.references:
            from repro.core.campaign import Campaign, GemmWorkload
            from repro.core.serialize import campaign_to_dict
            from repro.systolic import Dataflow, MeshConfig

            dataflow = {"OS": Dataflow.OUTPUT_STATIONARY, "WS": Dataflow.WEIGHT_STATIONARY}[kind]
            campaign = Campaign(MeshConfig.paper(), GemmWorkload.square(16, dataflow), engine="analytic")
            result = campaign.run()
            sites = checks.draw_sites(f"{self.seed}:{kind}", campaign.sites, 4)
            problems = checks.engine_problems(f"cold_cli {kind}", result, "functional", sites)
            if problems:
                raise RuntimeError("; ".join(problems))
            self.references[kind] = campaign_to_dict(result)
        return self.references[kind]

    def check(self, op: Op, index: int) -> None:
        artefact = json.loads(op.payload.read_text())
        op.counts["serialize.artefact_bytes"] = _stable_size(
            op.payload.stat().st_size, artefact["wall_seconds"]
        )
        op.problems += checks.artefact_problems(f"cold_cli {op.kind}", self.reference(op.kind), artefact)


# ----------------------------------------------------------------------


class Rq3Analytic(Workload):
    """The paper's RQ1-RQ3 grid, warm and in process: GEMM 112 WS, GEMM
    112 OS and a 16x16 conv with a 3x3x3x8 kernel under WS, analytic
    engine, all 256 sites, serial executor, each result saved."""

    name = "rq3_analytic"

    def prepare(self) -> None:
        from repro.core.campaign import Campaign, ConvWorkload, FillKind, GemmWorkload
        from repro.core.executor import GOLDEN_CACHE
        from repro.systolic import Dataflow, MeshConfig

        mesh = MeshConfig.paper()
        ws, os_ = Dataflow.WEIGHT_STATIONARY, Dataflow.OUTPUT_STATIONARY
        workloads = {
            "gemm112_ws": GemmWorkload(112, 112, 112, ws, FillKind.RANDOM, self._operand_seed()),
            "gemm112_os": GemmWorkload(112, 112, 112, os_, FillKind.RANDOM, self._operand_seed()),
            "conv16_ws": ConvWorkload(16, 3, 3, 3, 8, ws, fill=FillKind.RANDOM, seed=self._operand_seed()),
        }
        self.campaigns = {
            key: Campaign(mesh, workload, engine="analytic")
            for key, workload in workloads.items()
        }
        for campaign in self.campaigns.values():
            GOLDEN_CACHE.golden_run(campaign)

    run = _run_and_save

    def grid(self, kind: str) -> dict[str, Any]:
        return self.campaigns

    def check(self, op: Op, index: int) -> None:
        # Each operation re-runs one drawn site of one campaign (in turn)
        # on the functional engine; the digest ties every campaign of every
        # operation to the first, so the whole grid is covered over a run.
        keys = list(op.payload)
        checked = keys[index % len(keys)]
        site = checks.draw_sites(f"{self.seed}:{checked}:{index}", self.campaigns[checked].sites, 1)
        op.problems += checks.engine_problems(checked, op.payload[checked], "functional", site)
        for key, result in op.payload.items():
            op.problems += self.same_digest(key, result)


# ----------------------------------------------------------------------


class CheckpointResume(Workload):
    """GEMM 112 WS analytic through ``ParallelExecutor(jobs=2,
    checkpoint=...)``, then ``resume=`` from the completed checkpoint."""

    name = "checkpoint_resume"
    uses_pool = True

    def prepare(self) -> None:
        from repro.core.campaign import Campaign, FillKind, GemmWorkload
        from repro.core.executor import GOLDEN_CACHE
        from repro.systolic import Dataflow, MeshConfig

        workload = GemmWorkload(
            112, 112, 112, Dataflow.WEIGHT_STATIONARY, FillKind.RANDOM, self._operand_seed()
        )
        self.campaign = Campaign(MeshConfig.paper(), workload, engine="analytic")
        self.jobs = min(2, self.cores)
        self.checkpoint = self.work_dir / "campaign.jsonl"
        self.reference_digest: str | None = None
        GOLDEN_CACHE.golden_run(self.campaign)

    def run(self, op: Op) -> None:
        from repro.core.executor import ParallelExecutor

        obs, op.metrics = self.obs(op.traced, metrics=True)
        self.checkpoint.unlink(missing_ok=True)
        first = self.campaign.run(
            ParallelExecutor(jobs=self.jobs, checkpoint=self.checkpoint, obs=obs)
        )
        resumed = self.campaign.run(
            ParallelExecutor(jobs=self.jobs, resume=self.checkpoint, obs=obs)
        )
        op.sites = op.analytic_sites = len(self.campaign.sites)
        op.counts["serialize.checkpoint_bytes"] = self.checkpoint.stat().st_size
        op.payload = (first, resumed)

    def check(self, op: Op, index: int) -> None:
        if self.reference_digest is None:
            reference = self.campaign.run()
            sites = checks.draw_sites(f"{self.seed}:ckpt", self.campaign.sites, 2)
            problems = checks.engine_problems("checkpoint reference", reference, "functional", sites)
            if problems:
                raise RuntimeError("; ".join(problems))
            self.reference_digest = checks.result_digest(reference)
        for label, result in zip(("checkpointed", "resumed"), op.payload):
            if checks.result_digest(result) != self.reference_digest:
                op.problems.append(f"{label} run differs from the serial reference")
            if not result.is_complete:
                op.problems.append(f"{label} run quarantined sites")

    def environment(self) -> dict[str, Any]:
        return {"jobs": self.jobs, "parallel_armed": self.jobs >= 2}


# ----------------------------------------------------------------------


class FunctionalSweep(Workload):
    """The CLI's default functional engine: the exhaustive conv of
    ``rq3_analytic`` plus GEMM 112 WS on 16 sites drawn from the seed,
    in eight parts.

    A whole sweep takes ~5 s, too long for a run to hold enough
    operations for a steady median.  So the seed shuffles the conv's 256
    sites into eight blocks of 32 and the GEMM's 16 sites into eight
    pairs, and operation ``i`` runs part ``i mod 8``: any eight
    operations in a row make up the whole sweep.
    """

    name = "functional_sweep"
    parts = 8
    kinds = tuple(f"part{i}" for i in range(parts))

    def prepare(self) -> None:
        from repro.core.campaign import Campaign, ConvWorkload, FillKind, GemmWorkload
        from repro.core.executor import GOLDEN_CACHE
        from repro.systolic import Dataflow, MeshConfig

        mesh = MeshConfig.paper()
        ws = Dataflow.WEIGHT_STATIONARY
        conv = ConvWorkload(16, 3, 3, 3, 8, ws, fill=FillKind.RANDOM, seed=self._operand_seed())
        gemm = GemmWorkload(112, 112, 112, ws, FillKind.RANDOM, self._operand_seed())
        all_sites = [(r, c) for r in range(mesh.rows) for c in range(mesh.cols)]
        conv_sites = self.rng.sample(all_sites, len(all_sites))
        gemm_sites = self.rng.sample(all_sites, 2 * self.parts)
        self.grids = {}
        for i, kind in enumerate(self.kinds):
            conv_block = sorted(conv_sites[i::self.parts])
            gemm_pair = sorted(gemm_sites[i::self.parts])
            self.grids[kind] = {
                "conv16_ws": Campaign(mesh, conv, engine="functional", sites=conv_block),
                "gemm112_ws": Campaign(mesh, gemm, engine="functional", sites=gemm_pair),
            }
        self.references: dict[str, Any] = {}
        for campaign in self.grids[self.kinds[0]].values():
            GOLDEN_CACHE.golden_run(campaign)

    run = _run_and_save

    def grid(self, kind: str) -> dict[str, Any]:
        return self.grids[kind]

    def check(self, op: Op, index: int) -> None:
        from repro.core.campaign import Campaign

        for key, result in op.payload.items():
            label = f"{op.kind} {key}"
            if label not in self.references:
                campaign = self.grids[op.kind][key]
                self.references[label] = Campaign(
                    campaign.mesh, campaign.workload, engine="analytic", sites=campaign.sites
                ).run()
            op.problems += checks.result_problems(f"{label} vs analytic", self.references[label], result)
            op.problems += self.same_digest(label, result)


# ----------------------------------------------------------------------


class ServiceSubmit(Workload):
    """``repro-fi serve`` at its default settings in its own process; two
    closed-loop clients POST analytic GEMM 16 specs (random operands from
    the seed, OS and WS alternating), follow the SSE stream to ``end``,
    then GET the result."""

    name = "service_submit"
    imports = ()
    program_imports = CLI_IMPORTS
    kinds = ("OS", "WS")
    clients = 2
    #: Operations overlap, so layer time is attributed per phase, not per operation.
    concurrent = True

    def prepare(self) -> None:
        self.specs = {
            kind: {
                "mesh": {"rows": 16, "cols": 16},
                "workload": {"op": "gemm", "m": 16, "k": 16, "n": 16, "dataflow": kind,
                             "fill": "random", "seed": self._operand_seed()},
                "engine": "analytic",
            }
            for kind in self.kinds
        }
        self.campaigns: dict[str, Any] = {}
        self.server = None
        self._start_server(traced=False)

    def _start_server(self, traced: bool) -> None:
        state = self.work_dir / f"service-{'traced' if traced else 'plain'}"
        args = ["serve", "--listen", "127.0.0.1:0", "--state-dir", str(state)]
        if traced:
            self.events_path = self.work_dir / "server-events.json"
            launcher = Path(__file__).with_name("launch.py")
            command = [sys.executable, str(launcher), "--events", str(self.events_path), *args]
        else:
            command = [sys.executable, "-m", "repro.cli", *args]
        self.server = subprocess.Popen(
            command, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True
        )
        line = self.server.stdout.readline()
        if not line.startswith("service listening on http://"):
            self._stop_server()
            raise RuntimeError(f"service did not announce its port: {line!r}")
        self.port = int(line.split("http://", 1)[1].split()[0].rsplit(":", 1)[1])

    def _stop_server(self) -> None:
        server, self.server = self.server, None
        if server is None:
            return
        server.terminate()
        try:
            server.wait(timeout=60)
        except subprocess.TimeoutExpired:
            server.kill()
            server.wait()
        server.stdout.close()

    # -- one client operation -------------------------------------------
    def _request(self, method: str, path: str, body: bytes | None = None):
        import http.client

        connection = http.client.HTTPConnection("127.0.0.1", self.port, timeout=60)
        try:
            connection.request(method, path, body=body)
            response = connection.getresponse()
            return response.status, response.read()
        finally:
            connection.close()

    def _events(self, job_id: str) -> tuple[float | None, float]:
        """Follow the SSE stream; return when the job was first seen out
        of the queue and when the ``end`` frame arrived."""
        import http.client

        connection = http.client.HTTPConnection("127.0.0.1", self.port, timeout=60)
        left_queue = None
        try:
            connection.request("GET", f"/campaigns/{job_id}/events")
            response = connection.getresponse()
            if response.status != 200:
                raise RuntimeError(f"events: HTTP {response.status}")
            event = None
            while True:
                line = response.readline()
                if not line:
                    raise RuntimeError("event stream closed before end")
                text = line.decode().rstrip("\n")
                if text.startswith("event: "):
                    event = text[len("event: "):]
                elif text.startswith("data: "):
                    data = json.loads(text[len("data: "):])
                    seen = time.perf_counter_ns()
                    if left_queue is None and data.get("state") != "queued":
                        left_queue = seen
                    if event == "end":
                        if data.get("state") != "done":
                            raise RuntimeError(f"job ended {data.get('state')}: {data.get('error')}")
                        return left_queue or seen, seen
        finally:
            connection.close()

    def run(self, op: Op) -> None:
        status, body = self._request("POST", "/campaigns", json.dumps(self.specs[op.kind]).encode())
        posted = time.perf_counter_ns()
        if status != 201:
            op.counts["service.rejected"] = 1
            raise RuntimeError(f"POST /campaigns: HTTP {status}")
        job_id = json.loads(body)["job_id"]
        left_queue, ended = self._events(job_id)
        status, artefact = self._request("GET", f"/campaigns/{job_id}/result")
        if status != 200:
            op.counts["service.rejected"] = 1
            raise RuntimeError(f"GET result: HTTP {status}")
        record = json.loads(artefact)
        delivered = time.perf_counter_ns()
        op.phases = {
            "service.post_s": (posted - op.start_ns) / 1e9,
            "service.queue_wait_s": (left_queue - posted) / 1e9,
            "service.run_s": (ended - left_queue) / 1e9,
            "service.deliver_s": (delivered - ended) / 1e9,
        }
        if op.traced:
            self.tracer.mark("service.post", op.start_ns, posted, layer="service")
            self.tracer.mark("service.events", posted, ended, layer="service")
            self.tracer.mark("service.deliver", ended, delivered, layer="service")
        op.counts["serialize.artefact_bytes"] = _stable_size(
            len(artefact), record["wall_seconds"], record["telemetry"]
        )
        op.sites = op.analytic_sites = len(record["experiments"])
        op.payload = record

    def _client(self, client: int, deadline_ns: int, traced: bool, ops: list[Op], lock) -> None:
        index = client
        while True:
            op = Op(kind=self.kinds[index % len(self.kinds)], traced=traced)
            op.start_ns = time.perf_counter_ns()
            if op.start_ns >= deadline_ns:
                return
            try:
                self.run(op)
            except Exception as exc:  # refused, timed out or broken: a failure
                op.ok = False
                op.problems.append(f"{op.kind}: {type(exc).__name__}: {exc}")
            op.end_ns = time.perf_counter_ns()
            with lock:
                ops.append(op)
            index += 1

    def warm(self) -> list[Op]:
        """One untimed job of each kind, one at a time, so the server's
        first-job costs stay out of the timed phase."""
        ops = []
        for kind in self.kinds:
            op = Op(kind=kind)
            op.start_ns = time.perf_counter_ns()
            self.run(op)
            op.end_ns = time.perf_counter_ns()
            ops.append(op)
        return ops

    def _client_phase(self, seconds: float, traced: bool) -> list[Op]:
        ops: list[Op] = []
        lock = threading.Lock()
        deadline = time.perf_counter_ns() + int(seconds * 1e9)
        threads = [
            threading.Thread(target=self._client, args=(i, deadline, traced, ops, lock))
            for i in range(self.clients)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return ops

    def run_phase(self, seconds: float, traced_mode: bool, min_ops: int) -> list[Op]:
        """Untraced: one phase.  Traced: half the time against the plain
        server, half against a server whose layers are traced."""
        self.warm()
        if not traced_mode:
            ops = self._client_phase(seconds, traced=False)
        else:
            ops = self._client_phase(seconds / 2, traced=False)
            self._stop_server()
            self._start_server(traced=True)
            # The traced server's warm-up jobs run alone, so each gives the
            # server-side counts of one job of its kind.
            self.solo_ops = self.warm()
            ops += self._client_phase(seconds / 2, traced=True)
            self._stop_server()
            self.tracer.recorder.ingest(json.loads(self.events_path.read_text()))
        for index, op in enumerate(ops):
            self._checked(op, index)
        return ops

    def check(self, op: Op, index: int) -> None:
        from repro.core.serialize import campaign_result_from_record, decode_campaign_spec

        if op.kind not in self.digests:
            campaign, _ = decode_campaign_spec(self.specs[op.kind])
            reference = campaign.run()
            sites = checks.draw_sites(f"{self.seed}:service:{op.kind}", campaign.sites, 4)
            problems = checks.engine_problems(f"service {op.kind}", reference, "functional", sites)
            if problems:
                raise RuntimeError("; ".join(problems))
            self.digests[op.kind] = checks.result_digest(reference)
            self.campaigns[op.kind] = campaign
        rebuilt = campaign_result_from_record(op.payload, self.campaigns[op.kind])
        if checks.result_digest(rebuilt) != self.digests[op.kind]:
            op.problems.append(f"service {op.kind}: artefact does not rebuild to the in-process result")

    def close(self) -> None:
        self._stop_server()


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls
    for cls in (ColdCli, Rq3Analytic, CheckpointResume, FunctionalSweep, ServiceSubmit)
}
