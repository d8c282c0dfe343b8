"""Submit→result cost of the HTTP service against a direct run.

The service's contract is that the front door is a front door, not a
tax: submitting a campaign over HTTP — spec validation, the job queue,
SSE progress streaming to completion, and fetching the fsynced result
artefact — must land within 1.25x the wall time of calling
``campaign.run(SerialExecutor())`` in-process. This bench runs the
paper's 16x16 WS GEMM sweep under the cycle-accurate engine two ways:

* **direct** — ``SerialExecutor`` in-process, the reference path;
* **service** — the same spec POSTed to a live :class:`CampaignService`
  (loopback, serial executor kind, so both paths execute identically),
  timed from submit to the result artefact's bytes in hand, including
  the SSE stream ridden to its terminal frame.

The service is booted once and kept across rounds; wall-clock is
interleaved min-of-repeats so one scheduler hiccup cannot fail the pin.
The measured numbers are printed, and the fetched artefact must rebuild
field-for-field identical to the direct run — the overhead pin is
meaningless if the service returned different science.
"""

import json
import tempfile
import threading
import time

import numpy as np

from repro.core.campaign import Campaign, GemmWorkload
from repro.core.executor import GOLDEN_CACHE, SerialExecutor
from repro.core.serialize import campaign_result_from_record, decode_campaign_spec
from repro.service import CampaignService
from repro.systolic import Dataflow, MeshConfig

from _common import banner, parallel_capacity, run_once

MESH = MeshConfig.paper()
WORKLOAD = GemmWorkload.square(16, Dataflow.WEIGHT_STATIONARY)
REPEATS = 3
OVERHEAD_CEILING = 1.25

SPEC = {
    "mesh": {"rows": MESH.rows, "cols": MESH.cols},
    "workload": {"op": "gemm", "m": 16, "k": 16, "n": 16},
    "engine": "cycle",
    "executor": {"kind": "serial"},
}


def make_campaign() -> Campaign:
    campaign, _ = decode_campaign_spec(SPEC)
    return campaign


def start_service(state_dir: str):
    """One loopback service on a daemon thread; returns (service, port,
    thread). A tight SSE interval keeps stream latency out of the
    measurement without busy-looping the event loop."""
    ready = threading.Event()
    bound = {}

    def announce(host: str, port: int) -> None:
        bound["port"] = port
        ready.set()

    service = CampaignService(
        "127.0.0.1", 0, state_dir, announce=announce, sse_interval=0.02
    )
    thread = threading.Thread(target=service.run, daemon=True)
    thread.start()
    assert ready.wait(10), "service never announced its port"
    return service, bound["port"], thread


def run_direct():
    return make_campaign().run(SerialExecutor())


def run_service(port: int) -> dict:
    """One submit→result cycle over HTTP; returns the result artefact."""
    import urllib.request

    base = f"http://127.0.0.1:{port}"
    request = urllib.request.Request(
        f"{base}/campaigns", data=json.dumps(SPEC).encode(), method="POST"
    )
    with urllib.request.urlopen(request, timeout=60) as response:
        assert response.status == 201
        job_id = json.loads(response.read())["job_id"]
    url = f"{base}/campaigns/{job_id}/events"
    with urllib.request.urlopen(url, timeout=600) as stream:
        event = None
        for raw in stream:
            line = raw.decode().rstrip("\n")
            if line.startswith("event: "):
                event = line.removeprefix("event: ")
            elif line.startswith("data: ") and event == "end":
                assert json.loads(line.removeprefix("data: "))[
                    "state"
                ] == "done"
                break
    url = f"{base}/campaigns/{job_id}/result"
    with urllib.request.urlopen(url, timeout=60) as response:
        return json.loads(response.read())


def test_service_overhead(benchmark):
    # Warm the shared golden cache so neither timed path pays for the
    # fault-free reference run (the service thread shares the process).
    GOLDEN_CACHE.golden_run(make_campaign())

    state_dir = tempfile.mkdtemp(prefix="bench-service-")
    service, port, thread = start_service(state_dir)
    try:
        # Warmup: one job through the whole HTTP lifecycle, one direct.
        run_service(port)
        run_direct()

        direct_best = service_best = float("inf")
        direct = artefact = None
        for _ in range(REPEATS):
            start = time.perf_counter()
            direct = run_direct()
            direct_best = min(direct_best, time.perf_counter() - start)
            start = time.perf_counter()
            artefact = run_service(port)
            service_best = min(service_best, time.perf_counter() - start)
    finally:
        service.shutdown()
        thread.join(timeout=30)

    overhead = service_best / direct_best
    cores = parallel_capacity()
    print(banner(
        "Service submit->result overhead — 16x16 WS GEMM, cycle engine, "
        f"256-site sweep over HTTP ({cores} core(s) available)"
    ))
    print(f"{'path':>8}  {'seconds':>8}  {'vs direct':>9}")
    print(f"{'direct':>8}  {direct_best:>8.3f}  {'1.000':>9}")
    print(f"{'service':>8}  {service_best:>8.3f}  {overhead:>9.3f}")
    print(f"ceiling: {OVERHEAD_CEILING}")

    # Identity guarantee: the front door changes nothing. The artefact
    # rebuilds against the same spec and must match the direct run.
    rebuilt = campaign_result_from_record(artefact, make_campaign())
    assert np.array_equal(rebuilt.golden, direct.golden)
    assert rebuilt.census() == direct.census()
    assert rebuilt.sdc_rate() == direct.sdc_rate()
    assert rebuilt.dominant_class() is direct.dominant_class()
    assert [e.site for e in rebuilt.experiments] == [
        e.site for e in direct.experiments
    ]

    assert overhead <= OVERHEAD_CEILING, (
        f"HTTP submit->result is {overhead:.3f}x the direct run "
        f"(ceiling {OVERHEAD_CEILING}); the front door must stay off "
        f"the per-experiment hot path"
    )

    run_once(benchmark, run_direct)
