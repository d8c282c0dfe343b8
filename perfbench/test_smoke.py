"""Smoke test of the benchmark itself (about three minutes on two cores).

    python3 -m pytest perfbench/test_smoke.py -q

Runs every workload for one second, untraced and traced, and checks the
result line against ``BENCHMARK.json``.  It also checks that the output
checks catch a corrupted result, and that the benchmark refuses to run
outside a checkout of the program.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]


def run_benchmark(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    command = [*SPEC["command"], "--workload", workload, "--seed", "7",
               "--seconds", "1", "--trace", str(trace)]
    command[0] = sys.executable
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_printed_with_its_unit(workload: str, trace: int) -> None:
    done = run_benchmark(workload, trace)
    assert done.returncode == 0, done.stderr[-3000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, done.stderr[-3000:]
    assert result["attempted"] >= 1
    assert result["failed"] == 0
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    printed = {name: entry["unit"] for name, entry in result["metrics"].items()}
    assert printed == {metric["name"]: metric["unit"] for metric in wanted}
    for entry in result["metrics"].values():
        assert isinstance(entry["value"], (int, float))
    if not trace:
        assert result["metrics"]["success_rate"]["value"] == 1.0


def test_corrupted_result_fails_the_output_check() -> None:
    sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src")]
    import checks
    from repro.core.campaign import Campaign, FillKind, GemmWorkload
    from repro.core.serialize import campaign_to_dict
    from repro.systolic import Dataflow, MeshConfig

    workload = GemmWorkload(16, 16, 16, Dataflow.WEIGHT_STATIONARY, FillKind.RANDOM, 11)
    sites = [(3, 5), (9, 2)]
    result = Campaign(MeshConfig.paper(), workload, engine="analytic", sites=sites).run()
    assert checks.engine_problems("clean", result, "functional", sites) == []

    experiment = result.experiments[0]
    mask = experiment.pattern.mask.copy()
    mask[0, 0] = not mask[0, 0]
    corrupted = dataclasses.replace(
        result,
        experiments=[
            dataclasses.replace(
                experiment, pattern=dataclasses.replace(experiment.pattern, mask=mask)
            ),
            *result.experiments[1:],
        ],
    )
    assert checks.engine_problems("corrupted", corrupted, "functional", sites)
    assert checks.result_problems("corrupted", result, corrupted)
    assert checks.result_digest(corrupted) != checks.result_digest(result)

    artefact = campaign_to_dict(result)
    bad = json.loads(json.dumps(artefact))
    bad["experiments"][0]["num_corrupted"] += 1
    assert checks.artefact_problems("clean", artefact, json.loads(json.dumps(artefact))) == []
    assert checks.artefact_problems("corrupted", artefact, bad)


def test_refuses_to_run_without_the_program(tmp_path: Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns(".work", "__pycache__"))
    done = run_benchmark(WORKLOADS[0], 0, cwd=tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
