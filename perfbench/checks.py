"""Output checks: the science of every benchmark result.

Every check runs outside the timed region.  A faster tier must stay
field-for-field identical to a slower one, so each check compares two
results experiment by experiment: site, classification evidence,
corrupted-cell count, largest deviation, and the full mask and
deviation arrays where patterns are kept.
"""

from __future__ import annotations

import hashlib
import random

#: Campaign-level fields that measure the run rather than describe it.
VOLATILE_FIELDS = ("wall_seconds", "telemetry")


def result_digest(result) -> str:
    """A digest of everything a campaign result asserts, wall time excluded."""
    digest = hashlib.sha256()
    digest.update(repr((result.workload, result.fault_spec, result.mesh)).encode())
    digest.update(result.golden.tobytes())
    for experiment in result.experiments:
        digest.update(repr((
            experiment.site, experiment.classification,
            experiment.num_corrupted, experiment.max_abs_deviation,
        )).encode())
        if experiment.pattern is not None:
            digest.update(experiment.pattern.mask.tobytes())
            digest.update(experiment.pattern.deviation.tobytes())
    digest.update(repr(result.failures).encode())
    return digest.hexdigest()


def experiment_problems(label: str, expected, actual) -> list[str]:
    """Differences between two experiments of one site (empty when equal)."""
    import numpy as np

    where = f"{label} MAC({expected.site.row},{expected.site.col})"
    problems = []
    for field in ("site", "classification", "num_corrupted", "max_abs_deviation"):
        if getattr(expected, field) != getattr(actual, field):
            problems.append(
                f"{where}: {field} {getattr(actual, field)!r} != "
                f"{getattr(expected, field)!r}"
            )
    if (expected.pattern is None) != (actual.pattern is None):
        problems.append(f"{where}: one side kept no pattern")
    elif expected.pattern is not None:
        if not np.array_equal(expected.pattern.mask, actual.pattern.mask):
            problems.append(f"{where}: corrupted-cell mask differs")
        if not np.array_equal(expected.pattern.deviation, actual.pattern.deviation):
            problems.append(f"{where}: deviation differs")
    return problems


def result_problems(label: str, expected, actual, sites=None) -> list[str]:
    """Differences between two results on ``sites`` (default: all of
    ``expected``'s sites, which ``actual`` must list in the same order)."""
    if sites is None:
        got = [(e.site.row, e.site.col) for e in actual.experiments]
        want = [(e.site.row, e.site.col) for e in expected.experiments]
        if got != want:
            return [f"{label}: site list differs ({len(got)} vs {len(want)} sites)"]
        pairs = zip(expected.experiments, actual.experiments)
    else:
        try:
            pairs = [(expected.result_at(r, c), actual.result_at(r, c)) for r, c in sites]
        except KeyError as exc:
            return [f"{label}: {exc}"]
    problems: list[str] = []
    for want, got in pairs:
        problems.extend(experiment_problems(label, want, got))
    if actual.failures:
        problems.append(f"{label}: {len(actual.failures)} quarantined sites")
    return problems


def draw_sites(tag: str, sites, count: int) -> list[tuple[int, int]]:
    """``count`` sites drawn from ``sites``, determined by ``tag`` alone."""
    return random.Random(tag).sample(list(sites), min(count, len(sites)))


def engine_problems(label: str, result, engine: str, sites) -> list[str]:
    """Re-run ``sites`` of ``result``'s campaign on another engine tier
    and compare field for field."""
    from repro.core.campaign import Campaign

    other = Campaign(
        result.mesh, result.workload, fault_spec=result.fault_spec,
        engine=engine, sites=list(sites),
    ).run()
    return result_problems(f"{label} vs {engine}", result, other, sites=list(sites))


def cycle_oracle_problems(seed: int) -> list[str]:
    """The cycle engine stays the oracle: GEMM 16 OS and WS diagonals,
    random operands from ``seed``, analytic against cycle-accurate."""
    from repro.core.campaign import Campaign, FillKind, GemmWorkload
    from repro.systolic import Dataflow, MeshConfig

    mesh = MeshConfig.paper()
    diagonal = [(i, i) for i in range(mesh.rows)]
    problems: list[str] = []
    for dataflow in (Dataflow.OUTPUT_STATIONARY, Dataflow.WEIGHT_STATIONARY):
        workload = GemmWorkload(16, 16, 16, dataflow, FillKind.RANDOM, seed)
        analytic = Campaign(mesh, workload, engine="analytic", sites=diagonal).run()
        problems += engine_problems(f"oracle GEMM16 {dataflow}", analytic, "cycle", diagonal)
    return problems


def artefact_problems(label: str, expected: dict, actual: dict) -> list[str]:
    """Differences between two ``campaign_to_dict`` artefacts, volatile
    fields excluded."""
    want = {k: v for k, v in expected.items() if k not in VOLATILE_FIELDS}
    got = {k: v for k, v in actual.items() if k not in VOLATILE_FIELDS}
    if want == got:
        return []
    keys = sorted(k for k in set(want) | set(got) if want.get(k) != got.get(k))
    return [f"{label}: artefact differs in {', '.join(keys)}"]
