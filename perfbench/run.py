"""One benchmark for fault-injection campaigns.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
With ``--trace 0`` the metrics are the end-to-end metrics of
``BENCHMARK.json``; with ``--trace 1`` they are its per-layer metrics,
and a Chrome trace of the run is written under ``perfbench/.work/``.
A human-readable report and the run's environment go to standard error.

The process started here imports nothing from the program.  It starts
fresh interpreters (``--role probe``) that only set up, and one
(``--role main``) that sets up, measures and checks; ``setup_s`` is the
median of their times from start to ready, and ``peak_rss_mb`` the
largest peak RSS of this process and every process below it.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
WORK = HERE / ".work"

#: Setup-only interpreters started besides the measuring one.
SETUP_PROBES = 2
#: Every run ends within this many seconds of starting.
RUN_BUDGET_S = 175.0
READY = "READY"

#: Counts of layer spans, which must repeat exactly between operations of one kind.
SPAN_COUNTS = (
    "systolic.simulate_calls",
    "classifier.calls",
    "serialize.fsyncs",
    "executor.shards",
    "analytic.fallback_sites",
)
#: Every count that must repeat exactly between operations of one kind.
DETERMINISTIC_COUNTS = SPAN_COUNTS + ("serialize.artefact_bytes", "serialize.checkpoint_bytes")


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--role", choices=("top", "probe", "main"), default="top")
    return parser.parse_args(argv)


def median(values):
    return statistics.median(values) if values else 0.0


# ----------------------------------------------------------------------
# Child roles: these import the program.
# ----------------------------------------------------------------------


def _child(args: argparse.Namespace) -> int:
    sys.path.insert(0, str(HERE))
    import layers
    from workloads import WORKLOADS

    work_dir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        workload = WORKLOADS[args.workload](args.seed, work_dir)
        workload.import_program()
        tracer = None
        if args.trace:
            tracer = workload.tracer = layers.Tracer()
            tracer.install()
            tracer.enabled = True
        setup_start = time.perf_counter_ns()
        workload.prepare()
        setup_end = time.perf_counter_ns()
        if tracer is not None:
            tracer.enabled = False
        print(READY, flush=True)
        if args.role == "probe":
            workload.close()
            return 0
        min_ops = len(workload.kinds) * (2 if args.trace else 1)
        ops = workload.run_phase(args.seconds, bool(args.trace), min_ops)
        problems = workload.finish()
        report = {
            "attempted": len(ops),
            "failed": sum(not op.ok for op in ops),
            "problems": problems + [p for op in ops for p in op.problems],
            "env": environment(workload),
            "kinds": {kind: sum(op.kind == kind for op in ops) for kind in workload.kinds},
        }
        if args.trace:
            report["metrics"], count_problems = layer_metrics(
                workload, ops, tracer, setup_start, setup_end
            )
            report["problems"] += count_problems
            trace_path = WORK / f"trace-{args.workload}-seed{args.seed}.json"
            from repro.obs import write_chrome_trace

            write_chrome_trace(tracer.recorder.events(), trace_path)
            report["trace"] = str(trace_path.relative_to(ROOT))
        else:
            report["metrics"] = end_to_end_metrics(workload, ops)
        print(json.dumps(report), flush=True)
        return 0
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def end_to_end_metrics(workload, ops) -> dict[str, float]:
    walls = sorted(op.wall_s for op in ops)
    if workload.concurrent:
        busy = (max(op.end_ns for op in ops) - min(op.start_ns for op in ops)) / 1e9
    else:
        busy = sum(walls)
    sites = sum(op.sites for op in ops if op.ok)
    metrics = {
        "campaign_p50_s": median(walls),
        "sites_per_s": sites / busy if busy > 0 else 0.0,
        "success_rate": sum(op.ok for op in ops) / len(ops),
        "samples": len(walls),
    }
    if len(walls) >= 100:  # at least ten samples above the 90th percentile
        metrics["campaign_p90_s"] = statistics.quantiles(walls, n=10)[-1]
    return metrics


def _op_metrics(stats: dict[str, float], op) -> dict[str, float]:
    """Per-layer values of one traced operation (or phase)."""
    get = stats.get
    values = {
        "systolic.golden_s": get("systolic.golden.wall_s", 0.0),
        "systolic.simulate_s": get("systolic.simulate.self_s", 0.0),
        "systolic.simulate_calls": get("systolic.simulate.calls", 0),
        "patterns.extract_s": get("patterns.extract.self_s", 0.0),
        "analytic.batch_s": get("analytic.batch.self_s", 0.0),
        "analytic.fallback_sites": get("analytic.fallback_sites", 0),
        "classifier.s": get("classifier.self_s", 0.0),
        "classifier.calls": get("classifier.calls", 0),
        "serialize.artefact_s": get("serialize.artefact.self_s", 0.0),
        "serialize.record_encode_s": get("serialize.record_encode.self_s", 0.0),
        "serialize.record_decode_s": get("serialize.record_decode.self_s", 0.0),
        "serialize.fsyncs": get("serialize.fsync.calls", 0),
        "executor.self_s": get("executor.execute.self_s", 0.0),
        "executor.shard_s": get("shard.run.wall_s", 0.0),
        "executor.shards": get("shard.run.calls", 0),
        # The resume is the second execute of a checkpoint_resume operation.
        "executor.resume_s": (
            get("executor.execute.last_wall_s", 0.0) if get("executor.execute.calls", 0) >= 2 else 0.0
        ),
        "covered": stats["covered"],
    }
    values["analytic.fallback_ratio"] = (
        values["analytic.fallback_sites"] / op.analytic_sites if op.analytic_sites else 0.0
    )
    values["executor.retries"] = (
        op.metrics.value("repro_shard_retries_total") if op.metrics is not None else 0
    )
    values["serialize.artefact_bytes"] = op.counts.get("serialize.artefact_bytes", 0)
    values["serialize.checkpoint_bytes"] = op.counts.get("serialize.checkpoint_bytes", 0)
    return values


def _phase_metrics(workload, events, traced, problems: list[str]) -> dict[str, float]:
    """Per-operation layer values of a concurrent workload's traced phase.

    The operations overlap, so the whole phase is attributed and divided
    by its operation count.  Only the server's spans count: the client's
    own ``service.*`` marks tile every operation and would hide a server
    that recorded nothing.  A count must equal the sum, over the phase's
    operations, of what one job of that kind counted when it ran alone.
    """
    import layers

    server = [e for e in events if e.get("pid") != os.getpid()]
    start = min(op.start_ns for op in traced) // 1000
    end = max(op.end_ns for op in traced) // 1000
    stats = layers.op_layer_stats(server, start, end)
    for span in ("analytic.batch", "serialize.artefact"):
        if not stats.get(f"{span}.calls"):
            problems.append(f"traced phase recorded no server-side {span} span")
    whole = _op_metrics(stats, traced[0])
    solo = {
        op.kind: _op_metrics(layers.op_layer_stats(server, op.start_ns // 1000, op.end_ns // 1000), op)
        for op in workload.solo_ops
    }
    for name in SPAN_COUNTS:
        expected = sum(solo[op.kind][name] for op in traced)
        if whole[name] != expected:
            problems.append(
                f"traced phase: {name} is {whole[name]}, not the {expected} its "
                f"{len(traced)} operations counted when run alone"
            )
    scaled = {k: v / len(traced) for k, v in whole.items()}
    scaled["covered"] = whole["covered"]
    scaled["analytic.fallback_ratio"] = (
        whole["analytic.fallback_sites"] / sum(op.analytic_sites for op in traced)
    )
    for name in ("serialize.artefact_bytes", "serialize.checkpoint_bytes"):
        scaled[name] = median([op.counts.get(name, 0) for op in traced])
    return scaled


def layer_metrics(workload, ops, tracer, setup_start, setup_end):
    """Per-layer metrics of a traced run, and any count that did not repeat.

    Each value is the median over the traced operations of one kind,
    averaged over kinds.  Concurrent workloads attribute a whole traced
    phase and divide by its operation count instead.
    """
    import layers

    events = tracer.recorder.events()
    problems: list[str] = []
    traced = [op for op in ops if op.traced and op.ok]
    plain = [op for op in ops if not op.traced and op.ok]
    if not traced or not plain:
        return {}, ["traced run has no successful traced and untraced operations"]

    per_kind: dict[str, list[dict[str, float]]] = {}
    if workload.concurrent:
        per_kind["phase"] = [_phase_metrics(workload, events, traced, problems)]
    else:
        for op in traced:
            stats = layers.op_layer_stats(events, op.start_ns // 1000, op.end_ns // 1000)
            per_kind.setdefault(op.kind, []).append(_op_metrics(stats, op))
    for kind in workload.kinds:
        rows = per_kind.get(kind, [])
        for name in DETERMINISTIC_COUNTS:
            seen = {row[name] for row in rows}
            seen |= {op.counts[name] for op in ops if op.ok and op.kind == kind and name in op.counts}
            if len(seen) > 1:
                problems.append(f"{kind}: {name} did not repeat exactly: {sorted(seen)}")

    names = next(iter(per_kind.values()))[0].keys()
    metrics = {
        name: statistics.fmean(median([row[name] for row in rows]) for rows in per_kind.values())
        for name in names
    }
    setup_golden = layers.op_layer_stats(events, setup_start // 1000, setup_end // 1000)
    metrics["systolic.golden_s"] += setup_golden.get("systolic.golden.wall_s", 0.0)
    metrics["obs.unattributed_share"] = 1.0 - metrics.pop("covered")

    overheads = []
    for kind in workload.kinds:
        on = [op.wall_s for op in traced if op.kind == kind]
        off = [op.wall_s for op in plain if op.kind == kind]
        if on and off:
            overheads.append(median(on) / median(off))
    metrics["obs.trace_overhead"] = statistics.fmean(overheads)

    for name in ("service.post_s", "service.queue_wait_s", "service.run_s", "service.deliver_s"):
        metrics[name] = median([op.phases[name] for op in plain if name in op.phases])
    metrics["service.rejected"] = sum(op.counts.get("service.rejected", 0) for op in ops)
    return metrics, problems


def environment(workload) -> dict:
    import hashlib

    import numpy

    sha = None
    if (ROOT / ".git").exists():
        probe = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=False
        )
        sha = probe.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return {
        "workload": workload.name,
        "seed": workload.seed,
        "git_sha": sha,
        "source_sha256": digest.hexdigest(),
        "cores": workload.cores,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        **workload.environment(),
    }


# ----------------------------------------------------------------------
# Top role: orchestrates fresh interpreters, imports nothing of the program.
# ----------------------------------------------------------------------

IMPORT_PROBE = """
import importlib, json, sys, time
start = time.perf_counter()
for name in sys.argv[1:]:
    importlib.import_module(name)
elapsed = time.perf_counter() - start
print(json.dumps({
    "import.cold_s": elapsed,
    "import.repro_modules": sum(1 for m in sys.modules if m == "repro" or m.startswith("repro.")),
    "import.total_modules": len(sys.modules),
}))
"""


class RunFailed(RuntimeError):
    pass


def _env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _remaining(deadline: float) -> float:
    left = deadline - time.monotonic()
    if left <= 0:
        raise RunFailed("run budget exhausted")
    return left


def _start_child(args, role: str, deadline: float) -> tuple[subprocess.Popen, float]:
    """Start a child interpreter; return it with its seconds to ready."""
    command = [
        sys.executable, str(HERE / "run.py"), "--role", role,
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    left = _remaining(deadline)
    start = time.perf_counter()
    child = subprocess.Popen(
        command, stdout=subprocess.PIPE, text=True, env=_env(), cwd=ROOT,
        start_new_session=True,
    )
    watchdog = threading.Timer(left, _kill_group, args=(child,))
    watchdog.daemon = True
    watchdog.start()
    child.watchdog = watchdog
    line = child.stdout.readline()
    ready = time.perf_counter() - start
    if line.strip() != READY:
        _reap(child, deadline)
        raise RunFailed(f"{role} interpreter failed during set-up (exit {child.returncode})")
    return child, ready


def _kill_group(child: subprocess.Popen) -> None:
    """Kill a child and everything it started (servers, CLI processes)."""
    try:
        os.killpg(child.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def _reap(child: subprocess.Popen, deadline: float) -> str:
    """Wait for a child; past the deadline its watchdog kills its group."""
    out, _ = child.communicate()
    child.watchdog.cancel()
    if time.monotonic() >= deadline:
        raise RunFailed("child overran the run budget")
    return out


def _import_probe(modules, deadline: float) -> dict:
    try:
        done = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, *modules], capture_output=True, text=True,
            env=_env(), cwd=ROOT, timeout=_remaining(deadline), check=False,
        )
    except subprocess.TimeoutExpired:
        raise RunFailed("import probe overran the run budget") from None
    if done.returncode != 0:
        raise RunFailed(f"import probe failed: {done.stderr[-300:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def top(args: argparse.Namespace) -> int:
    deadline = time.monotonic() + RUN_BUDGET_S
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print("error: run from the root of a checkout of the program "
              "(src/repro is missing)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    program_imports = _program_imports(args.workload)
    if program_imports is None:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    try:
        setup = []
        probes = []
        if args.trace:
            probes = [_import_probe(program_imports, deadline) for _ in range(2)]
        else:
            for _ in range(SETUP_PROBES):
                child, ready = _start_child(args, "probe", deadline)
                _reap(child, deadline)
                if child.returncode != 0:
                    raise RunFailed(f"set-up probe exited {child.returncode}")
                setup.append(ready)
        child, ready = _start_child(args, "main", deadline)
        setup.append(ready)
        out = _reap(child, deadline)
        if child.returncode != 0:
            raise RunFailed(f"measuring interpreter exited {child.returncode}")
        report = json.loads(out.strip().splitlines()[-1])
    except RunFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    metrics = report["metrics"]
    problems = report["problems"]
    if args.trace:
        metrics.update(probes[0])
        for name in ("import.repro_modules", "import.total_modules"):
            if probes[0][name] != probes[1][name]:
                problems.append(f"{name} did not repeat exactly between two interpreters")
        metrics["import.cold_s"] = median([p["import.cold_s"] for p in probes])
        wanted = spec["per_layer"]
    else:
        metrics["setup_s"] = median(setup)
        metrics["peak_rss_mb"] = _peak_rss_mb()
        wanted = spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 1

    _report(args, report, metrics, wanted)
    result = {
        "correct": not problems and report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted
        },
    }
    print(json.dumps(result))
    return 0


def _program_imports(name: str):
    from workloads import WORKLOADS

    cls = WORKLOADS.get(name)
    return None if cls is None else cls.program_imports


def _report(args, report, metrics, wanted) -> None:
    err = sys.stderr
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}", file=err)
    print(f"env {json.dumps(report['env'], sort_keys=True)}", file=err)
    ops = report["attempted"]
    print(f"operations {ops} ({', '.join(f'{k}: {v}' for k, v in report['kinds'].items())}), "
          f"failed {report['failed']}", file=err)
    for m in wanted:
        print(f"  {m['name']:<28} {metrics[m['name']]:>14.6g} {m['unit']}", file=err)
    if not args.trace:
        print(f"  {'campaign_p50_s samples':<28} {metrics['samples']:>14d}", file=err)
        if "campaign_p90_s" in metrics:
            print(f"  {'campaign_p90_s':<28} {metrics['campaign_p90_s']:>14.6g} s", file=err)
        else:
            print("  campaign_p90_s               not reported (fewer than 100 samples)", file=err)
    if "trace" in report:
        print(f"chrome trace: {report['trace']}", file=err)
    for problem in report["problems"][:20]:
        print(f"CHECK FAILED: {problem}", file=err)


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if args.role == "top":
        return top(args)
    return _child(args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
