"""End-to-end and per-layer benchmark of the foulkes package.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload against the package in ``src/`` (no install needed),
checks every output against the golden table and the dimension
invariant, prints each metric by name with its unit, and ends with one
JSON line: {"correct", "attempted", "failed", "metrics"}. With
``--trace 0`` the metrics are the end-to-end ones of BENCHMARK.json,
with ``--trace 1`` the per-layer ones. A full record (metadata, sample
counts, failures) goes to bench/out/. See bench/README.md.

Load is a closed loop with one client: one query at a time, and at
most one worker or CLI process alive at a time.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import check
import queries
import spans
import speed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"

# Set-up is measured this many times per run at least, spread over the
# run; the median counts.
SETUP_SAMPLES = 20
# No new session starts after this, so a run ends well inside 180 s.
HARD_LIMIT_S = 120.0
SESSION_TIMEOUT_S = 120.0


# A sweep query is scaled by the median of the speed probe taken last
# before it (in the same worker, at most 50 ms earlier) and of the
# probes up to this many places before and after that one.
PROBE_WINDOW = 2
# A one-shot query runs in a fresh process, whose cost is mostly process
# start and import; the pure-Python probe does not follow how these
# slow down with the host, a bare interpreter start does. So cli_oneshot
# times a bare start before every BARE_EVERY queries and scales each
# query by the median of the bare start taken last before it and of up
# to ONESHOT_WINDOW on either side (about 7 s in all). A bare start of
# BARE_REFERENCE_S counts as speed 1.
BARE_EVERY = 3
ONESHOT_WINDOW = 5
BARE_REFERENCE_S = 0.05


class BenchError(RuntimeError):
    """The benchmark could not run the program."""


def percentile(values: list[float], q: int) -> float:
    """Nearest-rank percentile of the values."""
    ordered = sorted(values)
    return ordered[max(0, -(-q * len(ordered) // 100) - 1)]


def samples_beyond(n: int, q: int) -> int:
    """How many of n samples rank above the nearest-rank q-th percentile."""
    return n - -(-q * n // 100)


def min_samples(q: int = 90, beyond: int = 10) -> int:
    """Fewest samples with at least ``beyond`` of them above percentile q.

    Latency is reported at p50 and p90, and a run keeps measuring past
    --seconds until at least ten samples lie beyond p90.
    """
    n = 1
    while samples_beyond(n, q) < beyond:
        n += 1
    return n


class Tally:
    """Attempted and failed queries, with the first few failure reasons."""

    def __init__(self, golden: dict[str, list]) -> None:
        self.golden = golden
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def add(self, argv: list[str], code: object, stdout: str) -> None:
        self.attempted += 1
        reason = check.failure(argv, code, stdout, self.golden)
        if reason:
            self.failed += 1
            if len(self.failures) < 10:
                self.failures.append(f"{check.key(argv)}: {reason}")

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def _env() -> dict[str, str]:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("FOULKES_MAX_N", None)
    return env


def _scale(probes: list[float], reference: float = speed.REFERENCE_S) -> float:
    """Factor that turns a time measured at the probed host speed into
    a time at the reference speed."""
    return reference / statistics.median(probes)


def _window(values: list[float], j: int, width: int) -> list[float]:
    """values[j] and up to width values on either side of it."""
    return values[max(0, j - width) : j + width + 1]


def _local_scales(
    probes: list[float], at, width: int = PROBE_WINDOW, reference: float = speed.REFERENCE_S
) -> list[float]:
    """The scale of each query, at[i] being the index in probes (in time
    order) of the probe taken last before query i."""
    return [_scale(_window(probes, j, width), reference) for j in at]


def sweep_session(order: list[list[str]], spans_path: Path | None = None):
    """One worker process running ``order``.

    Returns (ready, wall_s, results): ready holds import_s, the time the
    fresh worker took to import foulkes.cli, and the speed probes taken
    right after it; wall is spawn until the last answer.
    """
    cmd = [sys.executable, str(BENCH / "worker.py")]
    if spans_path:
        cmd.append(str(spans_path))
    t0 = time.perf_counter()
    with subprocess.Popen(
        cmd, cwd=ROOT, env=_env(), stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
    ) as proc:
        watchdog = threading.Timer(SESSION_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            ready = proc.stdout.readline()
            if not ready:
                raise BenchError("the worker did not start (is src/foulkes there?)")
            ready = json.loads(ready)
            proc.stdin.write(json.dumps(order) + "\n")
            proc.stdin.close()
            results = []
            for _ in order:
                line = proc.stdout.readline()
                if not line:
                    raise BenchError("the worker ended before answering every query")
                results.append(json.loads(line))
            wall_s = time.perf_counter() - t0
            proc.stdout.read()
        except BaseException:
            proc.kill()
            raise
        finally:
            watchdog.cancel()
    if proc.returncode:
        raise BenchError(f"the worker exited with {proc.returncode}")
    return ready, wall_s, results


def _scaled_import(ready: dict) -> float:
    """A worker's import time, scaled by the probes it took right after."""
    return ready["import_s"] * _scale(ready["probe_s"])


def _setup_sample() -> float:
    """Set-up time of one empty worker session."""
    return _scaled_import(sweep_session([])[0])


def _spawn(cmd: list[str]):
    """Run cmd as a fresh process; returns (wall_s, exit code, stdout)."""
    t0 = time.perf_counter()
    proc = subprocess.run(
        cmd,
        cwd=ROOT,
        env=_env(),
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        timeout=SESSION_TIMEOUT_S,
    )
    return time.perf_counter() - t0, proc.returncode, proc.stdout.decode()


def oneshot(argv: list[str], spans_path: Path | None = None):
    """One query as a fresh process; returns (wall_s, exit code, stdout)."""
    if spans_path:
        return _spawn([sys.executable, str(BENCH / "launcher.py"), str(spans_path), *argv])
    return _spawn([sys.executable, "-m", "foulkes.cli", *argv])


def bare_start_s() -> float:
    """Wall time of a bare interpreter run the way a one-shot query is."""
    return _spawn([sys.executable, "-c", "pass"])[0]


def _layer_metrics(docs: list[dict], traced_s: float, untraced_s: float):
    """Per-layer metrics: means per session, ratios from the totals."""
    per_session = [spans.session_metrics(doc) for doc in docs]
    keys = per_session[0].keys()
    total = {k: sum(m[k] for m in per_session) for k in keys}
    out = {k: total[k] / len(per_session) for k in keys}
    lookups = total["lr.product_terms.hits"] + total["lr.product_terms.misses"]
    out["lr.product_terms.hit_ratio"] = (
        total["lr.product_terms.hits"] / lookups if lookups else 0.0
    )
    inter = total["formulas.intermediate_mass"]
    out["formulas.cancel_ratio"] = total["formulas.final_mass"] / inter if inter else 0.0
    out["trace.overhead_frac"] = traced_s / untraced_s - 1
    absent = sorted({name for doc in docs for name in spans.absent_memos(doc)})
    return out, absent


def _keep_going(elapsed: float, seconds: float, trace: bool, samples: int, min_count: int):
    if elapsed >= HARD_LIMIT_S:
        return False
    return elapsed < seconds or (not trace and samples < min_count)


def run_workload(
    name: str, seed: int, seconds: float, trace: bool, min_count: int | None = None
) -> dict:
    """Run one workload; returns metrics, counts and sample sizes."""
    if not (ROOT / "src" / "foulkes" / "cli.py").is_file():
        raise BenchError(f"no package source at {ROOT / 'src' / 'foulkes'}")
    if min_count is None:
        min_count = min_samples()
    tally = Tally(check.load_golden())
    latencies: list[float] = []
    setups: list[float] = []
    wall = {False: 0.0, True: 0.0}
    docs: list[dict] = []
    # Host speed probes of the whole run (cli_oneshot: bare starts).
    run_probes: list[float] = []
    spans_dir = OUT / f"spans-{name}-seed{seed}"
    if trace:
        shutil.rmtree(spans_dir, ignore_errors=True)
        spans_dir.mkdir(parents=True)

    oneshot_mode = name == "cli_oneshot"
    if oneshot_mode:
        draw = queries.oneshot_draw(seed)
    else:
        pool = queries.formula_sweep() if name == "formula_sweep" else queries.oracle_sweep()

    start = time.perf_counter()
    session = 0
    while session == 0 or _keep_going(
        time.perf_counter() - start, seconds, trace, len(latencies), min_count
    ):
        # Empty worker sessions add set-up samples (the only ones
        # cli_oneshot has) as the run goes, so that they see the host
        # over the whole run and not in one burst.
        share = min(1.0, (time.perf_counter() - start) / seconds) if seconds > 0 else 1.0
        if not trace and len(setups) < SETUP_SAMPLES * share:
            setups.append(_setup_sample())
        path = spans_dir / f"session-{session}.json"
        if oneshot_mode:
            argv = next(draw)
        else:
            order = queries.session_order(pool, name, seed, session)
        # A traced run pairs each session with an untraced one on the
        # same queries, alternating which goes first; the two wall times
        # give the tracing overhead.
        for traced in ((False, True), (True, False))[session % 2] if trace else (False,):
            if oneshot_mode:
                if session % BARE_EVERY == 0:
                    run_probes.append(bare_start_s())
                wall_s, code, stdout = oneshot(argv, path if traced else None)
                tally.add(argv, code, stdout)
                latencies.append(wall_s)
            else:
                ready, wall_s, results = sweep_session(order, path if traced else None)
                setups.append(_scaled_import(ready))
                probes, at, raw = list(ready["probe_s"]), [], []
                for argv, res in zip(order, results):
                    tally.add(argv, res["code"], res["stdout"])
                    probes += res["probe_s"]
                    at.append(len(probes) - 1)
                    raw.append(res["latency_s"])
                scaled = [t * k for t, k in zip(raw, _local_scales(probes, at))]
                latencies += scaled
                # The session's own time outside the queries (spawn,
                # import, replies) is scaled like the queries on average.
                wall_s -= sum(probes)
                wall_s *= sum(scaled) / sum(raw) if raw else _scale(probes)
                run_probes += probes
            wall[traced] += wall_s
            if traced:
                with open(path) as fh:
                    docs.append(json.load(fh))
        session += 1

    if oneshot_mode and not trace:
        at = [i // BARE_EVERY for i in range(len(latencies))]
        scales = _local_scales(run_probes, at, ONESHOT_WINDOW, BARE_REFERENCE_S)
        latencies = [t * k for t, k in zip(latencies, scales)]
        wall[False] = sum(latencies)

    while not trace and len(setups) < SETUP_SAMPLES:
        setups.append(_setup_sample())

    result = {
        "attempted": tally.attempted,
        "failed": tally.failed,
        "error_rate": tally.error_rate,
        "failures": tally.failures,
        "sessions": session,
        "samples": len(latencies),
        "setup_samples": len(setups),
        "speed_probes": len(run_probes),
        "scale": _scale(run_probes, BARE_REFERENCE_S if oneshot_mode else speed.REFERENCE_S),
    }
    if trace:
        result["metrics"], result["absent"] = _layer_metrics(docs, wall[True], wall[False])
        result["spans_dir"] = str(spans_dir.relative_to(ROOT))
    else:
        result["metrics"] = {
            "setup_s": statistics.median(setups),
            "throughput_qps": tally.attempted / wall[False],
            "latency_p50_ms": percentile(latencies, 50) * 1000,
            "latency_p90_ms": percentile(latencies, 90) * 1000,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
        }
        result["samples_beyond_p90"] = samples_beyond(len(latencies), 90)
        result["wall_s"] = wall[False]
    return result


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def main(argv: list[str] | None = None) -> int:
    spec = _spec()
    why = {w["name"]: w["why"] for w in spec["workloads"]}
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=why, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, subprocess.TimeoutExpired, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {
        m["name"]: {"value": result["metrics"][m["name"]], "unit": m["unit"]} for m in wanted
    }
    record = {
        "workload": args.workload,
        "why": why[args.workload],
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "commit": _git_commit(),
        **{k: v for k, v in result.items() if k != "metrics"},
        "metrics": metrics,
    }
    OUT.mkdir(exist_ok=True)
    record_path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1) + "\n")

    print(f"workload: {args.workload}  seed: {args.seed}  trace: {args.trace}")
    print(f"why: {why[args.workload]}")
    for metric, v in metrics.items():
        print(f"  {metric:<40} {v['value']:>14.6g} {v['unit']}")
    print(
        f"  {'error_rate':<40} {result['error_rate']:>14.6g} ratio"
        f"  ({result['failed']} failed / {result['attempted']} attempted)"
    )
    if args.trace:
        for name in result["absent"]:
            print(f"  absent: {name}.* (the memo has no cache_info), reported as 0")
    else:
        print(
            f"  samples: {result['samples']} latencies "
            f"({result['samples_beyond_p90']} beyond p90), "
            f"{result['setup_samples']} set-ups, {result['sessions']} sessions, "
            f"speed scale {result['scale']:.3f}"
        )
    for failure in result["failures"]:
        print(f"  FAILED {failure}")
    print(f"record: {record_path.relative_to(ROOT)}")
    print(
        json.dumps(
            {
                "correct": result["failed"] == 0,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
