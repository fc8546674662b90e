"""oamwalk benchmark: three CLI workloads, end to end and per layer.

Run from the root of a source checkout::

    python3 bench/run.py --workload spread --seed 1 --seconds 30 --trace 0

The benchmark imports ``oamwalk.cli`` from the checkout's ``src/`` and calls
``oamwalk.cli.main(argv)`` in this process, one op after another: a closed
loop with one client.  ``--trace 0`` times ops with no wrapper installed and
reports the end-to-end metrics.  ``--trace 1`` runs every op twice in a row,
plain and with the layer wrappers of ``bench/tracer.py`` installed, and
reports the per-layer metrics.  Every op's outputs are checked after the
loop (``bench/checks.py`` and the recorded digests in
``bench/digests.json``).  Human-readable lines go to standard output first;
the last line is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.

Exit codes: 0 after a complete run (``correct`` says whether every output
checked out), 2 when the checkout holds no ``src/oamwalk`` or the run
outlives its deadline of ``1.5 * seconds + 60`` seconds (a hung op).
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
import time
import traceback
from collections import Counter
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import platform_info  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
SETUP_SAMPLES = 15


class Deadline(Exception):
    """The run outlived its deadline."""


def setup_sample() -> float:
    """Import time of ``oamwalk.cli`` in a fresh interpreter (start-up excluded)."""
    code = (
        "import sys, time; sys.path.insert(0, %r); t = time.perf_counter(); "
        "import oamwalk.cli; print(time.perf_counter() - t)" % str(SRC)
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60, check=True)
    return float(proc.stdout)


def run_op(cli, plan: list[dict], index: int) -> dict:
    """Run op ``index`` of the loop; hash its outputs after the clock stops."""
    slot = index % len(plan)
    start = time.perf_counter()
    try:
        code = cli.main(plan[slot]["argv"])
    except Deadline:
        raise
    except Exception:  # an op that raises is a failed op, not a failed run
        traceback.print_exc()
        code = None
    elapsed = time.perf_counter() - start
    record = {"slot": slot, "seconds": elapsed, "exit": code, "digests": [], "bytes": 0}
    if code == 0:
        for path in plan[slot]["outputs"]:
            record["digests"].append(workloads.digest(path))
            record["bytes"] += Path(path).stat().st_size
    return record


def run_timed(cli, plan: list[dict], seconds: float) -> dict:
    """Ops until ``seconds`` of op time (and one pass over the pool); set-up samples between ops."""
    if tracer.installed():
        raise RuntimeError(f"wrappers installed before the timed run: {tracer.installed()}")
    run_op(cli, plan, 0)  # warm-up: lazy imports, BLAS threads, first-touch pages
    records, timed, setup = [], 0.0, []
    while timed < seconds or len(records) < len(plan):
        records.append(run_op(cli, plan, len(records)))
        timed += records[-1]["seconds"]
        # spread over the run, outside the timed region
        if len(setup) < SETUP_SAMPLES and timed >= len(setup) * seconds / SETUP_SAMPLES:
            setup.append(setup_sample())
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer.installed():
        raise RuntimeError(f"wrappers installed during the timed run: {tracer.installed()}")
    setup += [setup_sample() for _ in range(SETUP_SAMPLES - len(setup))]
    return {"records": records, "peak_rss_kib": peak_kib, "setup_s": setup}


def run_traced(cli, plan: list[dict], seconds: float) -> dict:
    """Pairs of the same op, plain and traced, in whole passes over the pool (at least two)
    until ``seconds`` have passed, so that per-op averages of counts cover the pool evenly.

    The side that runs first alternates from pair to pair, so an advantage of
    running second (warm caches) does not enter the tracing overhead.
    """
    run_op(cli, plan, 0)
    t = tracer.Tracer()
    plain, traced, elapsed = [], [], 0.0

    def run_traced_op(index):
        t.op_id = index
        t.install()
        try:
            traced.append(run_op(cli, plan, index))
        finally:
            t.restore()

    while elapsed < seconds or len(traced) < 2 * len(plan) or len(traced) % len(plan):
        index = len(traced)
        if index % 2:
            run_traced_op(index)
        plain.append(run_op(cli, plan, index))
        if not index % 2:
            run_traced_op(index)
        elapsed += plain[-1]["seconds"] + traced[-1]["seconds"]
    return {"plain": plain, "traced": traced, "tracer": t}


def check_ops(workload: str, seed: int, ops: list[workloads.Op], plan: list[dict], records: list[dict]):
    """Mark each op record with the reason it failed, or None; return run-level problems.

    Every repeat of a pool slot writes the same files, so the files left on
    disk are the slot's output whenever its repeats agree; the content checks
    read those.
    """
    from oamwalk import cli

    recorded = platform_info.recorded_digests(BENCH / "digests.json", workload, seed)
    slot_error: dict[int, str | None] = {}
    for slot, entry in enumerate(plan):
        got = {tuple(r["digests"]) for r in records if r["slot"] == slot and r["exit"] == 0}
        if not got:
            continue
        digests = list(got.pop())
        if got:
            slot_error[slot] = "outputs of the same config differ between repeats"
        elif recorded is not None and digests != recorded[slot]:
            slot_error[slot] = "output digest differs from the digest recorded for this seed and op"
        elif [workloads.digest(p) for p in entry["outputs"]] != digests:
            slot_error[slot] = "outputs on disk were overwritten by a failed repeat"
        else:
            slot_error[slot] = checks.CONTENT[workload](read_outputs(entry), cli)
    for rec in records:
        rec["error"] = f"exit code {rec['exit']}" if rec["exit"] != 0 else slot_error[rec["slot"]]

    problems = []
    if workload in checks.REFERENCE:
        slot = seed % len(ops)
        if any(r["slot"] == slot and not r["error"] for r in records):
            err = checks.REFERENCE[workload](ops[slot].config, read_outputs(plan[slot]))
            if err:
                problems.append(err)
        else:
            problems.append("no successful op to compare with the reference walk")
    return problems, recorded is not None


def read_outputs(entry: dict) -> list[bytes]:
    return [Path(p).read_bytes() for p in entry["outputs"]]


def layer_metrics(result: dict, pool_size: int) -> tuple[dict, list[str], dict]:
    """Per-op layer metrics from the traced ops; also exactness problems and self-time shares.

    A metric named ``<layer>.s`` is total time in the layer, ``<layer>.self_s``
    its self time and ``<layer>.calls`` its span count; any other name is a
    counter recorded by the tracer or here.
    """
    t = result["tracer"]
    n_ops = len(result["traced"])
    total: Counter = Counter()
    own: Counter = Counter()
    calls: Counter = Counter()
    for (name, start, end, _, op), self_s in zip(t.spans, tracer.self_times(t.spans)):
        total[name] += end - start
        own[name] += self_s
        calls[(name, op)] += 1
    counters: Counter = Counter(t.counters)
    for op, r in enumerate(result["traced"]):
        counters[("cli.out_bytes", op)] = r["bytes"]
    # each traced op ran next to the same op untraced, so slow host drift cancels in the pair
    overhead = statistics.median(tr["seconds"] - pl["seconds"] for pl, tr in zip(result["plain"], result["traced"]))
    per_op = {"trace.overhead_s": overhead}
    for metric in (m["name"] for m in SPEC["per_layer"]):
        layer, kind = metric.rsplit(".", 1)
        if kind == "s":
            per_op[metric] = total[layer] / n_ops
        elif kind == "self_s":
            per_op[metric] = own[layer] / n_ops
        elif kind == "calls":
            per_op[metric] = sum(c for (name, _), c in calls.items() if name == layer) / n_ops
        elif metric not in per_op:
            per_op[metric] = sum(v for (name, _), v in counters.items() if name == metric) / n_ops

    # counts must repeat exactly for the same config: compare op i with op i + pool
    exact: list[dict] = [{} for _ in range(n_ops)]
    for (name, op), c in calls.items():
        exact[op][name + ".calls"] = c
    for (name, op), v in counters.items():
        exact[op][name] = v
    problems = [
        f"counts of op {op} did not repeat exactly on op {op + pool_size}"
        for op in range(n_ops - pool_size)
        if exact[op] != exact[op + pool_size]
    ]
    shares = {name: s / sum(own.values()) for name, s in own.items()}
    return per_op, problems, shares


def timed_metrics(result: dict, ops: list[workloads.Op], failed: int) -> dict:
    """Every end-to-end metric: (value, unit, sample count)."""
    records = result["records"]
    times = [r["seconds"] for r in records]
    rates = [ops[r["slot"]].site_steps / r["seconds"] for r in records]
    setup = result["setup_s"]
    # op times are bimodal on a shared host; the median per-op rate had a smaller
    # run-to-run spread than total work over total time (bench/RECORD.md)
    return {
        "setup_s": (statistics.median(setup), "s", len(setup)),
        "op_p50_s": (statistics.median(times), "s", len(times)),
        "site_steps_per_s": (statistics.median(rates), "1/s", len(rates)),
        "peak_rss_mb": (result["peak_rss_kib"] / 1024.0, "MiB", 1),
        "failed_ops_frac": (failed / len(records), "1", len(records)),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "oamwalk" / "cli.py").is_file():
        print(f"benchmark: no oamwalk source tree at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from oamwalk import cli

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"imported oamwalk from {cli.__file__}, not from {SRC}")

    def expire(signum, frame):
        raise Deadline(f"run outlived its deadline of {deadline:.0f} s")

    deadline = 1.5 * args.seconds + 60
    signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, deadline)
    ops = workloads.pool(args.workload, args.seed)
    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        plan = workloads.write_configs(ops, work)
        if args.trace:
            result = run_traced(cli, plan, args.seconds)
            records = result["plain"] + result["traced"]
        else:
            result = run_timed(cli, plan, args.seconds)
            records = result["records"]
        problems, digest_checked = check_ops(args.workload, args.seed, ops, plan, records)
        if args.trace:
            metrics, exact_problems, shares = layer_metrics(result, len(ops))
            problems += exact_problems
    except (Deadline, subprocess.TimeoutExpired) as err:
        print(f"benchmark: {err}", file=sys.stderr)
        return 2
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        shutil.rmtree(work, ignore_errors=True)

    failed = sum(1 for r in records if r["error"])
    for r in records:
        if r["error"]:
            print(f"FAILED op (slot {r['slot']}): {r['error']}")
    for p in problems:
        print(f"FAILED check: {p}")
    print("machine: " + json.dumps(platform_info.machine()))
    print(f"workload {args.workload}, seed {args.seed}: {len(records)} ops, {failed} failed; "
          f"digests {'checked against the record' if digest_checked else 'not recorded for this seed/platform'}")

    if args.trace:
        n = len(result["traced"])
        print(f"traced ops: {n}, each next to the same op untraced; values are per op")
        for name in sorted(metrics):
            print(f"  {name:32s} {metrics[name]:.6g}")
        print("self-time share by layer:")
        for name, share in sorted(shares.items(), key=lambda kv: -kv[1]):
            print(f"  {name:40s} {100 * share:5.1f}%")
        out_metrics = {m: {"value": v, "unit": UNITS[m]} for m, v in metrics.items()}
    else:
        values = timed_metrics(result, ops, failed)
        print("setup seconds: " + " ".join(f"{t:.4f}" for t in result["setup_s"]))
        print("op seconds, in order: " + " ".join(f"{r['seconds']:.3f}" for r in records))
        for name, (value, unit, n) in values.items():
            print(f"  {name:18s} {value:14.6g} {unit:5s} (n={n})")
        # op_p50_s and failed_ops_frac are printed only: see bench/RECORD.md
        out_metrics = {name: {"value": v, "unit": u} for name, (v, u, _) in values.items() if name in UNITS}
    expected = SPEC["per_layer" if args.trace else "end_to_end"]
    if set(out_metrics) != {m["name"] for m in expected}:
        raise AssertionError(f"metrics {sorted(out_metrics)} do not match BENCHMARK.json")

    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": len(records),
        "failed": failed,
        "metrics": out_metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
