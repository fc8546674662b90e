"""Paired benchmark runs of a change against its parent, written to ``BENCH_<pr>.json``.

Run from anywhere inside a source checkout::

    python3 tools/bench_pr.py <pr>                 # 10 pairs of 5 s runs per workload
    python3 tools/bench_pr.py <pr> --base <rev> --workload certify --pairs 10 --seconds 30 --seed 57

The change is this checkout's working tree, uncommitted edits included.  The
parent is ``--base`` if given, else ``HEAD`` when the tree has uncommitted
changes and ``HEAD~1`` when it has none.  The parent is unpacked with
``git archive <rev> | tar -x`` into a temporary directory, so no worktree
metadata is written.  Each pair runs both checkouts' own
``bench/run.py --trace 0`` on one workload and seed, one after the other;
which side runs first alternates from pair to pair.

``BENCH_<pr>.json`` at the root of the checkout records the commit and the
parent, the machine (``bench/platform_info.machine()``, the BLAS thread count
included), every run's end-to-end metrics, ``correct`` and ``failed``, and for
each workload and metric both sides' median and quartiles and the pairs the
change won, lost and tied.  :func:`check` is the file's schema: it also
recomputes every summary from the runs.  A failed or hung run stops the whole
measurement with its exit code and the tail of its standard error.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCHEMA_VERSION = 1
SIDES = ("parent", "change")
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
#: Each end-to-end metric's direction and regression bound, as ``BENCHMARK.json`` declares them.
METRICS = {m["name"]: m for m in BENCHMARK["end_to_end"]}


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, check=True).stdout.strip()


def unpack(rev: str, into: Path) -> None:
    """``git archive <rev> | tar -x -C <into>``."""
    archive = subprocess.Popen(["git", "archive", rev], cwd=ROOT, stdout=subprocess.PIPE)
    try:
        subprocess.run(["tar", "-x", "-C", str(into)], stdin=archive.stdout, check=True)
    finally:
        archive.stdout.close()
    if archive.wait():
        raise RuntimeError(f"git archive {rev} exited with code {archive.returncode}")


def bench_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``bench/run.py --trace 0`` run of ``checkout``: its metrics, ``correct``, ``failed`` and ``attempted``."""
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True, timeout=2 * seconds + 120)
    if proc.returncode:
        raise RuntimeError(f"{' '.join(argv[1:])} in {checkout} exited with code {proc.returncode}:\n"
                           + proc.stderr[-2000:])
    result = json.loads(proc.stdout.splitlines()[-1])
    return {"correct": result["correct"], "failed": result["failed"], "attempted": result["attempted"],
            "metrics": {name: result["metrics"][name]["value"] for name in METRICS}}


def summarize(runs: dict[str, list[dict]]) -> dict:
    """Per metric: each side's median and quartiles, and the pairs the change won, lost and tied."""
    summary = {}
    for name, spec in METRICS.items():
        values = {side: [run["metrics"][name] for run in runs[side]] for side in SIDES}
        entry = {side: dict(zip(("q1", "median", "q3"), statistics.quantiles(values[side], n=4, method="inclusive")))
                 for side in SIDES}
        sign = 1 if spec["better"] == "higher" else -1
        margins = [sign * (new - old) for old, new in zip(values["parent"], values["change"])]
        entry.update(better=spec["better"], bound=spec["bound"],
                     median_ratio=entry["change"]["median"] / entry["parent"]["median"],
                     wins=sum(m > 0 for m in margins), losses=sum(m < 0 for m in margins),
                     ties=sum(m == 0 for m in margins))
        summary[name] = entry
    return summary


def check(document: dict) -> None:
    """Raise ValueError unless ``document`` is a ``BENCH_<pr>.json`` this runner writes."""
    def require(ok: bool, what: str) -> None:
        if not ok:
            raise ValueError(f"BENCH document: {what}")

    keys = {"schema_version", "pr", "commit", "uncommitted_changes", "parent", "machine", "settings", "workloads"}
    require(isinstance(document, dict) and set(document) == keys, f"keys must be {sorted(keys)}")
    require(document["schema_version"] == SCHEMA_VERSION, f"schema_version must be {SCHEMA_VERSION}")
    require(type(document["pr"]) is int and document["pr"] > 0, "pr must be a positive integer")
    for key in ("commit", "parent"):
        sha = document[key]
        require(isinstance(sha, str) and len(sha) == 40 and set(sha) <= set("0123456789abcdef"),
                f"{key} must be a full commit sha")
    require(isinstance(document["uncommitted_changes"], bool), "uncommitted_changes must be a boolean")
    require(isinstance(document["machine"], dict) and "blas_threads" in document["machine"],
            "machine must be platform_info.machine(), the BLAS thread count included")
    settings = document["settings"]
    require(settings.keys() == {"seed", "seconds", "pairs"} and settings["pairs"] >= 2, "bad settings")
    require(document["workloads"] and set(document["workloads"]) <= set(WORKLOADS), "unknown or no workloads")
    for workload, record in document["workloads"].items():
        require(set(record) == {"runs", "summary"} and set(record["runs"]) == set(SIDES), f"{workload}: bad keys")
        for side in SIDES:
            runs = record["runs"][side]
            require(len(runs) == settings["pairs"], f"{workload}: {side} needs {settings['pairs']} runs")
            for run in runs:
                require(set(run) == {"first", "correct", "failed", "attempted", "metrics"}
                        and set(run["metrics"]) == set(METRICS), f"{workload}: bad {side} run {run}")
                require(isinstance(run["correct"], bool) and 0 <= run["failed"] <= run["attempted"],
                        f"{workload}: bad {side} counts {run}")
        firsts = [run["first"] for run in record["runs"]["change"]]
        require(firsts == [not run["first"] for run in record["runs"]["parent"]]
                and firsts == [i % 2 == 1 for i in range(len(firsts))], f"{workload}: sides must alternate")
        require(record["summary"] == summarize(record["runs"]), f"{workload}: summary does not match its runs")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("pr", type=int, help="number of the PR; the file is BENCH_<pr>.json")
    parser.add_argument("--base", help="baseline revision (default: the parent of the working tree)")
    parser.add_argument("--workload", action="append", choices=WORKLOADS, help="repeatable (default: all)")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=5.0)
    parser.add_argument("--seed", type=int, default=41)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2, for quartiles")

    sys.path.insert(0, str(ROOT / "bench"))
    import platform_info

    uncommitted = bool(_git("status", "--porcelain"))
    parent = _git("rev-parse", "--verify", (args.base or ("HEAD" if uncommitted else "HEAD~1")) + "^{commit}")
    document = {
        "schema_version": SCHEMA_VERSION,
        "pr": args.pr,
        "commit": _git("rev-parse", "HEAD"),
        "uncommitted_changes": uncommitted,
        "parent": parent,
        "machine": platform_info.machine(),
        "settings": {"seed": args.seed, "seconds": args.seconds, "pairs": args.pairs},
        "workloads": {},
    }
    with tempfile.TemporaryDirectory(prefix="bench_pr-") as tmp:
        unpack(parent, Path(tmp))
        checkouts = {"parent": Path(tmp), "change": ROOT}
        for workload in args.workload or WORKLOADS:
            runs = {side: [] for side in SIDES}
            for pair in range(args.pairs):
                order = SIDES if pair % 2 == 0 else SIDES[::-1]
                for side in order:
                    run = bench_once(checkouts[side], workload, args.seed, args.seconds)
                    runs[side].append({"first": side == order[0], **run})
                    print(f"{workload} pair {pair} {side}: " + json.dumps(run), file=sys.stderr)
            document["workloads"][workload] = {"runs": runs, "summary": summarize(runs)}
    check(document)
    out = ROOT / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
