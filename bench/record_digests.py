"""Record the sha256 of every output of every pool op for a range of seeds.

Run from the root of a source checkout whose outputs are the reference::

    python3 bench/record_digests.py --seeds 0-63 [--workload spread ...]

Writes ``bench/digests.json``, keyed by the platform (see
``platform_info.key``); runs of ``bench/run.py`` on the same platform compare
each op's outputs with these digests.  Recording for more workloads or seeds
merges into an existing file from the same platform.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import platform_info  # noqa: E402
import workloads  # noqa: E402
from oamwalk import cli  # noqa: E402


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", required=True, help="inclusive range, e.g. 0-63")
    parser.add_argument("--workload", action="append", choices=workloads.WORKLOADS)
    args = parser.parse_args()

    path = BENCH / "digests.json"
    platform = platform_info.key(platform_info.machine())
    record = json.loads(path.read_text()) if path.exists() else None
    if record is None or record["platform"] != platform:
        record = {"platform": platform, "digests": {w: {} for w in workloads.WORKLOADS}}
    work = ROOT / ".bench_work" / "record"
    work.mkdir(parents=True, exist_ok=True)
    try:
        for workload in args.workload or workloads.WORKLOADS:
            for seed in _seeds(args.seeds):
                digests = []
                for entry in workloads.write_configs(workloads.pool(workload, seed), work):
                    code = cli.main(entry["argv"])
                    if code != 0:
                        print(f"{workload} seed {seed}: op exited with {code}", file=sys.stderr)
                        return 1
                    digests.append([workloads.digest(p) for p in entry["outputs"]])
                record["digests"][workload][str(seed)] = digests
                print(f"{workload} seed {seed}: {len(digests)} ops recorded", flush=True)
                path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
