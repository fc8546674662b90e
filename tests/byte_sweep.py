"""Write the sha256 of CLI outputs over a fixed grid of configs, as JSON.

The grid is ``compile --verify`` and plain ``compile`` for every walk kind
(two split-step coin pairs, dtqw, electric-dtqw, generalized walks with
random and with explicit four-angle tables) at half-widths 3 to 256, and for
degenerate coins whose products hold exact zeros (split-step angle pairs
from 0, pi/2 and pi; dtqw and electric-dtqw at those angles with phi_e = pi;
tables with theta = 0 and xi = pi/2) at half-widths 3 to 256, plus a few
``run`` and ``localize`` configs.  A ``run`` with explicit four-angle tables
and a ``localize`` whose first table is one carry complex per-site coins
(nonzero chi, xi and eta), whose products a fused multiply would round
differently; ``random`` tables hold real coins only.  One ``run`` and one ``localize`` are at
half-width 6000 and 200 steps, so their lattice rows outgrow the 10000
elements below which the OpenBLAS dot product runs on one thread.  Each
output file's digest is keyed by its command and config, with the command's
exit code.  Every parts list written is also read back with
``cli.parse_parts_list`` and written again record by record with
``cli.element_to_record``, which must give its element records unchanged.  It
exits 1, naming the jobs, when any command exited other than 0, so a config a
checkout cannot read does not pass as a byte match, or when a parts list does
not round-trip.

Run one copy of this script against two checkouts, with ``PYTHONPATH`` naming
each checkout's ``src`` in turn, and diff the two files, once with the default
BLAS threads, once with ``OPENBLAS_NUM_THREADS=1`` and once under
``taskset -c 0``; identical files mean every byte on the grid is kept.
``localize`` evolves its seeds in one chunk per usable CPU, so the
``taskset -c 0`` run is the one-chunk reference, and the ``localize`` jobs at
3, 5 and 17 seeds put chunk boundaries inside the ensemble on any host with
two CPUs or more.  The BLAS thread count (one under ``taskset -c 0``) moves
the bytes of ``compile --verify`` from L=40 on and of the half-width 6000
``run`` summary and ``localize`` JSON until band certificates (ROADMAP item
3) and thread-independent reductions (item 4) land, so compare only files
written on the same setting.  The grid belongs to the script, not to the
checkout it measures::

    PYTHONPATH=/path/to/checkout/src python tests/byte_sweep.py sweep.json

It uses the standard library and ``oamwalk.cli`` only; pytest does not
collect it (``tests/test_cli.py`` checks that every config builds).
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import random
import sys
import tempfile
from pathlib import Path

from oamwalk import cli

HALF_WIDTHS = (3, 5, 17, 31, 32, 40, 63, 64, 100, 129, 256)
DEGENERATE_HALF_WIDTHS = (3, 17, 40, 64, 100, 256)
#: Angles whose coins hold exact zeros or exact +-1 entries.
DEGENERATE_ANGLES = {"0": 0.0, "pi/2": math.pi / 2, "pi": math.pi}


def _four_angle_table(rng: random.Random, half_width: int) -> dict:
    return {key: [rng.uniform(-3.0, 3.0) for _ in range(2 * half_width + 1)]
            for key in ("chi", "xi", "eta", "theta")}


def _compile_configs():
    for L in HALF_WIDTHS:
        rng = random.Random(L)
        base = {"schema_version": 1, "steps": 1, "half_width": L}
        yield f"ssqw-a-L{L}", {**base, "walk": "ssqw", "theta1": 0.3, "theta2": 1.1}
        yield f"ssqw-b-L{L}", {**base, "walk": "ssqw", "theta1": -2.2, "theta2": 0.45}
        yield f"dtqw-L{L}", {**base, "walk": "dtqw", "theta": 0.7}
        yield f"electric-dtqw-L{L}", {**base, "walk": "electric-dtqw", "theta": 0.6, "phi_e": 0.9}
        yield f"generalized-random-L{L}", {**base, "walk": "generalized", "seed": L,
                                           "table1": "random", "table2": "random"}
        yield f"generalized-tables-L{L}", {**base, "walk": "generalized",
                                           "table1": _four_angle_table(rng, L),
                                           "table2": _four_angle_table(rng, L)}


def _degenerate_configs():
    for L in DEGENERATE_HALF_WIDTHS:
        base = {"schema_version": 1, "steps": 1, "half_width": L}
        for (n1, t1), (n2, t2) in itertools.product(DEGENERATE_ANGLES.items(), repeat=2):
            yield f"ssqw-{n1}-{n2}-L{L}", {**base, "walk": "ssqw", "theta1": t1, "theta2": t2}
        for name, theta in DEGENERATE_ANGLES.items():
            yield f"dtqw-{name}-L{L}", {**base, "walk": "dtqw", "theta": theta}
            yield f"electric-dtqw-{name}-L{L}", {**base, "walk": "electric-dtqw", "theta": theta,
                                                 "phi_e": math.pi}
        table = {"theta": 0.0, "xi": math.pi / 2}
        yield f"generalized-theta0-xi-pi/2-L{L}", {**base, "walk": "generalized", "table1": table,
                                                   "table2": table}


def configs():
    """Every ``(name, config)`` of the grid, the ``compile`` ones first."""
    yield from _compile_configs()
    yield from _degenerate_configs()
    yield from _run_configs()
    yield from ((name, cfg) for name, cfg, _ in _localize_configs())


def _run_configs():
    base = {"schema_version": 1, "steps": 30, "half_width": 40}
    yield "ssqw", {**base, "walk": "ssqw", "theta1": 0.3, "theta2": 1.1, "emit_all_sites": True}
    yield "dtqw", {**base, "walk": "dtqw", "theta": 0.7, "emit_trajectory": True}
    yield "electric-dtqw", {**base, "walk": "electric-dtqw", "theta": 0.6, "phi_e": 0.9}
    yield "generalized", {**base, "walk": "generalized", "seed": 5}
    rng = random.Random(40)
    yield "generalized-tables", {**base, "walk": "generalized", "table1": _four_angle_table(rng, 40),
                                 "table2": _four_angle_table(rng, 40)}
    yield "ssqw-L6000", {"schema_version": 1, "steps": 200, "half_width": 6000, "walk": "ssqw",
                         "theta1": 0.7, "theta2": -0.4}


def _localize_configs():
    """``(name, config, seeds)`` of each ``localize`` job."""
    yield "generalized-L40", {"schema_version": 1, "walk": "generalized", "steps": 30, "half_width": 40,
                              "seed": 11}, 4
    yield "generalized-table1-L40", {"schema_version": 1, "walk": "generalized", "steps": 30, "half_width": 40,
                                     "seed": 12, "table1": _four_angle_table(random.Random(41), 40),
                                     "table2": "random"}, 3
    yield "generalized-L6000", {"schema_version": 1, "walk": "generalized", "steps": 200, "half_width": 6000,
                                "seed": 5}, 2
    # seed counts whose chunks, one per usable CPU, do not all have one size
    for seeds in (3, 5, 17):
        yield "generalized-seed13-L40", {"schema_version": 1, "walk": "generalized", "steps": 30,
                                         "half_width": 40, "seed": 13}, seeds


def _jobs():
    for name, cfg in itertools.chain(_compile_configs(), _degenerate_configs()):
        yield f"compile --verify {name}", cfg, ["compile", "--verify"]
        yield f"compile {name}", cfg, ["compile"]
    for name, cfg in _run_configs():
        yield f"run {name}", cfg, ["run"]
    for name, cfg, seeds in _localize_configs():
        yield f"localize --seeds {seeds} {name}", cfg, ["localize", "--seeds", str(seeds)]


def _round_trips(path: Path) -> bool:
    """Whether the parts list at ``path`` reads back into elements whose records are the ones written."""
    document = json.loads(path.read_text())
    try:
        steps = cli.parse_parts_list(document)
    except cli.ConfigError:
        return False
    for block, cs in zip(document["step_blocks"], steps, strict=True):
        records = [cli.element_to_record(el, order, prov)
                   for order, (el, prov) in enumerate(zip(cs.elements, cs.provenance, strict=True))]
        if records != block["elements"]:
            return False
    return True


def sweep() -> tuple[dict, list]:
    """``{job: {"exit": code, file name: sha256}}`` over the whole grid, and the compile jobs whose parts
    list does not round-trip."""
    digests, unread = {}, []
    with tempfile.TemporaryDirectory() as tmp:
        for i, (job, cfg, command) in enumerate(_jobs()):
            work = Path(tmp) / str(i)
            work.mkdir()
            config, out = work / "config.json", work / "out"
            config.write_text(json.dumps(cfg))
            code = cli.main([*command, "--config", str(config), "--out", str(out)])
            entry = {"exit": code}
            for path in sorted(work.iterdir()):
                if path != config:
                    entry[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
            digests[job] = entry
            if command[0] == "compile" and code == 0 and not _round_trips(out):
                unread.append(job)
    return digests, unread


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print("usage: byte_sweep.py OUT.json", file=sys.stderr)
        return 2
    digests, unread = sweep()
    Path(argv[0]).write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    failed = [job for job, entry in digests.items() if entry["exit"] != 0]
    for job in failed:
        print(f"exit {digests[job]['exit']}: {job}", file=sys.stderr)
    for job in unread:
        print(f"parts list does not round-trip: {job}", file=sys.stderr)
    return 1 if failed or unread else 0


if __name__ == "__main__":
    sys.exit(main())
