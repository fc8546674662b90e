"""Write the sha256 of CLI outputs over a fixed grid of configs, as JSON.

The grid is ``compile --verify`` for every walk kind (two split-step coin
pairs, dtqw, electric-dtqw, generalized walks with random and with explicit
four-angle tables) at half-widths 3 to 256, plus a few ``run`` and
``localize`` configs.  Each output file's digest is keyed by its command and
config, with the command's exit code.

Run it on two checkouts and diff the two files, once with the default BLAS
threads and once with ``OPENBLAS_NUM_THREADS=1`` (compile bytes depend on
the thread count from L=40 on); identical files mean every byte on the grid
is kept::

    PYTHONPATH=src python tests/byte_sweep.py sweep.json

It uses the standard library and ``oamwalk.cli`` only; pytest does not
collect it.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
import tempfile
from pathlib import Path

from oamwalk import cli

HALF_WIDTHS = (3, 5, 17, 31, 32, 40, 63, 64, 100, 129, 256)


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


def _run_configs():
    base = {"schema_version": 1, "steps": 30, "half_width": 40}
    yield "ssqw", {**base, "walk": "ssqw", "theta1": 0.3, "theta2": 1.1, "emit_all_sites": True}
    yield "dtqw", {**base, "walk": "dtqw", "theta": 0.7, "emit_trajectory": True}
    yield "electric-dtqw", {**base, "walk": "electric-dtqw", "theta": 0.6, "phi_e": 0.9}
    yield "generalized", {**base, "walk": "generalized", "seed": 5}


def _localize_configs():
    yield "generalized-L40", {"schema_version": 1, "walk": "generalized", "steps": 30, "half_width": 40,
                              "seed": 11}


def _jobs():
    for name, cfg in _compile_configs():
        yield f"compile --verify {name}", cfg, ["compile", "--verify"]
    for name, cfg in _run_configs():
        yield f"run {name}", cfg, ["run"]
    for name, cfg in _localize_configs():
        yield f"localize --seeds 4 {name}", cfg, ["localize", "--seeds", "4"]


def sweep() -> dict:
    """``{job: {"exit": code, file name: sha256}}`` over the whole grid."""
    digests = {}
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
    return digests


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print("usage: byte_sweep.py OUT.json", file=sys.stderr)
        return 2
    Path(argv[0]).write_text(json.dumps(sweep(), indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
