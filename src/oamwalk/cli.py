"""Batch front-end: run walks, compile optical trains, study localization.

Subcommands
-----------

``run --config c.json --out dist.csv``
    Evolve the configured walk.  Writes a ``t,x,P`` CSV (final step by
    default, whole trajectory with ``emit_trajectory``) plus a
    ``<out>.summary.json`` with per-step moments and the total probability,
    the sequential sum of the site probabilities in site order (the same
    digits on every Python version).  The distributions and moments are
    streamed by :func:`walk.distribution_blocks`, in blocks of 16 steps that
    give each row the bits it would have alone (totals summed sequentially
    here), so memory stays O(lattice) except for the CSV rows that
    ``emit_trajectory`` asks for.
``compile --config c.json --out parts.json [--verify]``
    Emit the ordered optical parts list for a walk of any kind.  One train
    realizes every step, so it is compiled once, and with ``--verify``
    certified once against the walk's dense step operator (read from comb
    probes of the step kernel), and repeated in every step block; a failed
    check exits with code 4.
``verify``
    Alias for ``compile`` with verification forced on.
``localize --config c.json --out loc.json --seeds N``
    Ensemble of disordered generalized walks, evolved together as one batch
    whose coins, shifts and probabilities touch the light cone only, reduced
    ``max(1, 16 // N)`` steps at a time by :func:`walk.distribution_blocks`,
    as ``run`` is: per-seed spread histories, their mean, and the ballistic
    baseline in one JSON file.  The seeds are split into contiguous chunks,
    one per usable CPU; every chunk but the last is evolved in a forked
    child, which writes its rows in place into one spread history in
    anonymous shared memory, mapped before any fork, and each member's row
    is reduced as it would be alone, so the bytes do not depend on the
    split.  A chunk whose child fails is evolved again in process, so its
    error exits with its code here.

All outputs are pure functions of the config file (seed included); running
a command twice produces byte-identical files.  Exit codes: 0 ok, 2 bad
config (a config file that is not UTF-8 JSON, or a walk too large to
allocate, refused before any allocation when numpy could not address its
largest array) or unwritable output (``--out`` in a missing directory, or an
output path that names an existing directory, is refused before any work),
3 lattice guard violation, 4 verification failure.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import dataclasses
import functools
import json
import math
import mmap
import os
import signal
import sys
from pathlib import Path

import numpy as np

from . import compiler, optics, walk
from .compiler import CompiledStep, PdcBlock, VerificationError, VerificationReport
from .optics import HalfWavePlate, JPlate, VariableWavePlate

__all__ = [
    "ConfigError",
    "load_config",
    "build_spec",
    "element_to_record",
    "element_from_record",
    "parts_list_document",
    "parse_parts_list",
    "main",
]

#: The config version :func:`build_spec` reads, and each output document's own.
CONFIG_VERSION = 1
SUMMARY_VERSION = 1
PARTS_LIST_VERSION = 1
LOCALIZE_VERSION = 1

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_GUARD = 3
EXIT_VERIFY = 4


class ConfigError(ValueError):
    """The run configuration is malformed or inconsistent."""


_COMMON_KEYS = {
    "schema_version",
    "walk",
    "steps",
    "half_width",
    "start",
    "coin_state",
    "seed",
    "emit_trajectory",
    "emit_all_sites",
    "verify",
}
#: Each walk kind's config keys, in parsing order, and the WalkSpec fields they set.
_KIND_KEYS = {
    "dtqw": {"theta": "theta1"},
    "ssqw": {"theta1": "theta1", "theta2": "theta2"},
    "generalized": {"table1": "table1", "table2": "table2"},
    "electric-dtqw": {"theta": "theta1", "phi_e": "phi_e"},
}
#: Kind keys a config may leave out, leaving WalkSpec's default: zero field, random tables.
_OPTIONAL_KEYS = {"phi_e", "table1", "table2"}
_TABLE_KEYS = {"chi", "xi", "eta", "theta"}
_FLAG_KEYS = ("emit_trajectory", "emit_all_sites", "verify")


def _unique_keys(pairs: list) -> dict:
    """The JSON object of ``pairs``, or ValueError naming a key it repeats."""
    repeated = [key for key, count in collections.Counter(key for key, _ in pairs).items() if count > 1]
    if repeated:
        raise ValueError(f"it repeats key {repeated[0]!r}")
    return dict(pairs)


def load_config(path) -> dict:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as err:
        raise ConfigError(f"cannot read config {path}: {err}") from err
    except UnicodeDecodeError as err:
        raise ConfigError(f"config {path} is not UTF-8 text: {err}") from err
    try:
        cfg = json.loads(text, object_pairs_hook=_unique_keys)
    except ValueError as err:  # malformed JSON, a repeated key, or an integer past Python's digit limit
        raise ConfigError(f"config {path} is not valid JSON: {err}") from err
    except RecursionError as err:
        raise ConfigError(f"config {path} is nested too deeply: {err}") from err
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    return cfg


def _key(mapping, key: str, kind=object, where: str = "config"):
    """``mapping[key]`` of a JSON object, of JSON type ``kind`` (a boolean is no int), or ConfigError."""
    if not isinstance(mapping, dict) or key not in mapping:
        raise ConfigError(f"{where} must be a JSON object with key {key!r}")
    value = mapping[key]
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        raise ConfigError(f"{where} key {key!r} must be of type {kind.__name__}, got {value!r}")
    return value


def _parse_coin_state(raw) -> tuple[complex, complex]:
    if not (isinstance(raw, list) and len(raw) == 2 and all(isinstance(p, list) and len(p) == 2 for p in raw)):
        raise ConfigError("coin_state must be [[re, im], [re, im]] pairs of numbers")
    (re0, im0), (re1, im1) = ([optics._as_real(f"coin_state[{i}][{j}]", v) for j, v in enumerate(pair)]
                              for i, pair in enumerate(raw))
    return complex(re0, im0), complex(re1, im1)


def _angle_column(raw, n: int, key: str, name: str) -> np.ndarray:
    if isinstance(raw, list):
        if len(raw) != n:
            raise ConfigError(f"{name}.{key} must list {n} angles (one per site), got {len(raw)}")
        return np.asarray([optics._as_real(f"{name}.{key}[{i}]", v) for i, v in enumerate(raw)], dtype=np.float64)
    return np.full(n, optics._as_real(f"{name}.{key}", raw), dtype=np.float64)


def _parse_table(raw, half_width: int, name: str) -> walk.CoinTable | None:
    if raw == "random":
        return None  # resolved from the seed by WalkSpec
    if not isinstance(raw, dict):
        raise ConfigError(f"{name} must be \"random\" or an object with angle columns")
    unknown = set(raw) - _TABLE_KEYS
    if unknown:
        raise ConfigError(f"unknown keys in {name}: {sorted(unknown)}")
    n = 2 * half_width + 1
    cols = {k: _angle_column(raw.get(k, 0.0), n, k, name) for k in ("chi", "xi", "eta", "theta")}
    return walk.CoinTable(-half_width, cols["chi"], cols["xi"], cols["eta"], cols["theta"])


def build_spec(cfg: dict) -> walk.WalkSpec:
    """Read a config mapping into a WalkSpec, which checks its own fields."""
    version = _key(cfg, "schema_version", int)
    if version != CONFIG_VERSION:
        raise ConfigError(f"unsupported schema_version {version}; this tool reads {CONFIG_VERSION}")
    kind = _key(cfg, "walk", str)
    if kind not in _KIND_KEYS:
        raise ConfigError(f"unknown walk {kind!r}; expected one of {sorted(_KIND_KEYS)}")
    unknown = set(cfg) - _COMMON_KEYS.union(_KIND_KEYS[kind])
    if unknown:
        raise ConfigError(f"unknown keys for walk {kind!r}: {sorted(unknown)}")
    for flag in _FLAG_KEYS:
        if not isinstance(cfg.get(flag, False), bool):
            raise ConfigError(f"{flag} must be true or false, got {cfg[flag]!r}")

    try:
        coin = _parse_coin_state(cfg["coin_state"]) if "coin_state" in cfg else walk.SYMMETRIC_COIN
        spec = walk.WalkSpec(kind, _key(cfg, "steps"), _key(cfg, "half_width"), coin_state=coin,
                             start=cfg.get("start", 0), seed=cfg.get("seed"))
        fields = {}
        for key, field in _KIND_KEYS[kind].items():
            if key in cfg or key not in _OPTIONAL_KEYS:
                raw = _key(cfg, key)
                fields[field] = (_parse_table(raw, spec.half_width, key) if field in ("table1", "table2")
                                 else optics._as_real(f"key {key!r}", raw))
        spec = dataclasses.replace(spec, **fields)
        spec.validate()  # LatticeGuardError, a RuntimeError, propagates to exit code 3
    except ValueError as err:
        raise ConfigError(str(err)) from err
    return spec


def _refuse_unaddressable(what: str, shape: tuple[int, ...], itemsize: int) -> None:
    """Raise :class:`ConfigError` before allocating an array of ``shape`` that numpy cannot address.

    The size is a Python integer, so it is exact whatever the configured lattice.
    """
    nbytes = math.prod(shape) * itemsize
    if nbytes > np.iinfo(np.intp).max:
        raise ConfigError(f"the configured walk is too large to allocate: its {what} of shape {shape} "
                          f"would take {nbytes} bytes")


def _fmt(value: float) -> str:
    return f"{value:.17g}"


# --- run -------------------------------------------------------------------


def _distribution_rows(t: int, half_width: int, p: np.ndarray, emit_all_sites: bool):
    for x, v in zip(range(-half_width, half_width + 1), p.tolist()):
        if emit_all_sites or v > 0.0:
            yield f"{t},{x},{_fmt(v)}"


def run_command(cfg: dict, out_path: str) -> int:
    spec = build_spec(cfg)
    emit_trajectory = cfg.get("emit_trajectory", False)
    emit_all_sites = cfg.get("emit_all_sites", False)
    _refuse_unaddressable("float blocks", (walk.BLOCK_ROWS, 2 * spec.half_width + 1), 8)

    partial_sums = np.empty((walk.BLOCK_ROWS, 2 * spec.half_width + 1))
    lines = ["t,x,P"]
    moments = []  # (means, variances, totals) of each block
    for t0, p, means, variances, cone in walk.distribution_blocks([spec]):
        rows = p[:, 0]
        # the total is the sequential sum in site order over the block's cone
        # (np.sum adds pairwise and Python 3.12's sum compensates, so either
        # would change its last digits; the zeros outside add nothing)
        totals = np.add.accumulate(rows[:, cone], axis=-1, out=partial_sums[: len(rows), cone])[:, -1]
        moments.append((means[:, 0], variances[:, 0], totals.copy()))
        for t, row in zip(range(t0, spec.steps + 1), rows):
            if emit_trajectory or t == spec.steps:
                lines += _distribution_rows(t, spec.half_width, row, emit_all_sites)
    _write_text(out_path, "\n".join(lines) + "\n")
    _write_text(_summary_path(out_path), _summary_text(spec, *map(np.concatenate, zip(*moments))))
    return EXIT_OK


#: One row of a ``run`` summary's moments and the document around them, as
#: ``json.dumps(summary, indent=2, sort_keys=True)`` writes them.
_MOMENT_ROW = ('    {\n      "mean": %s,\n      "sigma": %s,\n      "t": %d,\n      "total": %s,\n'
               '      "variance": %s\n    }')
_SUMMARY = ('{\n  "half_width": %d,\n  "moments": [\n%s\n  ],\n  "schema_version": %d,\n  "steps": %d,\n'
            '  "walk": %s\n}\n')
#: json's spellings of the floats ``float.__repr__`` writes as nan, inf and -inf.
_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_floats(values: np.ndarray) -> list[str]:
    """Each float of ``values`` as json writes it: ``float.__repr__``, or json's non-finite spelling."""
    return [_NON_FINITE.get(r, r) for r in map(float.__repr__, values.tolist())]


def _summary_text(spec: walk.WalkSpec, means: np.ndarray, variances: np.ndarray, totals: np.ndarray) -> str:
    """The ``run`` summary of ``spec``'s moments at t = 0..T, written through a fixed template.

    The text is ``json.dumps`` of the summary mapping with ``indent=2`` and
    ``sort_keys=True``, with sigma the square root of the variance; the
    template only skips the pure-Python encoder that ``indent`` selects.
    """
    columns = map(_json_floats, (means, np.sqrt(variances), totals, variances))
    rows = ",\n".join(_MOMENT_ROW % (m, s, t, tot, v) for t, (m, s, tot, v) in enumerate(zip(*columns)))
    return _SUMMARY % (spec.half_width, rows, SUMMARY_VERSION, spec.steps, json.dumps(spec.walk_kind))


def _summary_path(out_path: str) -> Path:
    return Path(out_path).with_suffix(".summary.json")


def _write_text(path, text: str) -> None:
    try:
        Path(path).write_text(text)
    except OSError as err:
        raise ConfigError(f"cannot write {path}: {err}") from err


def _write_json(path, document: dict) -> None:
    _write_text(path, json.dumps(document, indent=2, sort_keys=True) + "\n")


# --- compile / verify ------------------------------------------------------


#: Parts-list element types.  A record's parameters are its element's dataclass
#: fields, plus the constants below, which document the train, must hold their
#: value, and are dropped again on reading (a PDC block's half-waveplate is at 0).
_ELEMENT_TYPES = {"jplate": JPlate, "half_waveplate": HalfWavePlate,
                  "variable_waveplate": VariableWavePlate, "pdc_block": PdcBlock}
_CONSTANT_PARAMETERS = {"pdc_block": {"hwp_angle": 0.0}}


def element_to_record(element, order: int, provenance: str) -> dict:
    kind = next((k for k, cls in _ELEMENT_TYPES.items() if isinstance(element, cls)), None)
    if kind is None:
        raise TypeError(f"cannot serialize element of type {type(element).__name__}")
    params = {k: v.tolist() if isinstance(v, np.ndarray) else v for k, v in dataclasses.asdict(element).items()}
    params.update(_CONSTANT_PARAMETERS.get(kind, {}))
    return {"order": order, "element_type": kind, "parameters": params, "provenance": provenance}


def element_from_record(record: dict):
    """The element of a parts-list record, built from its parameters, which the element checks itself."""
    kind = _key(record, "element_type", str, "parts-list element")
    if kind not in _ELEMENT_TYPES:
        raise ConfigError(f"unknown element_type {kind!r} in parts list")
    params = dict(_key(record, "parameters", dict, f"{kind} element"))
    for key, fixed in _CONSTANT_PARAMETERS.get(kind, {}).items():
        value = params.pop(key, fixed)
        if value != fixed or isinstance(value, bool):
            raise ConfigError(f"{kind} parameters key {key!r} must be {fixed!r}, the value the element fixes, "
                              f"got {value!r}")
    try:
        return _ELEMENT_TYPES[kind](**params)
    except (TypeError, ValueError) as err:  # an unknown or missing parameter, or one the element refuses
        raise ConfigError(f"cannot build {kind} from its parameters: {err}") from err


def parts_list_document(spec: walk.WalkSpec, one: CompiledStep, report: VerificationReport | None) -> dict:
    """The parts list of a walk whose every step is realized by the train ``one``."""
    block = {
        "phase": one.phase,
        "notes": list(one.notes),
        "elements": [
            element_to_record(el, order, prov)
            for order, (el, prov) in enumerate(zip(one.elements, one.provenance, strict=True))
        ],
    }
    if report is not None:
        block["verification"] = dataclasses.asdict(report)
    return {
        "schema_version": PARTS_LIST_VERSION,
        "walk": spec.walk_kind,
        "step_count": spec.steps,
        "half_width": spec.half_width,
        "verified": report is not None,
        "step_blocks": [{"step": i, **block} for i in range(spec.steps)],
    }


def parse_parts_list(document: dict) -> list[CompiledStep]:
    """Rebuild compiled steps from an emitted parts list."""
    if _key(document, "schema_version", int, "parts list") != PARTS_LIST_VERSION:
        raise ConfigError("parts list has an unsupported schema_version")
    steps = []
    for i, block in enumerate(_key(document, "step_blocks", list, "parts list")):
        records = sorted(_key(block, "elements", list, "step block"),
                         key=lambda r: _key(r, "order", int, "parts-list element"))
        orders = [r["order"] for r in records]
        if orders != list(range(len(records))):
            raise ConfigError(f"step block key 'order' must run 0..{len(records) - 1} once each, got {orders}")
        elements = tuple(element_from_record(r) for r in records)
        provenance = tuple(_key(r, "provenance", str, "parts-list element") for r in records)
        notes = tuple(_key(block, "notes", list, "step block"))
        if not all(isinstance(note, str) for note in notes):
            raise ConfigError("step block key 'notes' must list strings")
        try:
            phase = optics._as_real("step block key 'phase'", _key(block, "phase", where="step block"))
        except ValueError as err:
            raise ConfigError(str(err)) from err
        if _key(block, "step", int, "step block") != i:
            raise ConfigError(f"step block key 'step' must be {i}, the block's position, got {block['step']}")
        steps.append(CompiledStep(elements, provenance, phase, notes))
    if (count := _key(document, "step_count", int, "parts list")) != len(steps):
        raise ConfigError(f"parts list key 'step_count' must be {len(steps)}, the number of step blocks, got {count}")
    return steps


def compile_command(cfg: dict, out_path: str, verify_flag: bool) -> int:
    spec = build_spec(cfg)
    if spec.steps < 1:
        raise ConfigError("compile needs at least one step")
    verify_flag = verify_flag or cfg.get("verify", False)
    n = 2 * spec.half_width + 1
    if verify_flag:
        _refuse_unaddressable("dense step operator", (2 * n, 2 * n), 16)
    if spec.walk_kind == "ssqw":  # the five-element recipe builds no per-site element
        one = compiler.compile_ssqw(walk.coin_matrix(spec.theta1), walk.coin_matrix(spec.theta2))
    else:
        _refuse_unaddressable("PDC fields", (n, 2, 2), 16)
        one = compiler.compile_generalized(spec)
    report = compiler.verify(one, walk.step_operator(spec)) if verify_flag else None

    _write_json(out_path, parts_list_document(spec, one, report))
    if report is not None and not report.passed:
        raise VerificationError(
            f"compiled train failed phase-equivalence (worst fidelity {report.fidelity:.12g}); "
            f"parts list with diagnostics written to {out_path}"
        )
    return EXIT_OK


# --- localize ---------------------------------------------------------------


def _spreads(specs: list[walk.WalkSpec]) -> np.ndarray:
    """Spread of each walk of an ensemble at t = 0..T, shape (T+1, S)."""
    return np.sqrt(np.concatenate([variances for *_, variances, _ in walk.distribution_blocks(specs)]))


def _sigma_history(members: list[walk.WalkSpec], baseline: walk.WalkSpec) -> tuple[np.ndarray, np.ndarray]:
    """Spreads of the ensemble ``members`` at t = 0..T, shape (S, T+1), and of the walk ``baseline``, (T+1,).

    The members are split into contiguous chunks in seed order, one per usable
    CPU, whose sizes differ by at most one.  Each chunk but the last is evolved
    in a forked child, which writes its rows in place into the history, mapped
    as anonymous shared memory before any fork, and exits 0, or 1 on any error.
    This process evolves every member from the first chunk it did not fork and
    the baseline, then evolves again the chunk of each child that did not exit
    0 (killed by a signal included), so an error surfaces here.  Each member's
    row is reduced as it would be alone, so the split moves no byte.  Children
    not collected, when this process raises, are killed and reaped.
    """
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    count = min(cpus, len(members))
    size, extra = divmod(len(members), count)
    starts = [i * size + min(i, extra) for i in range(count + 1)]
    nbytes = len(members) * (baseline.steps + 1) * 8
    try:
        history = np.frombuffer(mmap.mmap(-1, nbytes)).reshape(len(members), -1)
    except OSError as err:
        raise MemoryError(f"cannot map the {nbytes}-byte spread history: {err}") from err
    children = {}  # pid: rows of each child not yet reaped
    try:
        for a, b in zip(starts[:-2], starts[1:-1]):
            try:
                pid = os.fork()
            except OSError:  # no process to spare: this process evolves the rest
                break
            if pid == 0:
                status = 1
                try:
                    history[a:b] = _spreads(members[a:b]).T
                    status = 0
                finally:
                    os._exit(status)
            children[pid] = slice(a, b)
        rest = starts[len(children)]
        history[rest:] = _spreads(members[rest:]).T
        ballistic = _spreads([baseline])[:, 0]
        for pid, rows in list(children.items()):
            status = os.waitpid(pid, 0)[1]
            del children[pid]
            if status:
                history[rows] = _spreads(members[rows]).T
        return history, ballistic
    finally:
        for pid in children:
            with contextlib.suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)
            with contextlib.suppress(ChildProcessError):
                os.waitpid(pid, 0)


def localize_command(cfg: dict, out_path: str, n_seeds: int) -> int:
    spec = build_spec(cfg)
    if spec.walk_kind != "generalized":
        raise ConfigError("localize needs walk \"generalized\"")
    if spec.steps < 1:
        raise ConfigError("localize needs at least one step")
    if n_seeds < 1:
        raise ConfigError("ensemble size must be >= 1")
    if spec.seed is None:
        raise ConfigError("localize needs a seed")
    n = 2 * spec.half_width + 1
    _refuse_unaddressable("per-site coin stacks", (n_seeds, 2, 2, n), 16)
    _refuse_unaddressable("float blocks", (walk.BLOCK_ROWS, n), 8)  # the baseline's, larger at one seed

    seeds = [spec.seed + i for i in range(n_seeds)]
    members = [dataclasses.replace(spec, seed=s) for s in seeds]
    baseline = walk.WalkSpec(
        "dtqw",
        spec.steps,
        spec.half_width,
        coin_state=spec.coin_state,
        start=spec.start,
        theta1=math.pi / 4,
    )
    history, ballistic = _sigma_history(members, baseline)
    per_seed = history.tolist()
    # averaged over a C-ordered (seeds, steps) array, which fixes the order
    # in which the seeds are summed and so the digits of the mean
    mean = np.mean(history, axis=0).tolist()
    ballistic = ballistic.tolist()

    _write_json(
        out_path,
        {
            "schema_version": LOCALIZE_VERSION,
            "walk": spec.walk_kind,
            "steps": spec.steps,
            "half_width": spec.half_width,
            "ensemble": n_seeds,
            "seeds": seeds,
            "sigma_per_seed": per_seed,
            "sigma_ensemble_mean": mean,
            "sigma_ballistic": ballistic,
            "final_ratio": mean[-1] / ballistic[-1],
        },
    )
    return EXIT_OK


# --- entry point -------------------------------------------------------------


@functools.cache  # one parser per process: parse_args leaves it unchanged
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="oamwalk", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    files = argparse.ArgumentParser(add_help=False)  # the arguments every subcommand takes
    files.add_argument("--config", required=True)
    files.add_argument("--out", required=True)

    sub.add_parser("run", parents=[files], help="evolve a walk and write its distribution")
    sub.add_parser("compile", parents=[files], help="emit the optical parts list").add_argument(
        "--verify", action="store_true", help="certify the train once against the walk's step operator")
    sub.add_parser("verify", parents=[files], help="compile with verification forced on").set_defaults(verify=True)
    sub.add_parser("localize", parents=[files], help="disorder ensemble spread study").add_argument(
        "--seeds", type=int, required=True, metavar="N")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        out_dir = Path(args.out).parent
        if not out_dir.is_dir():
            raise ConfigError(f"cannot write {args.out}: {out_dir} is not an existing directory")
        outputs = [Path(args.out)]
        if args.command == "run" and not outputs[0].is_dir():  # with_suffix rejects '.', '' and '/'
            outputs.append(_summary_path(args.out))
        for path in outputs:
            if path.is_dir():
                raise ConfigError(f"cannot write {path}: it is an existing directory")
        cfg = load_config(args.config)
        if args.command == "run":
            return run_command(cfg, args.out)
        if args.command == "localize":
            return localize_command(cfg, args.out, args.seeds)
        return compile_command(cfg, args.out, args.verify)  # compile, or verify, whose parser sets verify
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except MemoryError as err:  # numpy's message names the size and shape asked for
        print(f"config error: the configured walk is too large to allocate: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except walk.LatticeGuardError as err:
        msg = f"lattice guard violation: {err}"
        if err.required_half_width is not None:
            msg += f" (half_width >= {err.required_half_width} suffices)"
        print(msg, file=sys.stderr)
        return EXIT_GUARD
    except VerificationError as err:
        print(f"verification failure: {err}", file=sys.stderr)
        return EXIT_VERIFY


if __name__ == "__main__":
    sys.exit(main())
