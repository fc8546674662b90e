"""Batch front-end: run walks, compile optical trains, study localization.

Subcommands
-----------

``run --config c.json --out dist.csv``
    Evolve the configured walk.  Writes a ``t,x,P`` CSV (final step by
    default, whole trajectory with ``emit_trajectory``) plus a
    ``<out>.summary.json`` with per-step moments and the total probability,
    the sequential sum of the site probabilities in site order (the same
    digits on every Python version).  The amplitude arrays are reduced as
    they are produced, in ``localize``'s loop, their distributions in blocks
    of 16 steps that give each row the bits it would have alone (totals
    summed sequentially), so memory stays O(lattice) except for the CSV rows
    that ``emit_trajectory`` asks for.
``compile --config c.json --out parts.json [--verify]``
    Emit the ordered optical parts list for a walk of any kind.  One train
    realizes every step, so it is compiled once, and with ``--verify``
    certified once against the walk's dense step operator (read from comb
    probes of the step kernel), and repeated in every step block; a failed
    check exits with code 4.
``verify``
    Alias for ``compile`` with verification forced on.
``localize --config c.json --seeds N --out loc.json``
    Ensemble of disordered generalized walks, evolved together as one batch
    whose coins, shifts and probabilities touch the light cone only, reduced
    ``max(1, 16 // N)`` steps at a time in ``run``'s loop: per-seed spread
    histories, their mean, and the ballistic baseline in one JSON file.

All outputs are pure functions of the config file (seed included); running
a command twice produces byte-identical files.  Exit codes: 0 ok, 2 bad
config (a config file that is not UTF-8 JSON, or a walk too large to
allocate) or unwritable output (``--out`` in a missing directory, or an
output path that names an existing directory, is refused before any work),
3 lattice guard violation, 4 verification failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import compiler, walk
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


def _reject_constant(name: str):
    raise ConfigError(f"non-finite number {name} is not allowed")


def load_config(path) -> dict:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as err:
        raise ConfigError(f"cannot read config {path}: {err}") from err
    except UnicodeDecodeError as err:
        raise ConfigError(f"config {path} is not UTF-8 text: {err}") from err
    try:
        cfg = json.loads(text, parse_constant=_reject_constant)
    except ConfigError:
        raise
    except ValueError as err:  # malformed JSON, or an integer past Python's digit limit
        raise ConfigError(f"config {path} is not valid JSON: {err}") from err
    except RecursionError as err:
        raise ConfigError(f"config {path} is nested too deeply: {err}") from err
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    return cfg


def _require(cfg: dict, key: str, kinds, what: str):
    if key not in cfg:
        raise ConfigError(f"missing required key {key!r}")
    value = cfg[key]
    if not isinstance(value, kinds) or isinstance(value, bool):
        raise ConfigError(f"key {key!r} must be {what}, got {value!r}")
    return value


def _number(value, what: str) -> float:
    """A JSON number (int or float; not a boolean, string or null) as a float."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{what} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError as err:
        raise ConfigError(f"{what} is too large for a float") from err


def _parse_coin_state(raw) -> tuple[complex, complex]:
    try:
        (re0, im0), (re1, im1) = raw
        re0, im0, re1, im1 = (_number(v, "coin_state entry") for v in (re0, im0, re1, im1))
        coin = (complex(re0, im0), complex(re1, im1))
    except (TypeError, ValueError) as err:
        raise ConfigError(
            "coin_state must be [[re, im], [re, im]] pairs of numbers"
        ) from err
    if not abs(math.hypot(abs(coin[0]), abs(coin[1])) - 1.0) <= 1e-12:  # also rejects NaN and inf
        raise ConfigError("coin_state must be normalized to 1 within 1e-12")
    return coin


def _angle_column(raw, n: int, key: str, name: str) -> np.ndarray:
    if isinstance(raw, list):
        if len(raw) != n:
            raise ConfigError(f"{name}.{key} must list {n} angles (one per site), got {len(raw)}")
        return np.asarray([_number(v, f"{name}.{key}[{i}]") for i, v in enumerate(raw)])
    return np.full(n, _number(raw, f"{name}.{key}"))


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
    """Validate a config mapping and turn it into a WalkSpec."""
    version = _require(cfg, "schema_version", int, "an integer")
    if version != CONFIG_VERSION:
        raise ConfigError(f"unsupported schema_version {version}; this tool reads {CONFIG_VERSION}")
    kind = _require(cfg, "walk", str, "a string")
    if kind not in _KIND_KEYS:
        raise ConfigError(f"unknown walk {kind!r}; expected one of {sorted(_KIND_KEYS)}")
    allowed = _COMMON_KEYS.union(_KIND_KEYS[kind])
    unknown = set(cfg) - allowed
    if unknown:
        raise ConfigError(f"unknown keys for walk {kind!r}: {sorted(unknown)}")

    steps = _require(cfg, "steps", int, "a non-negative integer")
    half_width = _require(cfg, "half_width", int, "a positive integer")
    if steps < 0 or half_width < 1:
        raise ConfigError("steps must be >= 0 and half_width >= 1")
    start = cfg.get("start", 0)
    if not isinstance(start, int) or isinstance(start, bool):
        raise ConfigError("start must be an integer site")
    coin = _parse_coin_state(cfg["coin_state"]) if "coin_state" in cfg else walk.SYMMETRIC_COIN
    seed = cfg.get("seed")
    if seed is not None and (not isinstance(seed, int) or isinstance(seed, bool)):
        raise ConfigError("seed must be an integer")
    for flag in _FLAG_KEYS:
        if not isinstance(cfg.get(flag, False), bool):
            raise ConfigError(f"{flag} must be true or false, got {cfg[flag]!r}")

    kwargs = dict(coin_state=coin, start=start, seed=seed)
    try:
        for key, field in _KIND_KEYS[kind].items():
            if key in cfg:
                kwargs[field] = (_parse_table(cfg[key], half_width, key) if field in ("table1", "table2")
                                 else _number(cfg[key], f"key {key!r}"))
            elif key not in _OPTIONAL_KEYS:
                raise ConfigError(f"missing required key {key!r}")
        spec = walk.WalkSpec(kind, steps, half_width, **kwargs)
        spec.validate()  # LatticeGuardError, a RuntimeError, propagates to exit code 3
    except ValueError as err:
        raise ConfigError(str(err)) from err
    return spec


def _fmt(value: float) -> str:
    return f"{value:.17g}"


# --- run -------------------------------------------------------------------


def _distribution_rows(t: int, sites: np.ndarray, p: np.ndarray, emit_all_sites: bool):
    for x, v in zip(sites.tolist(), p.tolist()):
        if emit_all_sites or v > 0.0:
            yield f"{t},{x},{_fmt(v)}"


#: Distributions reduced together, ``max(1, _BLOCK_ROWS // S)`` steps of S walks.  Larger
#: blocks save little call overhead and each row costs three lattice-sized float rows.
_BLOCK_ROWS = 16


def _distribution_blocks(specs: list[walk.WalkSpec], sites: np.ndarray):
    """Yield ``(t0, p, means, variances)`` of an ensemble's steps t0..t0+k-1, one block at a time.

    ``p`` (k, S, n) is a buffer zeroed once and reused by every block: each state is written over
    its light cone, which holds every earlier one (:func:`walk.site_probabilities_into`).  Each
    row's moments, shape (k, S), equal a lone distribution's (:func:`walk.site_moments`).
    """
    steps = specs[0].steps
    height = max(1, _BLOCK_ROWS // len(specs))
    buffer = np.zeros((height, len(specs), sites.size))
    states = walk.iterate_ensemble(specs)
    for t0 in range(0, steps + 1, height):
        p = buffer[: min(height, steps + 1 - t0)]
        for t, rows, amps in zip(range(t0, t0 + len(p)), p, states):
            walk.site_probabilities_into(amps, rows, walk.light_cone(specs[0], t))
        yield (t0, p, *walk.site_moments(p, sites))


def run_command(cfg: dict, out_path: str) -> int:
    spec = build_spec(cfg)
    emit_trajectory = cfg.get("emit_trajectory", False)
    emit_all_sites = cfg.get("emit_all_sites", False)

    sites = np.arange(-spec.half_width, spec.half_width + 1)
    partial_sums = np.empty((_BLOCK_ROWS, sites.size))
    lines = ["t,x,P"]
    moments = []
    for t0, p, means, variances in _distribution_blocks([spec], sites):
        rows = p[:, 0]
        # the total is the sequential sum in site order over the block's last
        # cone (np.sum adds pairwise and Python 3.12's sum compensates, so
        # either would change its last digits; the zeros outside add nothing)
        cone = walk.light_cone(spec, t0 + len(rows) - 1)
        totals = np.add.accumulate(rows[:, cone], axis=-1, out=partial_sums[: len(rows), cone])[:, -1]
        for t, row, mean, var, total in zip(range(t0, spec.steps + 1), rows, means[:, 0].tolist(),
                                            variances[:, 0].tolist(), totals.tolist()):
            moments.append({"t": t, "mean": mean, "variance": var, "sigma": math.sqrt(var), "total": total})
            if emit_trajectory or t == spec.steps:
                lines += _distribution_rows(t, sites, row, emit_all_sites)
    _write_text(out_path, "\n".join(lines) + "\n")

    summary = {
        "schema_version": SUMMARY_VERSION,
        "walk": spec.walk_kind,
        "steps": spec.steps,
        "half_width": spec.half_width,
        "moments": moments,
    }
    _write_json(_summary_path(out_path), summary)
    return EXIT_OK


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


#: Parts-list element types.  A record's parameters are its element's
#: dataclass fields, plus the constants below, which document the train and
#: are dropped again on reading (a PDC block's half-waveplate is fixed at 0).
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
    kind = record["element_type"]
    if kind not in _ELEMENT_TYPES:
        raise ConfigError(f"unknown element_type {kind!r} in parts list")
    constants = _CONSTANT_PARAMETERS.get(kind, {})
    return _ELEMENT_TYPES[kind](**{k: v for k, v in record["parameters"].items() if k not in constants})


def _report_to_json(report: VerificationReport) -> dict:
    return {
        "passed": report.passed,
        "fidelity": report.fidelity,
        "phase": report.phase,
        "tol": report.tol,
        "factors": [
            {"description": f.description, "unitarity_defect": f.unitarity_defect}
            for f in report.factors
        ],
    }


def parts_list_document(spec: walk.WalkSpec, one: CompiledStep, report: VerificationReport | None) -> dict:
    """The parts list of a walk whose every step is realized by the train ``one``."""
    block = {
        "phase": one.phase,
        "notes": list(one.notes),
        "elements": [
            element_to_record(el, order, prov)
            for order, (el, prov) in enumerate(zip(one.elements, one.provenance))
        ],
    }
    if report is not None:
        block["verification"] = _report_to_json(report)
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
    if document.get("schema_version") != PARTS_LIST_VERSION:
        raise ConfigError("parts list has an unsupported schema_version")
    steps = []
    for block in document["step_blocks"]:
        records = sorted(block["elements"], key=lambda r: r["order"])
        elements = tuple(element_from_record(r) for r in records)
        provenance = tuple(r["provenance"] for r in records)
        steps.append(CompiledStep(elements, provenance, block["phase"], tuple(block["notes"])))
    return steps


def compile_command(cfg: dict, out_path: str, verify_flag: bool) -> int:
    spec = build_spec(cfg)
    if spec.steps < 1:
        raise ConfigError("compile needs at least one step")
    verify_flag = verify_flag or cfg.get("verify", False)

    spec = spec.resolved()
    # the homogeneous split-step keeps its five-element recipe
    if spec.walk_kind == "ssqw":
        one = compiler.compile_ssqw(walk.coin_matrix(spec.theta1), walk.coin_matrix(spec.theta2))
    else:
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


def _sigma_history(specs: list[walk.WalkSpec], sites: np.ndarray) -> np.ndarray:
    """Spread of each walk of an ensemble at t = 0..T, shape (T+1, S)."""
    return np.sqrt(np.concatenate([variances for *_, variances in _distribution_blocks(specs, sites)]))


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

    seeds = [spec.seed + i for i in range(n_seeds)]
    members = [dataclasses.replace(spec, seed=s) for s in seeds]
    sites = spec.initial_state().sites
    per_seed = _sigma_history(members, sites).T.tolist()
    # averaged over a C-ordered (seeds, steps) array, which fixes the order
    # in which the seeds are summed and so the digits of the mean
    mean = np.mean(np.asarray(per_seed), axis=0).tolist()

    baseline_spec = walk.WalkSpec(
        "dtqw",
        spec.steps,
        spec.half_width,
        coin_state=spec.coin_state,
        start=spec.start,
        theta1=math.pi / 4,
    )
    ballistic = _sigma_history([baseline_spec], sites)[:, 0].tolist()

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


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="oamwalk", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="evolve a walk and write its distribution")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--out", required=True)

    p_compile = sub.add_parser("compile", help="emit the optical parts list")
    p_compile.add_argument("--config", required=True)
    p_compile.add_argument("--out", required=True)
    p_compile.add_argument("--verify", action="store_true",
                           help="certify the train once against the walk's step operator")

    p_verify = sub.add_parser("verify", help="compile with verification forced on")
    p_verify.add_argument("--config", required=True)
    p_verify.add_argument("--out", required=True)

    p_loc = sub.add_parser("localize", help="disorder ensemble spread study")
    p_loc.add_argument("--config", required=True)
    p_loc.add_argument("--seeds", type=int, required=True, metavar="N")
    p_loc.add_argument("--out", required=True)
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
        if args.command == "compile":
            return compile_command(cfg, args.out, args.verify)
        if args.command == "verify":
            return compile_command(cfg, args.out, True)
        if args.command == "localize":
            return localize_command(cfg, args.out, args.seeds)
        raise AssertionError(f"unhandled command {args.command}")
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
