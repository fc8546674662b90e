"""Layer spans recorded by wrapping the public functions of the package.

The wrappers live here, in the benchmark, not in the program: each one
replaces a module attribute or a class method for the duration of a traced
run and records one span per call.  Spans stay in memory and are written
out once, at the end of the run.

Private helpers (``walk._apply_sitewise``, ``cli._write_json``,
``cli._distribution_rows``, ``cli._sigma_history``) are not wrapped; their
time is their caller's self time.  A wrapped call made while a span of the
same name is already open (``walk.spread`` calling ``walk.moments``) is
folded into the outer span, so ``calls`` counts layer entries, not nested
re-entries.
"""

from __future__ import annotations

import functools
import time

import numpy as np

_MARK = "__bench_traced__"


def targets():
    """(span name, owner, attribute) for every wrapped entry point."""
    from oamwalk import cli, compiler, optics, walk

    return [
        ("cli.main", cli, "main"),
        ("cli.config", cli, "load_config"),
        ("cli.config", cli, "build_spec"),
        ("cli.command", cli, "run_command"),
        ("cli.command", cli, "compile_command"),
        ("cli.command", cli, "localize_command"),
        ("cli.parts_list", cli, "parts_list_document"),
        ("walk.resolve", walk.WalkSpec, "resolved"),
        ("walk.coin_table", walk.CoinTable, "matrices"),
        ("walk.step", walk, "step"),
        ("walk.evolve", walk, "evolve"),
        ("walk.probability", walk, "probability"),
        ("walk.moments", walk, "moments"),
        ("walk.moments", walk, "spread"),
        ("walk.step_operator", walk, "step_operator"),
        ("compiler.compile", compiler, "compile_ssqw"),
        ("compiler.compile", compiler, "compile_generalized"),
        ("compiler.verify", compiler, "verify"),
        ("compiler.pdc_lift", compiler.PdcBlock, "lift"),
        ("optics.lift", optics.JPlate, "lift"),
        ("optics.lift", optics.HalfWavePlate, "lift"),
        ("optics.lift", optics.VariableWavePlate, "lift"),
        ("optics.lift", optics, "lift"),
        ("optics.compose", optics, "compose"),
        ("optics.equal_up_to_phase", optics, "equal_up_to_phase"),
        ("optics.unitarity_defect", optics, "unitarity_defect"),
    ]


def installed() -> list[str]:
    """Names of the entry points that currently carry a benchmark wrapper."""
    return [f"{getattr(owner, '__name__', owner)}.{attr}" for _, owner, attr in targets()
            if getattr(getattr(owner, attr), _MARK, False)]


def _dense_products(name: str, args, result) -> int:
    """Dense (dim x dim) complex products implied by one call, from shapes.

    ``optics.compose`` multiplies one lifted element per train entry onto a
    dense accumulator; a rotated ``JPlate`` lift is two more products.  A
    result that is not a square 2-D array counts nothing.
    """
    if not (isinstance(result, np.ndarray) and result.ndim == 2 and result.shape[0] == result.shape[1]):
        return 0
    if name == "optics.compose":
        return len(args[0])
    if name == "optics.lift" and getattr(args[0], "angle", 0.0) != 0.0 and hasattr(args[0], "m_x"):
        return 2
    return 0


class Tracer:
    """Wraps the entry points, records spans and computed counters."""

    def __init__(self):
        self.spans: list[tuple] = []  # (name, start, end, parent index, op id)
        self.counters: dict[tuple[str, int], float] = {}
        self.op_id = -1
        self._stack: list[tuple[int, str]] = []  # open spans: (index, name)
        self._saved: list[tuple] = []

    def _count(self, key: str, amount: float) -> None:
        k = (key, self.op_id)
        self.counters[k] = self.counters.get(k, 0) + amount

    def _wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            if stack and stack[-1][1] == name:
                return fn(*args, **kwargs)
            index = len(tracer.spans)
            tracer.spans.append(None)
            stack.append((index, name))
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans[index] = (name, start, end, stack[-1][0] if stack else -1, tracer.op_id)
            if name == "walk.evolve":
                tracer._count("walk.trajectory_bytes", sum(s.amps.nbytes for s in result))
            products = _dense_products(name, args, result)
            if products:
                dim = result.shape[0]
                tracer._count("optics.dense_flops", 8 * dim**3 * products)
            return result

        setattr(wrapper, _MARK, True)
        return wrapper

    def install(self) -> None:
        for name, owner, attr in targets():
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original))

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        if installed():
            raise RuntimeError(f"benchmark wrappers still installed: {installed()}")


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        covered, reach = 0.0, start
        for c_start, c_end in sorted(children.get(i, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append(end - start - covered)
    return out
