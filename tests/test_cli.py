"""End-to-end tests of the command-line front-end and its file formats."""

import dataclasses
import errno
import importlib.util
import json
import math
import mmap
import os
import random
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from oamwalk import cli, compiler, walk
from oamwalk.cli import main
from oamwalk.optics import HalfWavePlate, compose, equal_up_to_phase

import byte_sweep
from conftest import dense_shift_full, traced_peak
from test_compiler import dense_report
from test_walk import reference_step


@pytest.fixture
def address_space_cap(request):
    """Cap this process's address space for one test, at 1 TiB unless parametrized indirectly.

    An allocation larger than the cap then fails at once under any overcommit
    policy, instead of succeeding lazily and touching memory as it is filled.
    """
    resource = pytest.importorskip("resource")
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    cap = getattr(request, "param", 1 << 40)
    if soft != resource.RLIM_INFINITY and soft <= cap:
        yield
        return
    resource.setrlimit(resource.RLIMIT_AS, (cap, hard))
    try:
        yield
    finally:
        resource.setrlimit(resource.RLIMIT_AS, (soft, hard))


def write_config(tmp_path, name="config.json", **overrides):
    cfg = {
        "schema_version": 1,
        "walk": "dtqw",
        "steps": 1,
        "half_width": 8,
        "theta": math.pi / 4,
    }
    cfg.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


class TestRun:
    def test_single_step_rows(self, tmp_path):
        cfg = write_config(tmp_path, coin_state=[[1.0, 0.0], [0.0, 0.0]])
        out = tmp_path / "dist.csv"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "t,x,P" and len(lines) == 3
        (t1, x1, p1), (t2, x2, p2) = (line.split(",") for line in lines[1:])
        assert (t1, x1) == ("1", "-1") and (t2, x2) == ("1", "1")
        assert float(p1) == pytest.approx(0.5, abs=1e-15)
        assert float(p2) == pytest.approx(0.5, abs=1e-15)

    def test_zero_steps_single_row(self, tmp_path):
        cfg = write_config(tmp_path, steps=0, start=2, coin_state=[[1.0, 0.0], [0.0, 0.0]])
        out = tmp_path / "dist.csv"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        assert out.read_text() == "t,x,P\n0,2,1\n"

    def test_summary_moments(self, tmp_path):
        cfg = write_config(tmp_path, steps=6)
        out = tmp_path / "dist.csv"
        main(["run", "--config", str(cfg), "--out", str(out)])
        summary = json.loads((tmp_path / "dist.summary.json").read_text())
        assert len(summary["moments"]) == 7
        for row in summary["moments"]:
            assert row["total"] == pytest.approx(1.0, abs=1e-10)
        assert summary["moments"][0]["variance"] == 0.0

    def test_trajectory_flag_emits_all_steps(self, tmp_path):
        cfg = write_config(tmp_path, steps=2, emit_trajectory=True)
        out = tmp_path / "dist.csv"
        main(["run", "--config", str(cfg), "--out", str(out)])
        times = {line.split(",")[0] for line in out.read_text().splitlines()[1:]}
        assert times == {"0", "1", "2"}

    def test_all_sites_flag_includes_zeros(self, tmp_path):
        base = write_config(tmp_path, "a.json")
        full = write_config(tmp_path, "b.json", emit_all_sites=True)
        out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["run", "--config", str(base), "--out", str(out_a)])
        main(["run", "--config", str(full), "--out", str(out_b)])
        assert len(out_b.read_text().splitlines()) == 1 + 17
        assert len(out_a.read_text().splitlines()) < 1 + 17

    def test_byte_identical_reruns(self, tmp_path):
        raw = {
            "schema_version": 1,
            "walk": "generalized",
            "steps": 8,
            "half_width": 12,
            "seed": 41,
            "emit_trajectory": True,
        }
        cfg = tmp_path / "gen.json"
        cfg.write_text(json.dumps(raw))
        out1, out2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
        main(["run", "--config", str(cfg), "--out", str(out1)])
        main(["run", "--config", str(cfg), "--out", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()
        assert (tmp_path / "r1.summary.json").read_bytes() == (tmp_path / "r2.summary.json").read_bytes()

    def test_probability_rows_sum_to_one(self, tmp_path):
        cfg = write_config(tmp_path, steps=9, half_width=12, emit_trajectory=True)
        out = tmp_path / "dist.csv"
        main(["run", "--config", str(cfg), "--out", str(out)])
        sums = {}
        for line in out.read_text().splitlines()[1:]:
            t, _, p = line.split(",")
            sums[t] = sums.get(t, 0.0) + float(p)
        assert all(abs(v - 1.0) < 1e-10 for v in sums.values())

    def test_electric_walk_config(self, tmp_path):
        raw = {
            "schema_version": 1,
            "walk": "electric-dtqw",
            "steps": 4,
            "half_width": 8,
            "theta": math.pi / 4,
            "phi_e": 0.9,
        }
        cfg = tmp_path / "el.json"
        cfg.write_text(json.dumps(raw))
        out = tmp_path / "el.csv"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        summary = json.loads((tmp_path / "el.summary.json").read_text())
        assert summary["walk"] == "electric-dtqw"
        assert summary["moments"][-1]["total"] == pytest.approx(1.0, abs=1e-12)


    @pytest.mark.parametrize("emit_trajectory", [False, True])
    @pytest.mark.parametrize("emit_all_sites", [False, True])
    def test_documents_equal_trajectory_reductions(self, tmp_path, emit_trajectory, emit_all_sites):
        raw = {
            "schema_version": 1,
            "walk": "generalized",
            "steps": 9,
            "half_width": 13,
            "start": 2,
            "seed": 8,
            "emit_trajectory": emit_trajectory,
            "emit_all_sites": emit_all_sites,
        }
        assert_run_documents_equal_reference(tmp_path, raw)

    @pytest.mark.parametrize("emit_trajectory", [False, True])
    @pytest.mark.parametrize("emit_all_sites", [False, True])
    @pytest.mark.parametrize(
        "kind_keys",
        [
            {"walk": "dtqw", "theta": 0.61, "start": -3},
            {"walk": "ssqw", "theta1": 0.9, "theta2": -0.4},
            {"walk": "electric-dtqw", "theta": 0.5, "phi_e": 0.37, "start": 1},
            {
                "walk": "generalized",
                "start": 2,
                "table1": {"chi": 0.3, "xi": [0.01 * i - 0.1 for i in range(29)], "eta": -0.2, "theta": 0.8},
                "table2": {"chi": [0.02 * i for i in range(29)], "xi": 0.4, "eta": 0.15, "theta": -0.6},
            },
        ],
        ids=["dtqw", "ssqw", "electric-dtqw", "generalized"],
    )
    def test_documents_equal_evolve_reference(self, tmp_path, kind_keys, emit_trajectory, emit_all_sites):
        raw = {
            "schema_version": 1,
            "steps": 9,
            "half_width": 14,
            "emit_trajectory": emit_trajectory,
            "emit_all_sites": emit_all_sites,
            **kind_keys,
        }
        assert_run_documents_equal_reference(tmp_path, raw)

    @pytest.mark.parametrize("steps", [0, 1, 14, 15, 16, 17, 31, 32, 33])
    @pytest.mark.parametrize("emit_trajectory", [False, True])
    @pytest.mark.parametrize(
        "kind_keys",
        [
            {"walk": "dtqw", "theta": 0.61, "start": -2},
            {"walk": "ssqw", "theta1": 0.9, "theta2": -0.4},
            {"walk": "electric-dtqw", "theta": 0.5, "phi_e": 0.37, "start": 1},
            {"walk": "generalized", "seed": 8, "start": 2},
        ],
        ids=["dtqw", "ssqw", "electric-dtqw", "generalized"],
    )
    def test_documents_equal_reference_across_block_boundaries(self, tmp_path, kind_keys, emit_trajectory, steps):
        """T + 1 states that fill the 16-row reduction blocks exactly, or leave 1, 2 or 15 rows over."""
        raw = {
            "schema_version": 1,
            "steps": steps,
            "half_width": 37,
            "emit_trajectory": emit_trajectory,
            "emit_all_sites": False,
            **kind_keys,
        }
        assert_run_documents_equal_reference(tmp_path, raw)

    def test_peak_memory_is_a_few_states(self, tmp_path):
        """The reduction buffers cost a bounded number of (2, n) states.

        Measured peaks at half_width 1024, 200 steps: 17.1 states with the
        16-step blocks, 6.5 with every state reduced alone, 29.0 with 32-step
        and 52.9 with 64-step blocks.  The benchmark gates peak RSS; an
        oversized block shows here first.
        """
        half_width = 1024
        state_bytes = 2 * (2 * half_width + 1) * 16
        raw = {"schema_version": 1, "walk": "ssqw", "steps": 200, "half_width": half_width,
               "theta1": 0.9, "theta2": -0.4}
        cli.run_command(raw, str(tmp_path / "warm.csv"))  # one-time imports and caches
        code, peak = traced_peak(cli.run_command, raw, str(tmp_path / "m.csv"))
        assert code == 0
        assert peak < 24 * state_bytes

    def test_peak_memory_does_not_grow_with_steps(self, tmp_path):
        half_width, steps = 1200, 60
        state_bytes = 2 * (2 * half_width + 1) * 16

        def peak(n_steps):
            cfg = ssqw_config(tmp_path, steps=n_steps, half_width=half_width)
            code, traced = traced_peak(main, ["run", "--config", str(cfg), "--out", str(tmp_path / f"m{n_steps}.csv")])
            assert code == 0
            return traced

        peak(steps)  # first run pays the one-time imports and caches
        growth = peak(2 * steps) - peak(steps)
        # a stored trajectory would add steps * state_bytes (4.6 MB here)
        assert growth < 0.1 * steps * state_bytes


def assert_run_documents_equal_reference(tmp_path, raw):
    """``run``'s CSV and summary equal, byte for byte, documents built from ``walk.evolve``.

    The reference reduces each state through the mapping views and takes the
    total as an explicit left-to-right sum in site order, which is what the
    summary promises on every Python version.
    """
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(raw))
    out = tmp_path / "dist.csv"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0

    traj = walk.evolve(cli.build_spec(raw))
    lines = ["t,x,P"]
    moments = []
    for t, state in enumerate(traj):
        p = walk.probability(state)
        mean, var = walk.moments(p)
        total = 0.0
        for x in sorted(p):
            total += p[x]
        moments.append({"t": t, "mean": mean, "variance": var, "sigma": math.sqrt(var), "total": total})
        if raw["emit_trajectory"] or t == len(traj) - 1:
            lines += [f"{t},{x},{p[x]:.17g}" for x in sorted(p) if raw["emit_all_sites"] or p[x] > 0.0]
    summary = {"schema_version": 1, "walk": raw["walk"], "steps": raw["steps"], "half_width": raw["half_width"],
               "moments": moments}
    assert out.read_text() == "\n".join(lines) + "\n"
    assert (tmp_path / "dist.summary.json").read_text() == json.dumps(summary, indent=2, sort_keys=True) + "\n"


DTQW = {"schema_version": 1, "walk": "dtqw", "steps": 1, "half_width": 8, "theta": 0.7}
GENERALIZED = {"schema_version": 1, "walk": "generalized", "steps": 2, "half_width": 4, "seed": 3}
#: The kind keys of a walk that plain ``compile`` builds from PDC blocks: every kind but ssqw.
PDC_KIND_KEYS = [{"walk": "generalized", "seed": 1}, {"walk": "dtqw", "theta": 0.7},
                 {"walk": "electric-dtqw", "theta": 0.7, "phi_e": 0.5}]


class TestValidatedWalksRunUnguarded:
    def test_no_configured_walk_checks_the_guard(self, tmp_path, monkeypatch):
        """Validation alone keeps configured walks on the lattice, so the ensemble path never guards.

        Every lattice is the smallest validation accepts, so the last light
        cones reach the 2-site margin.
        """
        def refuse(*args):
            raise AssertionError("a validated walk checked the lattice guard")

        monkeypatch.setattr(walk, "_guard_check", refuse)
        kinds = [walk.WalkSpec("dtqw", 7, 10, start=-1), walk.WalkSpec("ssqw", 7, 12, start=3, theta2=0.4),
                 walk.WalkSpec("generalized", 7, 9, seed=3), walk.WalkSpec("electric-dtqw", 7, 9, phi_e=0.5)]
        for spec in kinds:
            assert spec.half_width == spec.required_half_width()
            assert len(walk.evolve(spec)) == spec.steps + 1
        members = [dataclasses.replace(kinds[2], seed=s) for s in range(3)]
        assert len(list(walk.iterate_ensemble(members))) == 8
        assert sum(len(p) for _, p, *_ in walk.distribution_blocks(members)) == 8

        run_cfg = write_config(tmp_path, "run.json", steps=7, half_width=11, start=2, emit_trajectory=True)
        assert main(["run", "--config", str(run_cfg), "--out", str(tmp_path / "run.csv")]) == 0
        loc_cfg = tmp_path / "localize.json"
        loc_cfg.write_text(json.dumps({**GENERALIZED, "steps": 7, "half_width": 10, "start": -1}))
        assert main(["localize", "--config", str(loc_cfg), "--out", str(tmp_path / "loc.json"), "--seeds", "3"]) == 0


class TestConfigValidation:
    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, lattice=5)
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "x.csv")]) == 2
        assert "unknown keys" in capsys.readouterr().err

    def test_wrong_schema_version(self, tmp_path):
        cfg = write_config(tmp_path, schema_version=2)
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "x.csv")]) == 2

    def test_missing_theta(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"schema_version": 1, "walk": "dtqw", "steps": 1, "half_width": 8}))
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "x.csv")]) == 2

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text("{not json")
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "x.csv")]) == 2

    @pytest.mark.parametrize("text, key", [
        ('{"schema_version": 1, "walk": "ssqw", "steps": 1, "half_width": 8, '
         '"theta1": "bad", "theta2": 0.2, "theta1": 0.3}', "theta1"),
        ('{"schema_version": 1, "walk": "generalized", "steps": 1, "half_width": 4, "seed": 1, '
         '"table1": {"theta": 0.1, "xi": 0.0, "theta": 0.2}}', "theta"),
    ], ids=["top-level", "table1"])
    def test_repeated_key_rejected(self, tmp_path, capsys, text, key):
        # json keeps a repeated key's last value, so without the check either order of the values would run
        path = tmp_path / "c.json"
        path.write_text(text)
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "x.csv")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and f"it repeats key {key!r}" in err and "Traceback" not in err

    def test_unnormalized_coin(self, tmp_path):
        cfg = write_config(tmp_path, coin_state=[[1.0, 0.0], [1.0, 0.0]])
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "x.csv")]) == 2

    @pytest.mark.parametrize("coin_state", [[[1, 0]], [1, 0, 0, 0], [[1, 0], [0, 0, 0]], [[1, 0], 0], "ab",
                                            ["ab", "cd"], {"ab": 1, "cd": 2}, [[1, 0], {"a": 0, "b": 0}]])
    def test_coin_state_must_be_two_pairs(self, coin_state):
        # strings and objects unpack into pairs too; the reader names the shape, not a character or a key
        raw = {"schema_version": 1, "walk": "dtqw", "steps": 1, "half_width": 8, "theta": 0.7, "coin_state": coin_state}
        with pytest.raises(cli.ConfigError, match=r"coin_state must be \[\[re, im\], \[re, im\]\] pairs of numbers"):
            cli.build_spec(raw)

    @pytest.mark.parametrize("entry", [math.nan, math.inf, -math.inf])
    def test_non_finite_coin_state_is_a_config_error(self, entry):
        raw = {"schema_version": 1, "walk": "dtqw", "steps": 1, "half_width": 8, "theta": 0.7,
               "coin_state": [[1.0, 0.0], [0.0, entry]]}
        with pytest.raises(cli.ConfigError, match=r"coin_state\[1\]\[1\] must be a finite real number"):
            cli.build_spec(raw)

    def test_guard_violation_names_required_half_width(self, tmp_path, capsys):
        cfg = write_config(tmp_path, steps=20, half_width=10)
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "x.csv")]) == 3
        assert "half_width >= 22" in capsys.readouterr().err

    def test_random_tables_need_seed(self, tmp_path):
        cfg = write_config(tmp_path, walk="generalized", table1="random", table2="random")
        del_keys = {"theta"}
        raw = json.loads(cfg.read_text())
        for k in del_keys:
            raw.pop(k)
        cfg.write_text(json.dumps(raw))
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "x.csv")]) == 2

    def test_table_length_checked(self, tmp_path):
        raw = {
            "schema_version": 1,
            "walk": "generalized",
            "steps": 1,
            "half_width": 4,
            "table1": {"theta": [0.1, 0.2]},
            "table2": "random",
            "seed": 3,
        }
        path = tmp_path / "c.json"
        path.write_text(json.dumps(raw))
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "x.csv")]) == 2

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "1e999"])
    def test_non_finite_numbers_rejected(self, tmp_path, capsys, literal):
        path = tmp_path / "c.json"
        path.write_text(
            '{"schema_version": 1, "walk": "ssqw", "steps": 3, "half_width": 8, '
            f'"theta1": {literal}, "theta2": 0.2}}'
        )
        out = tmp_path / "x.csv"
        assert main(["run", "--config", str(path), "--out", str(out)]) == 2
        assert "config error" in capsys.readouterr().err
        assert not out.exists()

    def test_non_finite_table_angle_rejected(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(
            '{"schema_version": 1, "walk": "generalized", "steps": 1, "half_width": 2, '
            '"table1": {"theta": [0, 0, 1e999, 0, 0]}, "table2": "random", "seed": 3}'
        )
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "x.csv")]) == 2

    @pytest.mark.parametrize(
        "kind, overrides",
        [
            ("ssqw", {"coin_state": [["nan", 0], [1, 0]]}),
            ("ssqw", {"coin_state": [[True, "0"], [False, 0]]}),
            ("ssqw", {"coin_state": [[1, None], [0, 0]]}),
            ("ssqw", {"coin_state": [[10**400, 0], [0, 0]]}),
            ("ssqw", {"theta1": 10**400}),
            ("electric-dtqw", {"phi_e": 10**400}),
            ("generalized", {"table1": {"theta": ["0.1", True, 0, 0, 0]}}),
            ("generalized", {"table1": {"chi": [0, 0, False, 0, 0]}}),
            ("generalized", {"table2": {"eta": "0.2"}}),
            ("generalized", {"table2": {"xi": None}}),
            ("generalized", {"table1": {"theta": [0, 0, 10**400, 0, 0]}}),
            ("ssqw", {"theta2": math.nan}),
            ("electric-dtqw", {"theta": True}),
            ("electric-dtqw", {"phi_e": -math.inf}),
            ("generalized", {"table1": {"eta": [0, math.inf, 0, 0, 0]}}),
            ("generalized", {"table2": {"chi": math.nan}}),
        ],
    )
    def test_numbers_must_be_json_numbers(self, tmp_path, capsys, kind, overrides):
        """Strings, booleans, null, NaN, infinities and integers past a float are config errors naming the key."""
        base = {"ssqw": {"theta1": 0.7, "theta2": -0.3}, "electric-dtqw": {"theta": 0.5}, "generalized": {"seed": 3}}
        raw = {"schema_version": 1, "walk": kind, "steps": 1, "half_width": 2, **base[kind], **overrides}
        path = tmp_path / "c.json"
        path.write_text(json.dumps(raw))
        out = tmp_path / "x.csv"
        assert main(["run", "--config", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "Traceback" not in err
        assert "must be a finite real number" in err and next(iter(overrides)) in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "overrides, named",
        [
            ({"coin_state": [[1, 0], [None, 0]]}, "coin_state[1][0]"),
            ({"theta1": "0.7"}, "key 'theta1'"),
            ({"walk": "generalized", "table1": {"chi": [0, 0, 0, 0, math.inf]}, "table2": {"xi": False}},
             "table1.chi[4]"),
            ({"walk": "generalized", "table1": "random", "table2": {"xi": False}}, "table2.xi"),
        ],
    )
    def test_bad_number_error_names_its_entry(self, overrides, named):
        raw = {"schema_version": 1, "walk": "ssqw", "steps": 1, "half_width": 2, "seed": 3,
               "theta1": 0.7, "theta2": -0.3, **overrides}
        if raw["walk"] == "generalized":
            del raw["theta1"], raw["theta2"]
        with pytest.raises(cli.ConfigError, match=rf"^{re.escape(named)} must be a finite real number, got "):
            cli.build_spec(raw)

    @pytest.mark.parametrize("command", [["run"], ["compile"], ["localize", "--seeds", "2"]])
    def test_negative_seed_is_a_config_error(self, tmp_path, capsys, command):
        cfg = write_config(tmp_path, walk="generalized", seed=-1)
        raw = json.loads(cfg.read_text())
        raw.pop("theta")
        cfg.write_text(json.dumps(raw))
        out = tmp_path / "x.out"
        assert main(command + ["--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "seed must be at least 0, got -1" in err
        assert not out.exists()

    def test_integer_beyond_conversion_limit_is_a_config_error(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        path.write_text('{"schema_version": 1, "walk": "dtqw", "steps": 1, "half_width": 8, "theta": 1' + "0" * 5000 + "}")
        out = tmp_path / "x.csv"
        assert main(["run", "--config", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "not valid JSON" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("text", ["[" * 200000 + "]" * 200000, '{"a": ' * 5000 + "1" + "}" * 5000],
                             ids=["array", "key"])
    def test_deeply_nested_config_is_a_config_error(self, tmp_path, capsys, text):
        path = tmp_path / "c.json"
        path.write_text(text)
        out = tmp_path / "x.csv"
        assert main(["run", "--config", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "nested too deeply" in err and "Traceback" not in err
        assert not out.exists()

    def test_non_utf8_config_is_a_config_error(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        path.write_bytes(b"\xff\xfe" + json.dumps({"schema_version": 1}).encode("utf-16-le"))
        out = tmp_path / "x.csv"
        assert main(["run", "--config", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "not UTF-8" in err and "Traceback" not in err
        assert not out.exists()

    def test_lattice_too_large_to_allocate_is_a_config_error(self, tmp_path, capsys, address_space_cap):
        cfg = write_config(tmp_path, steps=0, half_width=10**12)
        out = tmp_path / "x.csv"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "too large to allocate" in err
        assert str(2 * 10**12 + 1) in err  # numpy's message names the array shape
        assert not out.exists()

    # 16 GiB: a lattice-sized table at half-width 2**31 (32 GiB) fails at once if anything builds one
    @pytest.mark.parametrize("address_space_cap", [16 << 30], indirect=True, ids=["16GiB"])
    @pytest.mark.parametrize("command, kind_keys, half_width, nbytes", [
        *((["run"], PDC_KIND_KEYS[0], hw, lambda n: 16 * n * 8) for hw in (10**30, 2**62)),
        *((["compile", "--verify"], PDC_KIND_KEYS[0], hw, lambda n: (2 * n) ** 2 * 16) for hw in (10**30, 2**62, 2**31)),
        *((["compile"], PDC_KIND_KEYS[0], hw, lambda n: n * 2 * 2 * 16) for hw in (10**30, 2**62)),
        *((["localize", "--seeds", "2"], PDC_KIND_KEYS[0], hw, lambda n: 2 * 2 * 2 * n * 16) for hw in (10**30, 2**62)),
        *((["compile"], keys, 10**30, lambda n: n * 2 * 2 * 16) for keys in PDC_KIND_KEYS[1:]),
    ], ids=["run-1e30", "run-2pow62", "compile-1e30", "compile-2pow62", "compile-2pow31", "compile-plain-1e30",
            "compile-plain-2pow62", "localize-1e30", "localize-2pow62", "compile-plain-dtqw-1e30",
            "compile-plain-electric-dtqw-1e30"])
    def test_unaddressable_lattice_is_refused_before_allocation(self, tmp_path, capsys, address_space_cap,
                                                                 command, kind_keys, half_width, nbytes):
        # the largest array (float blocks, dense operator, PDC fields, coin stacks) is sized before any is built
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"schema_version": 1, **kind_keys, "steps": 1, "half_width": half_width}))
        code, peak = traced_peak(main, command + ["--config", str(cfg), "--out", str(tmp_path / "x.out")])
        assert code == 2
        err = capsys.readouterr().err
        assert "config error" in err and "too large to allocate" in err and "Traceback" not in err
        assert f"{nbytes(2 * half_width + 1)} bytes" in err
        assert peak < 1 << 20
        assert [p.name for p in tmp_path.iterdir()] == ["c.json"]

    @pytest.mark.parametrize("address_space_cap", [16 << 30], indirect=True, ids=["16GiB"])
    def test_ssqw_compiles_at_an_unaddressable_lattice(self, tmp_path, address_space_cap):
        """The split-step recipe builds no per-site element, so plain ``compile`` needs no lattice-sized array."""
        cfg = ssqw_config(tmp_path, steps=1, half_width=10**30)
        out = tmp_path / "parts.json"
        code, peak = traced_peak(main, ["compile", "--config", str(cfg), "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["half_width"] == 10**30 and doc["verified"] is False
        assert len(cli.parse_parts_list(doc)[0].elements) == 5
        assert peak < 1 << 20

    @pytest.mark.parametrize("command, raw, message", [
        (["run"], None, "cannot read config"),
        (["run"], [], "config root must be a JSON object"),
        (["run"], {"walk": "dtqw", "steps": 1, "half_width": 8, "theta": 0.7},
         "config must be a JSON object with key 'schema_version'"),
        (["run"], {**DTQW, "schema_version": "1"}, "config key 'schema_version' must be of type int, got '1'"),
        (["run"], {**DTQW, "walk": "foo"}, "unknown walk 'foo'"),
        (["run"], {**DTQW, "start": 1.5}, "start must be an integer, got 1.5"),
        (["run"], {**DTQW, "seed": "x"}, "seed must be an integer"),
        (["run"], {**DTQW, "steps": -1}, "steps must be at least 0, got -1"),
        (["run"], {**DTQW, "half_width": 0}, "half_width must be at least 1, got 0"),
        (["run"], {**GENERALIZED, "table1": [0.1]}, 'table1 must be "random" or an object'),
        (["run"], {**GENERALIZED, "table1": {"foo": 0.1}}, "unknown keys in table1"),
        (["localize", "--seeds", "0"], GENERALIZED, "ensemble size must be >= 1"),
        (["localize", "--seeds", "-3"], GENERALIZED, "ensemble size must be >= 1"),
        (["localize", "--seeds", "2"], {**GENERALIZED, "steps": 0}, "localize needs at least one step"),
        (["compile"], {**GENERALIZED, "steps": 0}, "compile needs at least one step"),
        (["localize", "--seeds", "2"], {"schema_version": 1, "walk": "generalized", "steps": 2, "half_width": 4,
                                        "table1": {"theta": 0.1}, "table2": {"theta": 0.2}}, "localize needs a seed"),
    ], ids=["missing-file", "array-root", "no-schema-version", "string-schema-version", "unknown-walk",
            "fractional-start", "string-seed", "negative-steps", "zero-half-width", "table-list",
            "table-unknown-key", "zero-seeds", "negative-seeds", "localize-zero-steps", "compile-zero-steps",
            "localize-explicit-tables-no-seed"])
    def test_bad_config_exits_2_with_its_message(self, tmp_path, capsys, command, raw, message):
        cfg = tmp_path / "c.json"
        if raw is not None:
            cfg.write_text(json.dumps(raw))
        out = tmp_path / "x.out"
        assert main(command + ["--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and message in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["emit_trajectory", "emit_all_sites", "verify"])
    @pytest.mark.parametrize("value", ["false", 0, 1, None])
    def test_flags_must_be_booleans(self, tmp_path, capsys, flag, value):
        cfg = ssqw_config(tmp_path, **{flag: value})
        for command in (["run"], ["compile"]):
            assert main(command + ["--config", str(cfg), "--out", str(tmp_path / "x.out")]) == 2
            assert f"{flag} must be true or false" in capsys.readouterr().err


#: Each kind's angles, table entries and coin_state, spelled as JSON integers.
INTEGER_SPELLED = {
    "dtqw": {"walk": "dtqw", "theta": 1, "coin_state": [[0, 1], [0, 0]]},
    "ssqw": {"walk": "ssqw", "theta1": 1, "theta2": -1, "coin_state": [[1, 0], [0, 0]]},
    "electric-dtqw": {"walk": "electric-dtqw", "theta": 1, "phi_e": 2},
    "generalized": {"walk": "generalized", "table2": "random",
                    "table1": {"chi": 1, "xi": [i % 3 - 1 for i in range(23)], "eta": 0, "theta": list(range(23))}},
}


def float_spelled(value):
    """``value`` with every integer in it spelled as a float."""
    if isinstance(value, dict):
        return {k: float_spelled(v) for k, v in value.items()}
    if isinstance(value, list):
        return [float_spelled(v) for v in value]
    return float(value) if isinstance(value, int) else value


class TestNumbersKeptAsGiven:
    @pytest.mark.parametrize("kind", INTEGER_SPELLED)
    def test_integer_spelling_writes_the_float_spelling_bytes(self, tmp_path, kind):
        """The reader passes numbers on as given; an integer angle writes what its float writes."""
        commands = [["run"], ["compile", "--verify"]] + [["localize", "--seeds", "2"]] * (kind == "generalized")
        outputs = {}
        for spelling, keys in (("int", INTEGER_SPELLED[kind]), ("float", float_spelled(INTEGER_SPELLED[kind]))):
            directory = tmp_path / spelling
            directory.mkdir()
            cfg = directory / "c.json"
            cfg.write_text(json.dumps({"schema_version": 1, "steps": 9, "half_width": 11, "seed": 5,
                                       "emit_trajectory": True, **keys}))
            for command in commands:
                assert main(command + ["--config", str(cfg), "--out", str(directory / f"{command[0]}.out")]) == 0
            outputs[spelling] = {p.name: p.read_bytes() for p in directory.iterdir() if p != cfg}
        assert set(outputs["int"]) == {f"{c[0]}.out" for c in commands} | {"run.summary.json"}
        assert outputs["int"] == outputs["float"]


def ssqw_config(tmp_path, **overrides):
    raw = {
        "schema_version": 1,
        "walk": "ssqw",
        "steps": 2,
        "half_width": 6,
        "theta1": 0.7,
        "theta2": -0.3,
    }
    raw.update(overrides)
    path = tmp_path / "ssqw.json"
    path.write_text(json.dumps(raw))
    return path


def pdc_record(**changes) -> dict:
    """A one-site ``pdc_block`` record, with ``changes`` made to its parameters."""
    params = {"lattice_min": 0, "hwp_angle": 0.0, "q2": [[0.0, 0.0, 0.0]], "q1": [[0.0, math.pi, 0.0]], **changes}
    return {"order": 0, "element_type": "pdc_block", "parameters": params, "provenance": "p"}


def parts_list(order=0, provenance="p", phase=0.0, notes=(), steps=(0,)) -> dict:
    """A parts list of two half-waveplates, the first with the given ``order`` and ``provenance``, in one
    step block per entry of ``steps``, its ``step`` number (None leaves the key out)."""
    records = [{"order": order, "element_type": "half_waveplate", "parameters": {"angle": 0.1}, "provenance": provenance},
               {"order": 1, "element_type": "half_waveplate", "parameters": {"angle": 0.2}, "provenance": "q"}]
    block = {"phase": phase, "notes": list(notes), "elements": records}
    return {"schema_version": 1, "step_count": len(steps),
            "step_blocks": [block if step is None else {"step": step, **block} for step in steps]}


class TestCompile:
    def test_parts_list_shape(self, tmp_path):
        cfg = ssqw_config(tmp_path)
        out = tmp_path / "parts.json"
        assert main(["compile", "--config", str(cfg), "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["step_count"] == 2 and len(doc["step_blocks"]) == 2
        for block in doc["step_blocks"]:
            assert [r["order"] for r in block["elements"]] == [0, 1, 2, 3, 4]
            kinds = [r["element_type"] for r in block["elements"]]
            assert kinds == [
                "variable_waveplate",
                "jplate",
                "variable_waveplate",
                "half_waveplate",
                "jplate",
            ]
            assert all("provenance" in r for r in block["elements"])
        assert doc["verified"] is False

    def test_verify_toggle_records_fidelity(self, tmp_path):
        cfg = ssqw_config(tmp_path)
        out = tmp_path / "parts.json"
        assert main(["compile", "--config", str(cfg), "--out", str(out), "--verify"]) == 0
        doc = json.loads(out.read_text())
        assert doc["verified"] is True
        for block in doc["step_blocks"]:
            v = block["verification"]
            assert v["passed"] and v["fidelity"] >= 1 - 1e-10
            assert len(v["factors"]) == 5

    def test_parts_list_memory_does_not_grow_with_the_step_count(self, tmp_path):
        """The repeated step block is encoded once and written step by step, so plain ``compile``'s traced
        peak on one lattice is about the same at T = 200 and T = 800."""
        peaks = []
        for steps in (200, 800):
            cfg = ssqw_config(tmp_path, steps=steps, half_width=802)
            argv = ["compile", "--config", str(cfg), "--out", str(tmp_path / "parts.json")]
            assert main(argv) == 0  # one-time imports and caches
            code, peak = traced_peak(main, argv)
            assert code == 0
            peaks.append(peak)
        assert peaks[1] < 1.5 * peaks[0], peaks

    def test_unnamed_element_is_rejected(self):
        """Elements pair with their provenance one to one, as in ``compiler.verify``; none is dropped."""
        one = compiler.CompiledStep((HalfWavePlate(0.0), HalfWavePlate(0.3)), ("only one name",), 0.0)
        with pytest.raises(ValueError):
            cli.parts_list_document(walk.WalkSpec("ssqw", 1, 3), one, None)

    @pytest.mark.parametrize("kind_keys", [
        {"walk": "dtqw", "theta": 0.61},
        {"walk": "ssqw", "theta1": 0.9, "theta2": -0.4},
        {"walk": "electric-dtqw", "theta": 0.5, "phi_e": 0.37},
        {"walk": "generalized", "seed": 5},
    ], ids=["dtqw", "ssqw", "electric-dtqw", "generalized"])
    def test_verify_holds_two_dense_matrices(self, tmp_path, kind_keys):
        """The placed fold and the reference are the only dense matrices; the residual is taken in row blocks."""
        L = 128
        dense_bytes = (2 * (2 * L + 1)) ** 2 * 16
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"schema_version": 1, "steps": 2, "half_width": L, **kind_keys}))
        argv = ["compile", "--verify", "--config", str(cfg), "--out", str(tmp_path / "parts.json")]
        assert main(argv) == 0  # one-time imports and caches
        code, peak = traced_peak(main, argv)
        assert code == 0
        assert peak <= 2.25 * dense_bytes

    @pytest.mark.parametrize("kind_keys", [
        {"walk": "dtqw", "theta": 0.61},
        {"walk": "ssqw", "theta1": 0.9, "theta2": -0.4},
        {"walk": "electric-dtqw", "theta": 0.5, "phi_e": 0.37},
        {"walk": "generalized", "seed": 5},
    ], ids=["dtqw", "ssqw", "electric-dtqw", "generalized"])
    def test_verify_subcommand_equals_forced_toggle(self, tmp_path, kind_keys):
        """``verify``, ``compile --verify`` and ``compile`` of a config with ``"verify": true`` write the same bytes."""
        raw = {"schema_version": 1, "steps": 2, "half_width": 6, **kind_keys}
        cfg, forced = tmp_path / "c.json", tmp_path / "forced.json"
        cfg.write_text(json.dumps(raw))
        forced.write_text(json.dumps({**raw, "verify": True}))
        outputs = [tmp_path / f"{name}.json" for name in ("flag", "alias", "key")]
        for argv, out in zip([["compile", "--verify", "--config", str(cfg)], ["verify", "--config", str(cfg)],
                              ["compile", "--config", str(forced)]], outputs):
            assert main([*argv, "--out", str(out)]) == 0
        assert json.loads(outputs[0].read_text())["verified"] is True
        assert outputs[0].read_bytes() == outputs[1].read_bytes() == outputs[2].read_bytes()

    def test_help_names_each_argument_and_verify_takes_no_flag(self, tmp_path, capsys):
        for command, arguments in [("run", {"--config", "--out"}), ("compile", {"--config", "--out", "--verify"}),
                                   ("verify", {"--config", "--out"}), ("localize", {"--config", "--out", "--seeds"})]:
            with pytest.raises(SystemExit) as exit_info:
                main([command, "--help"])
            assert exit_info.value.code == 0
            assert set(re.findall(r"--[a-z]+", capsys.readouterr().out)) == arguments | {"--help"}, command
        with pytest.raises(SystemExit) as exit_info:
            main(["verify", "--verify", "--config", str(ssqw_config(tmp_path)), "--out", str(tmp_path / "p.json")])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --verify" in capsys.readouterr().err

    def test_identity_coins_compile_to_full_shift(self, tmp_path):
        cfg = ssqw_config(tmp_path, theta1=0.0, theta2=0.0, steps=1)
        out = tmp_path / "parts.json"
        main(["compile", "--config", str(cfg), "--out", str(out)])
        steps = cli.parse_parts_list(json.loads(out.read_text()))
        m = equal_up_to_phase(compose(steps[0].elements, 6), dense_shift_full(6))
        assert m.match

    def test_round_trip_reproduces_fidelity(self, tmp_path):
        cfg = ssqw_config(tmp_path, steps=1)
        out = tmp_path / "parts.json"
        main(["compile", "--config", str(cfg), "--out", str(out), "--verify"])
        doc = json.loads(out.read_text())
        steps = cli.parse_parts_list(doc)
        spec = cli.build_spec(json.loads(cfg.read_text()))
        rep = compiler.verify(steps[0], walk.step_operator(spec))
        assert rep.fidelity == pytest.approx(doc["step_blocks"][0]["verification"]["fidelity"], abs=1e-14)

    @pytest.mark.parametrize("call, error, message", [
        (lambda: cli.element_to_record(object(), 0, "x"), TypeError, "cannot serialize element of type object"),
        (lambda: cli.element_from_record({"element_type": "mirror", "parameters": {}}), cli.ConfigError,
         "unknown element_type 'mirror'"),
        (lambda: cli.parse_parts_list({"schema_version": 2, "step_blocks": []}), cli.ConfigError,
         "unsupported schema_version"),
        (lambda: cli.parse_parts_list({"schema_version": 1}), cli.ConfigError,
         "parts list must be a JSON object with key 'step_blocks'"),
        (lambda: cli.parse_parts_list([1, 2]), cli.ConfigError, "parts list must be a JSON object with key 'schema_version'"),
        (lambda: cli.parse_parts_list({"schema_version": 1, "step_blocks": [{"phase": 0.0, "notes": []}]}),
         cli.ConfigError, "step block must be a JSON object with key 'elements'"),
        (lambda: cli.parse_parts_list({"schema_version": 1, "step_blocks": 3}), cli.ConfigError,
         "parts list key 'step_blocks' must be of type list, got 3"),
        (lambda: cli.element_from_record({"element_type": "half_waveplate", "parameters": {"angle": 0.1, "tilt": 1}}),
         cli.ConfigError, "cannot build half_waveplate from its parameters: .*unexpected keyword argument 'tilt'"),
        (lambda: cli.element_from_record({"element_type": "variable_waveplate", "parameters": {}}), cli.ConfigError,
         "cannot build variable_waveplate from its parameters: .*retardance"),
        (lambda: cli.element_from_record({"element_type": "pdc_block", "parameters": {
            "lattice_min": 0, "q2": [[0.0, 0.0]], "q1": [[0.0, 0.0]]}}), cli.ConfigError,
         r"cannot build pdc_block from its parameters: plate parameter arrays must both have shape \(n_sites, 3\)"),
        (lambda: cli.element_from_record({"element_type": "jplate", "parameters": {"m_x": True}}), cli.ConfigError,
         "cannot build jplate from its parameters: m_x must be an integer, got True"),
        (lambda: cli.element_from_record({"element_type": "jplate"}), cli.ConfigError,
         "jplate element must be a JSON object with key 'parameters'"),
        (lambda: cli.element_from_record({"element_type": ["jplate"], "parameters": {}}), cli.ConfigError,
         r"parts-list element key 'element_type' must be of type str, got \['jplate'\]"),
        (lambda: cli.element_from_record({"element_type": "jplate", "parameters": {"m_x": 1, "c_x": "a"}}),
         cli.ConfigError, "cannot build jplate from its parameters: c_x must be a finite real number, got 'a'"),
        (lambda: cli.element_from_record({"element_type": "half_waveplate", "parameters": {"angle": None}}),
         cli.ConfigError, "cannot build half_waveplate from its parameters: angle must be a finite real number, got None"),
        (lambda: cli.element_from_record({"element_type": "variable_waveplate", "parameters": {"retardance": [1, 2]}}),
         cli.ConfigError,
         r"cannot build variable_waveplate from its parameters: retardance must be a finite real number, got \[1, 2\]"),
        (lambda: cli.element_from_record(pdc_record(q2=[[0.0, None, 0.0]])), cli.ConfigError,
         "cannot build pdc_block from its parameters: q2 entry must be a finite real number, got None"),
        (lambda: cli.element_from_record(pdc_record(q1=[["0", 0.0, 0.0]])), cli.ConfigError,
         "cannot build pdc_block from its parameters: q1 entry must be a finite real number, got '0'"),
        (lambda: cli.element_from_record(pdc_record(q1={"0": [0.0, 0.0, 0.0]})), cli.ConfigError,
         "cannot build pdc_block from its parameters: q1 entry must be a finite real number, got {'0': "),
        (lambda: cli.element_from_record(pdc_record(lattice_min="x")), cli.ConfigError,
         "cannot build pdc_block from its parameters: lattice_min must be an integer, got 'x'"),
        (lambda: cli.element_from_record(pdc_record(lattice_min=False)), cli.ConfigError,
         "cannot build pdc_block from its parameters: lattice_min must be an integer, got False"),
        (lambda: cli.element_from_record(pdc_record(hwp_angle=0.5)), cli.ConfigError,
         "pdc_block parameters key 'hwp_angle' must be 0.0, the value the element fixes"),
        (lambda: cli.element_from_record(pdc_record(hwp_angle=False)), cli.ConfigError,
         "pdc_block parameters key 'hwp_angle' must be 0.0, the value the element fixes, got False"),
        (lambda: cli.parse_parts_list(parts_list(order="1")), cli.ConfigError,
         "parts-list element key 'order' must be of type int, got '1'"),
        (lambda: cli.parse_parts_list(parts_list(order=None)), cli.ConfigError,
         "parts-list element key 'order' must be of type int, got None"),
        (lambda: cli.parse_parts_list(parts_list(phase="x")), cli.ConfigError,
         "step block key 'phase' must be a finite real number, got 'x'"),
        (lambda: cli.parse_parts_list(parts_list(provenance=3)), cli.ConfigError,
         "parts-list element key 'provenance' must be of type str, got 3"),
        (lambda: cli.parse_parts_list(parts_list(notes=["ok", None])), cli.ConfigError,
         "step block key 'notes' must list strings"),
        (lambda: cli.parse_parts_list({**parts_list(), "schema_version": True}), cli.ConfigError,
         "parts list key 'schema_version' must be of type int, got True"),
        (lambda: cli.parse_parts_list(parts_list(order=1)), cli.ConfigError,
         r"step block key 'order' must run 0\.\.1 once each, got \[1, 1\]"),
        (lambda: cli.parse_parts_list(parts_list(order=2)), cli.ConfigError,
         r"step block key 'order' must run 0\.\.1 once each, got \[1, 2\]"),
        (lambda: cli.parse_parts_list(parts_list(order=-1)), cli.ConfigError,
         r"step block key 'order' must run 0\.\.1 once each, got \[-1, 1\]"),
        (lambda: cli.element_from_record(json.loads('{"element_type": "half_waveplate", "parameters": {"angle": NaN}}')),
         cli.ConfigError, "cannot build half_waveplate from its parameters: angle must be a finite real number, got nan"),
        (lambda: cli.element_from_record(json.loads(
            '{"element_type": "jplate", "parameters": {"m_x": 1, "c_x": -Infinity}}')), cli.ConfigError,
         "cannot build jplate from its parameters: c_x must be a finite real number, got -inf"),
        (lambda: cli.element_from_record(pdc_record(q2=[[0.0, math.nan, 0.0]])), cli.ConfigError,
         "cannot build pdc_block from its parameters: q2 entry must be a finite real number, got nan"),
        (lambda: cli.parse_parts_list(parts_list(phase=math.nan)), cli.ConfigError,
         "step block key 'phase' must be a finite real number, got nan"),
        (lambda: cli.parse_parts_list({**parts_list(steps=(0, 1, 2)), "step_count": 7}), cli.ConfigError,
         "parts list key 'step_count' must be 3, the number of step blocks, got 7"),
        (lambda: cli.parse_parts_list({**parts_list(), "step_count": "1"}), cli.ConfigError,
         "parts list key 'step_count' must be of type int, got '1'"),
        (lambda: cli.parse_parts_list(parts_list(steps=(2, 1, 2))), cli.ConfigError,
         "step block key 'step' must be 0, the block's position, got 2"),
        (lambda: cli.parse_parts_list(parts_list(steps=(0, None, 2))), cli.ConfigError,
         "step block must be a JSON object with key 'step'"),
        (lambda: cli.parse_parts_list(parts_list(steps=(0, True))), cli.ConfigError,
         "step block key 'step' must be of type int, got True"),
    ], ids=["unknown-element", "unknown-element-type", "parts-list-version", "missing-step-blocks",
            "non-object-document", "missing-elements", "step-blocks-not-a-list", "unknown-parameter",
            "missing-parameter", "bad-plate-shape", "boolean-multiplier", "missing-parameters",
            "element-type-not-a-string", "string-jplate-constant", "null-angle", "list-retardance",
            "null-plate-entry", "string-plate-entry", "plate-rows-not-a-list", "string-lattice-min",
            "boolean-lattice-min", "changed-hwp-angle", "boolean-hwp-angle", "string-order", "null-order",
            "string-phase", "non-string-provenance", "non-string-note", "boolean-schema-version", "duplicate-order",
            "order-gap", "negative-order", "nan-angle", "infinite-jplate-constant", "nan-plate-entry", "nan-phase",
            "wrong-step-count", "string-step-count", "misnumbered-step", "missing-step", "boolean-step"])
    def test_parts_list_records_reject_what_they_cannot_read(self, call, error, message):
        with pytest.raises(error, match=message):
            call()

    def test_parts_list_records_read_their_values_unchanged(self):
        """The records the rejection cases change are read, each value as it was written."""
        block = cli.element_from_record(pdc_record(lattice_min=0, hwp_angle=0))
        assert block.lattice_min == 0 and block.q1.tolist() == [[0.0, math.pi, 0.0]]
        document = parts_list(order=1, phase=1, notes=["n"])
        document["step_blocks"][0]["elements"][1]["order"] = 0
        [step] = cli.parse_parts_list(document)
        assert [el.angle for el in step.elements] == [0.2, 0.1]
        assert (step.provenance, step.phase, step.notes) == (("q", "p"), 1, ("n",))
        assert type(step.phase) is int

    def test_generalized_blocks_match_homogeneous_compilation(self, tmp_path):
        L = 5
        raw = {
            "schema_version": 1,
            "walk": "generalized",
            "steps": 2,
            "half_width": L,
            "table1": {"theta": 0.7},
            "table2": {"theta": -0.3},
        }
        path = tmp_path / "gen.json"
        path.write_text(json.dumps(raw))
        out = tmp_path / "parts.json"
        assert main(["compile", "--config", str(path), "--out", str(out), "--verify"]) == 0
        doc = json.loads(out.read_text())
        assert len(doc["step_blocks"]) == 2
        gen_steps = cli.parse_parts_list(doc)
        hom = compiler.compile_ssqw(
            walk.u2_matrix(walk.CoinParams(theta=0.7)), walk.u2_matrix(walk.CoinParams(theta=-0.3))
        )
        m = equal_up_to_phase(compose(gen_steps[0].elements, L), compose(hom.elements, L))
        assert m.match

    @pytest.mark.parametrize("half_width", [3, 16, 40])
    @pytest.mark.parametrize("kind", walk.WalkSpec.KINDS)
    def test_verify_passes_for_every_kind(self, tmp_path, kind, half_width):
        rng = np.random.default_rng(half_width)
        theta, theta2 = rng.uniform(-math.pi, math.pi, size=2)
        angles = {
            "dtqw": [{"theta": theta}],
            "ssqw": [{"theta1": theta, "theta2": theta2}],
            "generalized": [{"seed": half_width}, {"table1": {"chi": theta, "eta": theta2, "theta": 0.4}, "seed": 1}],
            "electric-dtqw": [
                {"theta": theta, "phi_e": phi_e}
                for phi_e in (0.0, rng.uniform(0, 2 * math.pi), math.nextafter(2 * math.pi, 0.0))
            ],
        }[kind]
        for i, keys in enumerate(angles):
            path = tmp_path / f"c{i}.json"
            path.write_text(json.dumps({"schema_version": 1, "walk": kind, "steps": 1, "half_width": half_width, **keys}))
            out = tmp_path / f"parts{i}.json"
            assert main(["compile", "--verify", "--config", str(path), "--out", str(out)]) == 0
            verification = json.loads(out.read_text())["step_blocks"][0]["verification"]
            assert verification["passed"] and abs(verification["fidelity"] - 1) <= 1e-12

    def test_electric_train_is_two_pi_periodic_and_zero_field_is_plain(self, tmp_path):
        """The compiled counterpart of acceptance criterion 11."""

        def compiled(name, **keys):
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps({"schema_version": 1, "steps": 3, "half_width": 12, "theta": 0.8, **keys}))
            out = tmp_path / f"{name}.parts.json"
            assert main(["compile", "--verify", "--config", str(path), "--out", str(out)]) == 0
            return out.read_bytes()

        base = compiled("base", walk="electric-dtqw", phi_e=0.5)
        assert base == compiled("turned", walk="electric-dtqw", phi_e=0.5 + 2 * math.pi)
        assert len(json.loads(base)["step_blocks"][0]["elements"]) == 3
        zero_field = json.loads(compiled("zero", walk="electric-dtqw", phi_e=0.0))
        plain = json.loads(compiled("plain", walk="dtqw"))
        assert zero_field["step_blocks"] == plain["step_blocks"]
        assert [r["element_type"] for r in plain["step_blocks"][0]["elements"]] == ["pdc_block", "jplate"]

    def test_config_verify_toggle(self, tmp_path):
        cfg = ssqw_config(tmp_path, verify=True)
        out = tmp_path / "parts.json"
        assert main(["compile", "--config", str(cfg), "--out", str(out)]) == 0
        assert json.loads(out.read_text())["verified"] is True

    def test_random_angle_compilations_report_high_fidelity(self, tmp_path):
        rng = np.random.default_rng(17)
        for i in range(5):
            t1, t2 = rng.uniform(-math.pi, math.pi, size=2)
            cfg = ssqw_config(tmp_path, theta1=t1, theta2=t2, steps=1)
            out = tmp_path / f"parts{i}.json"
            assert main(["compile", "--config", str(cfg), "--out", str(out), "--verify"]) == 0
            block = json.loads(out.read_text())["step_blocks"][0]
            assert block["verification"]["fidelity"] >= 1 - 1e-10

    def test_byte_identical_reruns(self, tmp_path):
        cfg = ssqw_config(tmp_path)
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        main(["compile", "--config", str(cfg), "--out", str(out1), "--verify"])
        main(["compile", "--config", str(cfg), "--out", str(out2), "--verify"])
        assert out1.read_bytes() == out2.read_bytes()

    @pytest.mark.parametrize(
        "raw",
        [
            {"walk": "ssqw", "theta1": 0.7, "theta2": -0.3},
            {"walk": "generalized", "seed": 4, "table2": {"chi": 0.2, "eta": -0.4, "theta": 1.1}},
        ],
        ids=["ssqw", "generalized"],
    )
    def test_certification_runs_once_per_command(self, tmp_path, monkeypatch, raw):
        """One train is certified against one dense step operator, whatever the step count."""
        calls = {"verify": 0, "step_operator": 0}

        def counted(owner, name):
            original = getattr(owner, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(owner, name, wrapper)

        counted(compiler, "verify")
        counted(walk, "step_operator")
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"schema_version": 1, "steps": 16, "half_width": 18, **raw}))
        out = tmp_path / "parts.json"
        assert main(["compile", "--config", str(path), "--out", str(out), "--verify"]) == 0
        assert calls == {"verify": 1, "step_operator": 1}
        blocks = json.loads(out.read_text())["step_blocks"]
        assert len(blocks) == 16
        assert blocks[0]["verification"]["passed"]
        assert all(b["verification"] == blocks[0]["verification"] for b in blocks)

    def test_failed_verification_exits_4(self, tmp_path, monkeypatch, capsys):
        from oamwalk.compiler import VerificationReport

        def fake_verify(cs, reference):
            return VerificationReport(False, 0.5, 0.0, 1e-10, ())

        monkeypatch.setattr(compiler, "verify", fake_verify)
        cfg = ssqw_config(tmp_path)
        out = tmp_path / "parts.json"
        assert main(["compile", "--config", str(cfg), "--out", str(out), "--verify"]) == 4
        assert "verification failure" in capsys.readouterr().err
        assert out.exists()  # diagnostics still written


def check_compile_bytes(half_width, directory):
    """``compile --verify`` writes, for every walk kind, the parts list of the dense oracle's report byte for byte.

    The oracle composes the train densely from the identity and lifts every factor again for its
    column norms; the generalized walk has four-angle U(2) tables.
    """
    rng = np.random.default_rng(half_width)
    n = 2 * half_width + 1
    theta, theta2, phi_e = rng.uniform(-math.pi, math.pi, size=3)
    tables = {name: dict(zip(("chi", "xi", "eta", "theta"), rng.uniform(-math.pi, math.pi, (4, n)).tolist()))
              for name in ("table1", "table2")}
    configs = {"ssqw": {"theta1": theta, "theta2": theta2}, "dtqw": {"theta": theta},
               "electric-dtqw": {"theta": theta, "phi_e": phi_e}, "generalized": tables}
    for kind, keys in configs.items():
        raw = {"schema_version": 1, "walk": kind, "steps": 2, "half_width": half_width, **keys}
        path, out = directory / f"{kind}.json", directory / f"{kind}.parts.json"
        path.write_text(json.dumps(raw))
        assert main(["compile", "--verify", "--config", str(path), "--out", str(out)]) == 0, kind
        spec = cli.build_spec(raw).resolved()
        if kind == "ssqw":
            train = compiler.compile_ssqw(walk.coin_matrix(spec.theta1), walk.coin_matrix(spec.theta2))
        else:
            train = compiler.compile_generalized(spec)
        match, defects = dense_report(train, walk.step_operator(spec), half_width)
        factors = tuple(map(compiler.FactorCheck, train.provenance, defects))
        report = compiler.VerificationReport(*match, compiler.TOL, factors)
        expect = json.dumps(cli.parts_list_document(spec, train, report), indent=2, sort_keys=True) + "\n"
        assert out.read_text() == expect, (kind, half_width)


class TestCompileBytes:
    """The band-folded certificate writes the bytes of the dense one."""

    def test_byte_sweep_configs_build(self):
        """Every config of ``tests/byte_sweep.py`` builds a spec, so its digests compare outputs, not
        the exit codes of configs the CLI refuses.  No walk runs."""
        for name, cfg in byte_sweep.configs():
            assert isinstance(cli.build_spec(cfg), walk.WalkSpec), name

    @pytest.mark.parametrize("half_width", [40, 64, 100])
    def test_verify_writes_the_dense_reports_bytes(self, tmp_path, half_width):
        check_compile_bytes(half_width, tmp_path)

    def test_verify_writes_the_dense_reports_bytes_on_one_thread(self, tmp_path):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": "1"}
        here = Path(__file__).resolve().parent
        env["PYTHONPATH"] = os.pathsep.join([str(here.parent / "src"), str(here)])
        code = f"import pathlib, test_cli\ntest_cli.check_compile_bytes(64, pathlib.Path({str(tmp_path)!r}))"
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr


class TestOneDefinitionPerKind:
    """A walk kind added to one layer but not the others fails here."""

    def test_config_schema_covers_every_step_definition(self):
        assert set(cli._KIND_KEYS) == set(walk.STEP_MOVES)
        fields = {f.name for f in dataclasses.fields(walk.WalkSpec)}
        assert all(set(keys.values()) <= fields for keys in cli._KIND_KEYS.values())

    def test_every_shift_move_has_a_compile_rule(self):
        used = {(left, right) for moves in walk.STEP_MOVES.values() for _, left, right in moves}
        assert used <= set(compiler._SHIFT_PROVENANCE)


class TestLocalize:
    def localize_config(self, tmp_path, **overrides):
        raw = {
            "schema_version": 1,
            "walk": "generalized",
            "steps": 12,
            "half_width": 16,
            "seed": 11,
        }
        raw.update(overrides)
        path = tmp_path / "loc.json"
        path.write_text(json.dumps(raw))
        return path

    def test_identity_tables_match_plain_generalized_run(self, tmp_path):
        cfg = self.localize_config(tmp_path, table1={"theta": 0.0}, table2={"theta": 0.0})
        out = tmp_path / "ensemble.json"
        assert main(["localize", "--config", str(cfg), "--seeds", "1", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        spec = walk.WalkSpec(
            "generalized",
            12,
            16,
            table1=walk.CoinTable.homogeneous(walk.CoinParams(), 16),
            table2=walk.CoinTable.homogeneous(walk.CoinParams(), 16),
        )
        expect = [walk.spread(walk.probability(s)) for s in walk.evolve(spec)]
        assert np.allclose(doc["sigma_per_seed"][0], expect, atol=1e-12)
        assert doc["sigma_ensemble_mean"] == doc["sigma_per_seed"][0]

    def test_disorder_spreads_slower_than_ballistic(self, tmp_path):
        cfg = self.localize_config(tmp_path, steps=40, half_width=44)
        out = tmp_path / "ensemble.json"
        assert main(["localize", "--config", str(cfg), "--seeds", "6", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["ensemble"] == 6 and len(doc["sigma_per_seed"]) == 6
        assert doc["final_ratio"] < 0.5
        # sublinear growth: doubling time less than doubles the spread
        mean = doc["sigma_ensemble_mean"]
        assert mean[40] < 2 * mean[20]

    def test_general_tables_off_centre_equal_full_width_reference(self, tmp_path, rng):
        """A ``localize`` document over explicit U(2) tables, rebuilt byte for byte from reference steps.

        The tables set all four angles, so no coin entry is real, and the walk
        starts off centre, so its light cone is not centred on the lattice.
        """
        steps, half_width, start, seed = 14, 19, -3, 5
        n = 2 * half_width + 1
        angles = {name: rng.uniform(-3, 3, (4, n)).tolist() for name in ("table1", "table2")}
        raw = {name: dict(zip(("chi", "xi", "eta", "theta"), cols)) for name, cols in angles.items()}
        cfg = self.localize_config(tmp_path, steps=steps, half_width=half_width, start=start, seed=seed,
                                   coin_state=[[0.6, 0.0], [0.0, 0.8]], **raw)
        out = tmp_path / "ensemble.json"
        assert main(["localize", "--config", str(cfg), "--seeds", "3", "--out", str(out)]) == 0

        sites = np.arange(-half_width, half_width + 1)

        def sigmas(spec):
            amps, history = spec.initial_state().amps, []
            for t in range(steps + 1):
                if t:
                    amps = reference_step(amps, spec)
                history.append(float(np.sqrt(walk.site_moments(walk.site_probabilities(amps), sites)[1])))
            return history

        tables = {name: walk.CoinTable(-half_width, *cols) for name, cols in angles.items()}
        common = dict(coin_state=(0.6, 0.8j), start=start)
        per_seed = [sigmas(walk.WalkSpec("generalized", steps, half_width, **tables, **common))] * 3
        mean = np.mean(np.asarray(per_seed), axis=0).tolist()
        ballistic = sigmas(walk.WalkSpec("dtqw", steps, half_width, theta1=math.pi / 4, **common))
        expect = {
            "schema_version": 1, "walk": "generalized", "steps": steps, "half_width": half_width,
            "ensemble": 3, "seeds": [seed, seed + 1, seed + 2], "sigma_per_seed": per_seed,
            "sigma_ensemble_mean": mean, "sigma_ballistic": ballistic, "final_ratio": mean[-1] / ballistic[-1],
        }
        assert out.read_bytes() == (json.dumps(expect, indent=2, sort_keys=True) + "\n").encode()

    def test_deterministic_across_runs(self, tmp_path):
        cfg = self.localize_config(tmp_path)
        out1, out2 = tmp_path / "e1.json", tmp_path / "e2.json"
        main(["localize", "--config", str(cfg), "--seeds", "3", "--out", str(out1)])
        main(["localize", "--config", str(cfg), "--seeds", "3", "--out", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()

    def test_needs_seed(self, tmp_path):
        cfg = self.localize_config(tmp_path)
        raw = json.loads(cfg.read_text())
        raw.pop("seed")
        cfg.write_text(json.dumps(raw))
        assert main(["localize", "--config", str(cfg), "--seeds", "2", "--out", str(tmp_path / "x.json")]) == 2

    def test_rejects_non_generalized(self, tmp_path):
        cfg = write_config(tmp_path, seed=1)
        assert main(["localize", "--config", str(cfg), "--seeds", "2", "--out", str(tmp_path / "x.json")]) == 2


class TestLocalizeChunks:
    """``localize`` evolves its seeds in contiguous chunks, one per usable CPU, all but the last in
    forked children, and writes the bytes of a one-CPU run whatever the split and whatever fails."""

    @pytest.fixture
    def forks(self, monkeypatch):
        """The pids of the children ``os.fork`` makes from this process, in order."""
        pids, fork = [], os.fork

        def counted():
            pids.append(fork())
            return pids[-1]

        monkeypatch.setattr(os, "fork", counted)
        return pids

    def localize(self, tmp_path, monkeypatch, seeds, cpus):
        """``(exit code, loc.json bytes or None)`` of a ``localize`` run seeing ``cpus`` usable CPUs."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        cfg = TestLocalize().localize_config(tmp_path, table1=byte_sweep._four_angle_table(random.Random(3), 16))
        out = tmp_path / f"loc-{seeds}-{cpus}.json"
        code = main(["localize", "--config", str(cfg), "--seeds", str(seeds), "--out", str(out)])
        return code, out.read_bytes() if code == 0 else None

    @pytest.mark.parametrize("seeds", [1, 2, 3, 5, 16, 17])
    def test_document_does_not_depend_on_the_cpu_count(self, tmp_path, monkeypatch, forks, seeds):
        reference = self.localize(tmp_path, monkeypatch, seeds, 1)
        assert reference[0] == 0 and forks == []
        for cpus in (2, 3, 8):
            assert self.localize(tmp_path, monkeypatch, seeds, cpus) == reference
            assert len(forks) == min(cpus, seeds) - 1
            forks.clear()

    def test_a_failing_child_costs_time_not_bytes(self, tmp_path, monkeypatch, forks):
        reference = self.localize(tmp_path, monkeypatch, 5, 1)
        test_pid, blocks = os.getpid(), walk.distribution_blocks

        def in_this_process_only(specs):
            if os.getpid() != test_pid:
                raise MemoryError("refused in a child")
            return blocks(specs)

        monkeypatch.setattr(walk, "distribution_blocks", in_this_process_only)
        assert self.localize(tmp_path, monkeypatch, 5, 3) == reference
        assert len(forks) == 2

    def test_a_killed_child_costs_time_not_bytes(self, tmp_path, monkeypatch, forks):
        """A child killed by a signal leaves its rows to this process, as one that exits 1 does."""
        reference = self.localize(tmp_path, monkeypatch, 5, 1)
        test_pid, blocks = os.getpid(), walk.distribution_blocks

        def killed_in_a_child(specs):
            if os.getpid() != test_pid:
                os.kill(os.getpid(), signal.SIGKILL)
            return blocks(specs)

        monkeypatch.setattr(walk, "distribution_blocks", killed_in_a_child)
        assert self.localize(tmp_path, monkeypatch, 5, 3) == reference
        assert len(forks) == 2

    @pytest.mark.parametrize("failing", [1, 2])
    def test_a_failed_fork_leaves_its_chunks_to_this_process(self, tmp_path, monkeypatch, forks, failing):
        reference = self.localize(tmp_path, monkeypatch, 5, 1)
        fork = os.fork

        def fork_failing_once_at_call_failing():
            if len(forks) + 1 == failing:
                raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")
            return fork()

        monkeypatch.setattr(os, "fork", fork_failing_once_at_call_failing)
        assert self.localize(tmp_path, monkeypatch, 5, 3) == reference
        assert len(forks) == failing - 1

    def test_an_unmappable_history_is_refused_before_any_fork(self, tmp_path, monkeypatch, capsys, forks):
        def refused(*args):
            raise OSError(errno.ENOMEM, "Cannot allocate memory")

        monkeypatch.setattr(mmap, "mmap", refused)
        assert self.localize(tmp_path, monkeypatch, 5, 3) == (2, None)
        err = capsys.readouterr().err
        assert "config error" in err and "too large to allocate" in err and "Traceback" not in err
        assert forks == []

    @pytest.mark.skipif(not Path("/proc/self/fd").is_dir(), reason="needs /proc/self/fd")
    def test_a_parent_failing_after_forking_leaves_no_child_and_no_descriptor(self, tmp_path, monkeypatch, capsys,
                                                                              forks):
        """The children would take a minute; they are killed as soon as this process raises."""
        test_pid = os.getpid()

        def refused_here_slow_in_children(specs):
            if os.getpid() == test_pid:
                raise MemoryError("refused in this process")
            time.sleep(60)

        monkeypatch.setattr(walk, "distribution_blocks", refused_here_slow_in_children)
        descriptors = len(os.listdir("/proc/self/fd"))
        start = time.monotonic()
        assert self.localize(tmp_path, monkeypatch, 5, 3) == (2, None)
        assert time.monotonic() - start < 30
        assert "too large to allocate: refused in this process" in capsys.readouterr().err
        assert len(forks) == 2
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        assert len(os.listdir("/proc/self/fd")) == descriptors


def load_bench_workloads(monkeypatch):
    path = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


class TestSchemaVersions:
    """Configs and each output document carry versions of their own, so one format can change alone."""

    DOCUMENTS = {"SUMMARY_VERSION": "summary", "PARTS_LIST_VERSION": "parts list", "LOCALIZE_VERSION": "loc"}

    @pytest.mark.parametrize("bumped", sorted(DOCUMENTS))
    def test_bumping_one_output_version_moves_only_its_document(self, tmp_path, monkeypatch, bumped):
        monkeypatch.setattr(cli, bumped, 2)
        workloads = load_bench_workloads(monkeypatch)
        for workload in ("spread", "certify", "disorder"):
            for op in workloads.pool(workload, 1):
                cli.build_spec(op.config)
        out = {"summary": tmp_path / "dist.csv", "parts list": tmp_path / "parts.json", "loc": tmp_path / "loc.json"}
        assert main(["run", "--config", str(write_config(tmp_path)), "--out", str(out["summary"])]) == 0
        assert main(["compile", "--verify", "--config", str(ssqw_config(tmp_path)), "--out",
                     str(out["parts list"])]) == 0
        assert main(["localize", "--config", str(TestLocalize().localize_config(tmp_path)), "--seeds", "2",
                     "--out", str(out["loc"])]) == 0
        out["summary"] = cli._summary_path(out["summary"])
        documents = {name: json.loads(path.read_text()) for name, path in out.items()}
        for name, document in documents.items():
            assert document["schema_version"] == (2 if name == self.DOCUMENTS[bumped] else 1), name
        assert len(cli.parse_parts_list(documents["parts list"])) == 2

    def test_config_version_is_its_own(self, tmp_path, monkeypatch):
        for name in self.DOCUMENTS:
            monkeypatch.setattr(cli, name, 2)
        with pytest.raises(cli.ConfigError, match="unsupported schema_version 2"):
            cli.build_spec(json.loads(write_config(tmp_path, schema_version=2).read_text()))


class TestUnwritableOutput:
    def configs(self, tmp_path):
        loc = TestLocalize().localize_config(tmp_path)
        return {
            "run": (write_config(tmp_path), []),
            "compile": (ssqw_config(tmp_path), ["--verify"]),
            "localize": (loc, ["--seeds", "2"]),
        }

    @staticmethod
    def forbid_work(monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("the walk must not be evolved")

        monkeypatch.setattr(walk, "iterate", never)
        monkeypatch.setattr(walk, "iterate_ensemble", never)
        monkeypatch.setattr(walk, "step_operator", never)

    @pytest.mark.parametrize("command", ["run", "compile", "localize"])
    def test_missing_out_directory_exits_2_before_any_work(self, tmp_path, monkeypatch, capsys, command):
        self.forbid_work(monkeypatch)
        cfg, extra = self.configs(tmp_path)[command]
        before = sorted(tmp_path.rglob("*"))
        out = tmp_path / "missing_dir" / "x.out"
        assert main([command, "--config", str(cfg), "--out", str(out)] + extra) == 2
        assert "config error: cannot write" in capsys.readouterr().err
        assert sorted(tmp_path.rglob("*")) == before

    @pytest.mark.parametrize("command", ["run", "compile", "localize"])
    def test_existing_directory_out_exits_2_before_any_work(self, tmp_path, monkeypatch, capsys, command):
        self.forbid_work(monkeypatch)
        cfg, extra = self.configs(tmp_path)[command]
        out = tmp_path / "taken"
        out.mkdir()
        before = sorted(tmp_path.rglob("*"))
        assert main([command, "--config", str(cfg), "--out", str(out)] + extra) == 2
        err = capsys.readouterr().err
        assert "config error: cannot write" in err and "existing directory" in err and "Traceback" not in err
        assert sorted(tmp_path.rglob("*")) == before

    @pytest.mark.parametrize("out", [".", "", "/"], ids=["dot", "empty", "root"])
    @pytest.mark.parametrize("command", ["run", "compile", "localize"])
    def test_nameless_directory_out_exits_2_before_any_work(self, tmp_path, monkeypatch, capsys, command, out):
        """'.', '' and '/' have no file name to derive a summary path from; they are refused like any directory."""
        self.forbid_work(monkeypatch)
        cfg, extra = self.configs(tmp_path)[command]
        monkeypatch.chdir(tmp_path)
        before = sorted(tmp_path.rglob("*"))
        assert main([command, "--config", str(cfg), "--out", out] + extra) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: cannot write") and "existing directory" in err
        assert "Traceback" not in err
        assert sorted(tmp_path.rglob("*")) == before

    def test_summary_path_naming_a_directory_exits_2_before_any_work(self, tmp_path, monkeypatch, capsys):
        self.forbid_work(monkeypatch)
        cfg, _ = self.configs(tmp_path)["run"]
        (tmp_path / "dist.summary.json").mkdir()
        before = sorted(tmp_path.rglob("*"))
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "dist.csv")]) == 2
        assert "dist.summary.json: it is an existing directory" in capsys.readouterr().err
        assert sorted(tmp_path.rglob("*")) == before

    @pytest.mark.parametrize("command", ["run", "compile", "localize"])
    def test_write_failure_exits_2_without_traceback(self, tmp_path, monkeypatch, capsys, command):
        cfg, extra = self.configs(tmp_path)[command]

        open_path = Path.open

        def disk_full(path, mode="r", *args, **kwargs):
            if "w" not in mode:
                return open_path(path, mode, *args, **kwargs)
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), str(path))

        # passes the pre-flight checks and reads the config, fails every write: Path.write_text opens through
        # Path.open, as the streamed parts-list writer does
        monkeypatch.setattr(Path, "open", disk_full)
        out = tmp_path / "x.out"
        assert main([command, "--config", str(cfg), "--out", str(out)] + extra) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: cannot write") and os.strerror(errno.ENOSPC) in err
        assert "Traceback" not in err
        assert not out.exists()
