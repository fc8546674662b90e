"""End-to-end tests of the command-line front-end and its file formats."""

import dataclasses
import importlib.util
import json
import math
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from oamwalk import cli, compiler, walk
from oamwalk.cli import main
from oamwalk.optics import equal_up_to_phase

from conftest import dense_shift_full
from test_walk import reference_step


@pytest.fixture
def address_space_cap():
    """Cap this process's address space at 1 TiB for one test.

    An allocation of many TiB then fails at once under any overcommit policy,
    instead of succeeding lazily and touching memory as it is filled.
    """
    resource = pytest.importorskip("resource")
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    cap = 1 << 40
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
        ],
        ids=["dtqw", "ssqw", "electric-dtqw"],
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
        tracemalloc.start()
        try:
            assert cli.run_command(raw, str(tmp_path / "m.csv")) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 24 * state_bytes

    def test_peak_memory_does_not_grow_with_steps(self, tmp_path):
        half_width, steps = 1200, 60
        state_bytes = 2 * (2 * half_width + 1) * 16

        def peak(n_steps):
            cfg = ssqw_config(tmp_path, steps=n_steps, half_width=half_width)
            tracemalloc.start()
            try:
                assert main(["run", "--config", str(cfg), "--out", str(tmp_path / f"m{n_steps}.csv")]) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

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

    def test_unnormalized_coin(self, tmp_path):
        cfg = write_config(tmp_path, coin_state=[[1.0, 0.0], [1.0, 0.0]])
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "x.csv")]) == 2

    @pytest.mark.parametrize("entry", [math.nan, math.inf, -math.inf])
    def test_non_finite_coin_state_is_a_config_error(self, entry):
        # a JSON file cannot carry these (load_config refuses them); a mapping can
        raw = {"schema_version": 1, "walk": "dtqw", "steps": 1, "half_width": 8, "theta": 0.7,
               "coin_state": [[1.0, 0.0], [0.0, entry]]}
        with pytest.raises(cli.ConfigError, match="normalized"):
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
        ],
    )
    def test_numbers_must_be_json_numbers(self, tmp_path, capsys, kind, overrides):
        """Strings, booleans, null and integers too large for a float are config errors."""
        base = {"ssqw": {"theta1": 0.7, "theta2": -0.3}, "electric-dtqw": {"theta": 0.5}, "generalized": {"seed": 3}}
        raw = {"schema_version": 1, "walk": kind, "steps": 1, "half_width": 2, **base[kind], **overrides}
        path = tmp_path / "c.json"
        path.write_text(json.dumps(raw))
        out = tmp_path / "x.csv"
        assert main(["run", "--config", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("command", [["run"], ["compile"], ["localize", "--seeds", "2"]])
    def test_negative_seed_is_a_config_error(self, tmp_path, capsys, command):
        cfg = write_config(tmp_path, walk="generalized", seed=-1)
        raw = json.loads(cfg.read_text())
        raw.pop("theta")
        cfg.write_text(json.dumps(raw))
        out = tmp_path / "x.out"
        assert main(command + ["--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "seed must be non-negative" in err
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

    @pytest.mark.parametrize("flag", ["emit_trajectory", "emit_all_sites", "verify"])
    @pytest.mark.parametrize("value", ["false", 0, 1, None])
    def test_flags_must_be_booleans(self, tmp_path, capsys, flag, value):
        cfg = ssqw_config(tmp_path, **{flag: value})
        for command in (["run"], ["compile"]):
            assert main(command + ["--config", str(cfg), "--out", str(tmp_path / "x.out")]) == 2
            assert f"{flag} must be true or false" in capsys.readouterr().err


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

    def test_verify_subcommand_equals_forced_toggle(self, tmp_path):
        cfg = ssqw_config(tmp_path)
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        main(["compile", "--config", str(cfg), "--out", str(out1), "--verify"])
        main(["verify", "--config", str(cfg), "--out", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()

    def test_identity_coins_compile_to_full_shift(self, tmp_path):
        cfg = ssqw_config(tmp_path, theta1=0.0, theta2=0.0, steps=1)
        out = tmp_path / "parts.json"
        main(["compile", "--config", str(cfg), "--out", str(out)])
        steps = cli.parse_parts_list(json.loads(out.read_text()))
        m = equal_up_to_phase(steps[0].lift(6), dense_shift_full(6))
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
        m = equal_up_to_phase(gen_steps[0].lift(L), hom.lift(L))
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

        def fake_verify(cs, reference, tol=1e-10):
            return VerificationReport(False, 0.5, 0.0, tol, (), ())

        monkeypatch.setattr(compiler, "verify", fake_verify)
        cfg = ssqw_config(tmp_path)
        out = tmp_path / "parts.json"
        assert main(["compile", "--config", str(cfg), "--out", str(out), "--verify"]) == 4
        assert "verification failure" in capsys.readouterr().err
        assert out.exists()  # diagnostics still written


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
    def test_write_failure_exits_2_without_traceback(self, tmp_path, capsys, command):
        cfg, extra = self.configs(tmp_path)[command]
        out = tmp_path / "taken"
        out.mkdir()  # the directory exists, so writing a file at its path fails
        assert main([command, "--config", str(cfg), "--out", str(out)] + extra) == 2
        err = capsys.readouterr().err
        assert "config error: cannot write" in err and "Traceback" not in err
