import csv
import dataclasses
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

from headkv import commands
from headkv.cli import main
from headkv.commands import cmd_budget, cmd_generate, cmd_profile, cmd_stability
from headkv.config import ProfilingSpec, StabilitySpec, StrategySpec, config_from_dict, load_config
from headkv.errors import ConfigError
from headkv.model import ModelConfig
from headkv.profiling import core_stability_ratio
from headkv.roles import HeadRole, HeadRoleMap, role_map_from_lists
from headkv.rollout import HeadWiseHyper
from headkv.tensor_ops import RopeParams

GOLDEN = Path(__file__).parent / "golden"
CONFIGS = Path(__file__).parents[1] / "configs"

TOY_MODEL = {"L": 4, "H": 6, "d": 16, "s": 16, "f": 3, "grid_h": 4, "grid_w": 4, "seed": 0}


def profile_cfg(out):
    return config_from_dict({
        "model": dict(TOY_MODEL),
        "prompt_schedule": [["golden profile prompt", 1]],
        "n_blocks": 8,
        "output_dir": str(out),
    })


class TestCmdProfile:
    def test_outputs_match_golden(self, tmp_path):
        paths = cmd_profile(profile_cfg(tmp_path))
        assert paths["role_map"].read_bytes() == (GOLDEN / "profile/role_map.json").read_bytes()
        assert paths["head_stats"].read_bytes() == (GOLDEN / "profile/head_stats.csv").read_bytes()

    def test_same_command_twice_byte_identical(self, tmp_path):
        first = cmd_profile(profile_cfg(tmp_path / "a"))
        second = cmd_profile(profile_cfg(tmp_path / "b"))
        assert first["role_map"].read_bytes() == second["role_map"].read_bytes()
        assert first["head_stats"].read_bytes() == second["head_stats"].read_bytes()

    def test_role_counts_follow_thresholds(self, tmp_path):
        paths = cmd_profile(profile_cfg(tmp_path))
        role_map = HeadRoleMap.load(paths["role_map"])
        counts = role_map.counts()
        assert (counts[HeadRole.ANCHOR], counts[HeadRole.LOCAL], counts[HeadRole.MEMORY]) == (6, 5, 13)

    def test_role_map_json_shape(self, tmp_path):
        paths = cmd_profile(profile_cfg(tmp_path))
        payload = json.loads(paths["role_map"].read_text())
        assert set(payload) == {"alpha_anchor", "tau_local", "roles"}
        assert len(payload["roles"]) == 24
        keys = [(e["layer"], e["head"]) for e in payload["roles"]]
        assert keys == sorted(keys)
        text = paths["role_map"].read_text()
        assert not any(line != line.rstrip() for line in text.splitlines())


class TestCmdBudget:
    def test_full_scale_matches_golden(self, tmp_path):
        cfg = config_from_dict({"output_dir": str(tmp_path)})
        paths = cmd_budget(cfg, counts=(72, 90, 198))
        assert paths["budget"].read_bytes() == (GOLDEN / "budget/budget.csv").read_bytes()

    def test_toy_counts_total(self, tmp_path):
        cfg = config_from_dict({"output_dir": str(tmp_path)})
        paths = cmd_budget(cfg, counts=(5, 6, 13))
        rows = list(csv.DictReader(paths["budget"].open()))
        assert rows[0]["method"] == "head_wise"
        assert int(rows[0]["frame_slots"]) == 205

    def test_requires_counts_or_map(self, tmp_path):
        cfg = config_from_dict({"output_dir": str(tmp_path)})
        with pytest.raises(ConfigError):
            cmd_budget(cfg)


class TestCmdGenerate:
    def generate_cfg(self, out, strategy, n_blocks=6, role_map=None, model=None):
        raw = {
            "model": model or dict(TOY_MODEL),
            "strategy": strategy,
            "prompt_schedule": [["gen prompt", 1]],
            "n_blocks": n_blocks,
            "output_dir": str(out),
        }
        if role_map:
            raw["head_role_map"] = str(role_map)
        return config_from_dict(raw)

    def test_unbounded_fidelity_is_one(self, tmp_path):
        cfg = self.generate_cfg(tmp_path, {"type": "unbounded"})
        paths = cmd_generate(cfg)
        rows = list(csv.DictReader(paths["metrics"].open()))
        assert len(rows) == 6
        for row in rows:
            assert abs(float(row["fidelity"]) - 1.0) < 1e-9

    def test_head_wise_single_block_fidelity_one(self, tmp_path):
        map_paths = cmd_profile(profile_cfg(tmp_path / "prof"))
        cfg = self.generate_cfg(tmp_path, {"type": "head_wise"}, n_blocks=1,
                                role_map=map_paths["role_map"])
        paths = cmd_generate(cfg)
        rows = list(csv.DictReader(paths["metrics"].open()))
        assert abs(float(rows[0]["fidelity"]) - 1.0) < 1e-9

    def test_oracle_skipped_past_limit(self, tmp_path):
        # the oracle runs by default up to 64 blocks
        assert self.generate_cfg(tmp_path, {"type": "uniform_window", "W": 4}, n_blocks=64).oracle_enabled()
        cfg = self.generate_cfg(tmp_path, {"type": "uniform_window", "W": 4}, n_blocks=65)
        paths = cmd_generate(cfg)
        rows = list(csv.DictReader(paths["metrics"].open()))
        assert all(row["fidelity"] == "" for row in rows)

    def test_metrics_deterministic_modulo_wall_time(self, tmp_path):
        cfg_a = self.generate_cfg(tmp_path / "a", {"type": "sink_window", "W": 6, "n_sink": 1})
        cfg_b = self.generate_cfg(tmp_path / "b", {"type": "sink_window", "W": 6, "n_sink": 1})
        a = cmd_generate(cfg_a)["metrics"].read_text()
        b = cmd_generate(cfg_b)["metrics"].read_text()
        strip = lambda text: re.sub(r"^(\d+,[^,]*,\d+,\d+,)[0-9.]+,[0-9.]+", r"\1_", text, flags=re.M)
        assert strip(a) == strip(b)

    def test_bad_schedule_on_a_built_config_writes_nothing(self, tmp_path):
        """A config built in code, not loaded, is checked by the run before
        cmd_generate creates its output directory."""
        cfg = dataclasses.replace(self.generate_cfg(tmp_path, {"type": "unbounded"}), prompt_schedule=[("a", 2)])
        with pytest.raises(ConfigError, match="must start at block 1"):
            cmd_generate(cfg, str(tmp_path / "built"))
        assert not (tmp_path / "built").exists()

    def test_commit_ms_column(self, tmp_path):
        """commit_ms follows wall_time_ms and times the cache roll and the
        episodic work, which here admits and compresses every block."""
        map_paths = cmd_profile(profile_cfg(tmp_path / "prof"))
        cfg = config_from_dict({
            "model": dict(TOY_MODEL),
            "strategy": {"type": "head_wise"},
            "head_role_map": str(map_paths["role_map"]),
            "hyperparameters": {"update_interval": 1},
            "prompt_schedule": [["gen prompt", 1]],
            "n_blocks": 12,
            "output_dir": str(tmp_path),
        })
        paths = cmd_generate(cfg)
        with paths["metrics"].open() as fh:
            header = next(csv.reader(fh))
        assert header.index("commit_ms") == header.index("wall_time_ms") + 1
        commit_ms = [float(r["commit_ms"]) for r in csv.DictReader(paths["metrics"].open())]
        assert len(commit_ms) == 12 and min(commit_ms) >= 0.0
        compressed = [int(r["block_index"]) for r in csv.DictReader(paths["admissions"].open())
                      if r["compressed"] == "true"]
        assert compressed
        assert all(commit_ms[i - 1] > 0.0 for i in compressed)

    def test_admission_log_schema(self, tmp_path):
        map_paths = cmd_profile(profile_cfg(tmp_path / "prof"))
        model = dict(TOY_MODEL, scene_period=9, scene_jitter=0.02)
        cfg = self.generate_cfg(tmp_path, {"type": "head_wise"}, n_blocks=30,
                                role_map=map_paths["role_map"], model=model)
        paths = cmd_generate(cfg)
        rows = list(csv.DictReader(paths["admissions"].open()))
        assert rows, "expected admission decisions in a 30-block run"
        for row in rows:
            assert set(row) == {"block_index", "delta", "admitted", "compressed"}
            assert row["admitted"] in ("true", "false")
        state = json.loads(paths["final_state"].read_text())
        assert state["strategy"] == "head_wise"
        assert len(state["episodic_entries"]) <= 5

    @pytest.fixture
    def built(self, monkeypatch):
        """Every strategy cmd_generate builds, in build order."""
        built = []
        original = commands.build_strategy

        def build(*args):
            built.append(original(*args))
            return built[-1]

        monkeypatch.setattr(commands, "build_strategy", build)
        return built

    @pytest.mark.parametrize("strategy", [
        {"type": "unbounded"},
        {"type": "uniform_window", "W": 4},
        {"type": "sink_window", "W": 6, "n_sink": 1},
    ], ids=["unbounded", "uniform_window", "sink_window"])
    def test_window_final_state_holds_the_base_keys(self, tmp_path, built, strategy):
        cfg = self.generate_cfg(tmp_path, strategy, n_blocks=4)
        cfg.with_oracle = False
        state = json.loads(cmd_generate(cfg)["final_state"].read_text())
        assert built[0].state() == {}
        assert list(state) == ["strategy", "n_blocks", "frame_slots_live_last", "stored_scalar_count_last"]

    def test_head_wise_final_state_adds_episodic_entries(self, tmp_path, built, toy_role_map):
        toy_role_map.save(tmp_path / "role_map.json")
        cfg = self.generate_cfg(tmp_path, {"type": "head_wise"}, n_blocks=12,
                                role_map=tmp_path / "role_map.json")
        cfg.with_oracle = False
        state = json.loads(cmd_generate(cfg)["final_state"].read_text())
        assert list(state) == ["strategy", "n_blocks", "frame_slots_live_last", "stored_scalar_count_last",
                               "episodic_entries"]
        assert state["episodic_entries"]
        assert state["episodic_entries"] == built[0].state()["episodic_entries"]

    def test_budget_ratio_between_strategies(self, tmp_path):
        """stored_scalar_count ratio tracks the frame-slot ratio at steady state."""
        map_paths = cmd_profile(profile_cfg(tmp_path / "prof"))
        hw = self.generate_cfg(tmp_path / "hw", {"type": "head_wise"}, n_blocks=32,
                               role_map=map_paths["role_map"])
        hw.with_oracle = False
        uw = self.generate_cfg(tmp_path / "uw", {"type": "uniform_window", "W": 4}, n_blocks=32)
        uw.with_oracle = False
        hw_rows = list(csv.DictReader(cmd_generate(hw)["metrics"].open()))
        uw_rows = list(csv.DictReader(cmd_generate(uw)["metrics"].open()))
        got = int(hw_rows[-1]["stored_scalar_count"]) / int(uw_rows[-1]["stored_scalar_count"])
        want = 205 / (24 * 4)
        assert abs(got - want) / want < 0.02

    def test_missing_role_map_is_config_error(self, tmp_path):
        cfg = self.generate_cfg(tmp_path, {"type": "head_wise"})
        with pytest.raises(ConfigError):
            cmd_generate(cfg)


class TestCmdStability:
    def stability_cfg(self, out, axis, runs=4, pool=None):
        raw = {
            "model": dict(TOY_MODEL),
            "prompt_schedule": [["stability prompt", 1]],
            "n_blocks": 8,
            "output_dir": str(out),
            "profiling": {"sampled_blocks": [3, 5], "window": 8},
            "stability": {"runs": runs, "axis": axis},
        }
        if pool is not None:
            raw["stability"]["prompt_pool"] = pool
        return config_from_dict(raw)

    def test_identical_runs_give_unit_stability(self, tmp_path):
        cfg = self.stability_cfg(tmp_path, "prompts", pool=["same text"] * 4)
        paths = cmd_stability(cfg)
        rows = {r["role"]: float(r["s_c"]) for r in csv.DictReader(paths["stability"].open())}
        assert rows == {"anchor": 1.0, "local": 1.0, "memory": 1.0, "average": 1.0}

    def test_disjoint_anchor_injection(self, tmp_path):
        cfg = self.stability_cfg(tmp_path, "inject_disjoint_anchor", runs=2)
        paths = cmd_stability(cfg)
        rows = {r["role"]: float(r["s_c"]) for r in csv.DictReader(paths["stability"].open())}
        assert rows["anchor"] == 0.0

    @pytest.mark.parametrize("axis", ["prompts", "blocks", "repeats"])
    def test_matches_recomputation_from_emitted_maps(self, tmp_path, axis):
        cfg = self.stability_cfg(tmp_path / axis, axis)
        paths = cmd_stability(cfg)
        maps = [HeadRoleMap.load(paths[f"role_map_run{r}"]) for r in range(4)]
        report = core_stability_ratio(maps)
        rows = {r["role"]: float(r["s_c"]) for r in csv.DictReader(paths["stability"].open())}
        assert rows["anchor"] == pytest.approx(report.s_anchor, abs=1e-12)
        assert rows["local"] == pytest.approx(report.s_local, abs=1e-12)
        assert rows["memory"] == pytest.approx(report.s_memory, abs=1e-12)
        assert rows["average"] == pytest.approx(report.s_avg, abs=1e-12)


class TestCli:
    def run_cli(self, *args):
        return subprocess.run([sys.executable, "-m", "headkv.cli", *args],
                              capture_output=True, text=True)

    def write_cfg(self, tmp_path, raw):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(raw))
        return p

    def test_budget_subcommand(self, tmp_path):
        cfg = self.write_cfg(tmp_path, {"output_dir": str(tmp_path / "out")})
        proc = self.run_cli("budget", "--config", str(cfg), "--counts", "72,90,198")
        assert proc.returncode == 0
        assert (tmp_path / "out/budget.csv").exists()

    @pytest.mark.parametrize("counts", ["-1,2,3", "0,0,0", "1,2"])
    def test_budget_bad_counts_exit_2(self, tmp_path, counts):
        """Counts must be three, non-negative, with a positive total: -1,2,3
        used to write a table with 3 local heads and no anchors, and 0,0,0
        crashed with ZeroDivisionError."""
        cfg = self.write_cfg(tmp_path, {"output_dir": str(tmp_path / "out")})
        proc = self.run_cli("budget", "--config", str(cfg), f"--counts={counts}")
        assert proc.returncode == 2
        assert "configuration error" in proc.stderr
        assert not (tmp_path / "out/budget.csv").exists()

    def test_invalid_thresholds_exit_2(self, tmp_path):
        cfg = self.write_cfg(tmp_path, {
            "hyperparameters": {"alpha_anchor": 0.7, "tau_local": 0.5},
            "prompt_schedule": [["x", 1]],
            "n_blocks": 4,
            "output_dir": str(tmp_path / "out"),
        })
        proc = self.run_cli("profile", "--config", str(cfg))
        assert proc.returncode == 2
        assert "configuration error" in proc.stderr

    def test_missing_role_map_exit_2(self, tmp_path):
        cfg = self.write_cfg(tmp_path, {
            "strategy": {"type": "head_wise"},
            "prompt_schedule": [["x", 1]],
            "n_blocks": 2,
            "output_dir": str(tmp_path / "out"),
        })
        proc = self.run_cli("generate", "--config", str(cfg))
        assert proc.returncode == 2

    def test_duplicate_role_entry_exit_2(self, tmp_path):
        roles = [{"layer": 0, "head": h, "role": "memory"} for h in (0, 0)]
        (tmp_path / "roles.json").write_text(json.dumps({"alpha_anchor": 0.0, "tau_local": 0.0,
                                                         "roles": roles}))
        cfg = self.write_cfg(tmp_path, {
            "model": dict(TOY_MODEL, L=1, H=1),
            "strategy": {"type": "head_wise"},
            "head_role_map": str(tmp_path / "roles.json"),
            "n_blocks": 1,
            "output_dir": str(tmp_path / "out"),
        })
        proc = self.run_cli("generate", "--config", str(cfg))
        assert proc.returncode == 2
        assert "duplicate role entry" in proc.stderr

    @pytest.mark.parametrize("raw", [
        {"model": {"scene_jitter": float("nan")}},
        {"hyperparameters": {"alpha_anchor": float("nan")}},
        {"hyperparameters": {"rope": {"base": float("inf")}}},
    ], ids=repr)
    def test_non_finite_profile_config_exit_2(self, tmp_path, raw):
        """These used to exit 0 writing nan proportions, or crash with a
        traceback (exit 1) for alpha_anchor."""
        cfg = self.write_cfg(tmp_path, {**raw, "n_blocks": 4, "output_dir": str(tmp_path / "out")})
        proc = self.run_cli("profile", "--config", str(cfg))
        assert proc.returncode == 2
        assert "must be finite" in proc.stderr
        assert not (tmp_path / "out/head_stats.csv").exists()

    @pytest.mark.parametrize("command", ["generate", "profile"])
    @pytest.mark.parametrize("jitter", [1e308, -0.05], ids=repr)
    def test_scene_jitter_outside_unit_interval_exit_2(self, tmp_path, command, jitter):
        """1e308 overflowed the block input: generate exited 0 with nan
        fidelity, and profile wrote an all-nan head_stats.csv and a role map
        classified from it."""
        cfg = self.write_cfg(tmp_path, {"model": {"scene_jitter": jitter}, "n_blocks": 4,
                                        "output_dir": str(tmp_path / "out")})
        proc = self.run_cli(command, "--config", str(cfg))
        assert proc.returncode == 2
        assert "scene_jitter must be in [0, 1]" in proc.stderr
        assert not (tmp_path / "out").exists() or not any((tmp_path / "out").iterdir())

    def test_unknown_novelty_metric_exit_2(self, tmp_path):
        cfg = self.write_cfg(tmp_path, {"hyperparameters": {"novelty_metric": "latnet"},
                                        "output_dir": str(tmp_path / "out")})
        proc = self.run_cli("budget", "--config", str(cfg), "--counts", "72,90,198")
        assert proc.returncode == 2
        assert "novelty_metric" in proc.stderr

    def test_section_not_an_object_exit_2(self, tmp_path):
        cfg = self.write_cfg(tmp_path, {"model": 5, "output_dir": str(tmp_path / "out")})
        proc = self.run_cli("generate", "--config", str(cfg))
        assert proc.returncode == 2
        assert "model must be a JSON object" in proc.stderr

    def test_bad_rope_split_exit_2(self, tmp_path):
        """A split the rotary tables cannot take used to end generate with a
        ShapeError traceback and exit 1."""
        cfg = self.write_cfg(tmp_path, {"model": {"d": 6}, "n_blocks": 2,
                                        "output_dir": str(tmp_path / "out")})
        proc = self.run_cli("generate", "--config", str(cfg))
        assert proc.returncode == 2
        assert "configuration error" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("command", [["profile"], ["generate"], ["budget", "--counts", "1,1,1"],
                                         ["stability"]], ids=lambda c: c[0])
    @pytest.mark.parametrize("section", [{"profiling": {"window": 0}}, {"profiling": {"n_sink": -1}},
                                         {"strategy": {"type": "uniform_window", "W": 0}}], ids=repr)
    def test_out_of_range_spec_exit_2_under_every_command(self, tmp_path, command, section):
        """These used to load, then fail or pass depending on whether the
        command built the section's window."""
        self.assert_config_error_leaves_no_output(tmp_path, command, section)

    @pytest.mark.parametrize("command,raw", [
        (["profile"], {"profiling": {"window": 2}}),
        (["generate"], {"strategy": {"type": "head_wise"}, "head_role_map": "missing.json"}),
        (["stability"], {"stability": {"runs": 3, "prompt_pool": ["a"]}}),
    ], ids=repr)
    def test_late_config_error_leaves_no_output_dir(self, tmp_path, command, raw):
        """These fail only once the command builds its inputs; each used to
        leave an empty output directory behind."""
        self.assert_config_error_leaves_no_output(tmp_path, command, raw)

    @pytest.mark.parametrize("schedule", [[["a", 2]], [["a", 1], ["b", 3], ["c", 3]]],
                             ids=["starts_at_2", "duplicate_start"])
    def test_bad_schedule_exit_2_and_writes_nothing(self, tmp_path, schedule):
        """The schedule used to be checked only as the first block ran, after
        metrics.csv and admissions.csv had been opened: generate exited 2 but
        left both files behind, with headers only."""
        proc = self.assert_config_error_leaves_no_output(tmp_path, ["generate"], {"prompt_schedule": schedule})
        assert "prompt schedule" in proc.stderr

    @pytest.mark.parametrize("key,value", [("candidate_mode", "latest"), ("novelty_metric", "key_cosine")])
    def test_retired_hyper_key_exit_2(self, tmp_path, key, value):
        """Both keys were options whose other value no config used; an old
        config that still sets their default is refused, not ignored."""
        proc = self.assert_config_error_leaves_no_output(tmp_path, ["generate"], {"hyperparameters": {key: value}})
        assert f"unknown hyperparameters keys: ['{key}']" in proc.stderr

    @pytest.mark.parametrize("command,section,key,value", [
        ("generate", "model", "prompt_strength", 0.05),
        ("profile", "profiling", "perturb_scale", 0.05),
        ("stability", "stability", "block_sets", []),
    ], ids=repr)
    def test_retired_config_key_exit_2(self, tmp_path, command, section, key, value):
        """Each key held one value in every config; an old config that still
        sets it, even to that value, is refused under the command it fed."""
        proc = self.assert_config_error_leaves_no_output(tmp_path, [command], {section: {key: value}})
        assert f"unknown {section} keys: ['{key}']" in proc.stderr

    def test_head_wise_without_memory_head_exit_2(self, tmp_path):
        """The episodic tier refuses an empty memory-head set; without that
        check the first candidate lookup fails with an IndexError."""
        roles = [{"layer": 0, "head": h, "role": role} for h, role in enumerate(["anchor", "local"])]
        (tmp_path / "roles.json").write_text(json.dumps({"alpha_anchor": 0.5, "tau_local": 0.5,
                                                         "roles": roles}))
        proc = self.assert_config_error_leaves_no_output(tmp_path, ["generate"], {
            "model": dict(TOY_MODEL, L=1, H=2),
            "strategy": {"type": "head_wise"},
            "head_role_map": str(tmp_path / "roles.json"),
        })
        assert "needs at least one memory head" in proc.stderr

    def assert_config_error_leaves_no_output(self, tmp_path, command, raw):
        cfg = self.write_cfg(tmp_path, {**raw, "n_blocks": 2, "output_dir": str(tmp_path / "out")})
        proc = self.run_cli(command[0], "--config", str(cfg), *command[1:])
        assert proc.returncode == 2
        assert "configuration error" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not (tmp_path / "out").exists()
        return proc

    def test_missing_config_exit_2(self, tmp_path):
        proc = self.run_cli("generate", "--config", str(tmp_path / "nope.json"))
        assert proc.returncode == 2

    def test_seed_override_changes_outputs(self, tmp_path):
        cfg = self.write_cfg(tmp_path, {
            "model": dict(TOY_MODEL),
            "prompt_schedule": [["x", 1]],
            "n_blocks": 6,
            "output_dir": str(tmp_path / "out"),
        })
        a = self.run_cli("profile", "--config", str(cfg), "--out", str(tmp_path / "a"))
        b = self.run_cli("profile", "--config", str(cfg), "--out", str(tmp_path / "b"),
                         "--seed", "7")
        assert a.returncode == 0 and b.returncode == 0
        assert (tmp_path / "a/head_stats.csv").read_bytes() != (tmp_path / "b/head_stats.csv").read_bytes()

    def test_stability_subcommand(self, tmp_path):
        cfg = self.write_cfg(tmp_path, {
            "model": dict(TOY_MODEL),
            "prompt_schedule": [["x", 1]],
            "n_blocks": 4,
            "output_dir": str(tmp_path / "out"),
            "stability": {"runs": 2, "axis": "inject_disjoint_anchor"},
        })
        proc = self.run_cli("stability", "--config", str(cfg))
        assert proc.returncode == 0
        assert (tmp_path / "out/stability.csv").exists()
        assert (tmp_path / "out/role_map_run1.json").exists()

    def test_generate_with_oracle_flag(self, tmp_path):
        cfg = self.write_cfg(tmp_path, {
            "model": dict(TOY_MODEL),
            "strategy": {"type": "unbounded"},
            "prompt_schedule": [["x", 1]],
            "n_blocks": 2,
            "output_dir": str(tmp_path / "out"),
        })
        proc = self.run_cli("generate", "--config", str(cfg), "--with-oracle")
        assert proc.returncode == 0
        rows = list(csv.DictReader((tmp_path / "out/metrics.csv").open()))
        assert all(row["fidelity"] for row in rows)


class TestCliUnusableFiles:
    """Run through `cli.main`: each of these used to end in a traceback and
    exit 1 instead of a configuration error and exit 2."""

    @staticmethod
    def run_main(capsys, *args):
        code = main(list(args))
        return code, capsys.readouterr().err

    def test_non_utf8_config_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_bytes(b"\xff" + json.dumps({"output_dir": str(tmp_path / "out")}).encode())
        code, err = self.run_main(capsys, "generate", "--config", str(cfg))
        assert code == 2
        assert f"configuration error: config file {cfg} cannot be read" in err
        assert "can't decode byte 0xff" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["generate", "budget"])
    def test_non_utf8_role_map_exit_2(self, tmp_path, capsys, command):
        roles = tmp_path / "roles.json"
        roles.write_bytes(b"\xff{}")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"strategy": {"type": "head_wise"}, "head_role_map": str(roles),
                                   "n_blocks": 1, "output_dir": str(tmp_path / "out")}))
        code, err = self.run_main(capsys, command, "--config", str(cfg))
        assert code == 2
        assert f"configuration error: role map file {roles} cannot be read" in err
        assert not (tmp_path / "out").exists()

    def test_budget_out_names_a_file_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({}))
        code, err = self.run_main(capsys, "budget", "--config", str(cfg), "--out", str(cfg),
                                  "--counts", "1,1,1")
        assert code == 2
        assert f"configuration error: output directory {cfg} cannot be created" in err
        assert cfg.read_text() == "{}"

    def test_generate_output_dir_names_a_file_exit_2(self, tmp_path, capsys):
        taken = tmp_path / "taken"
        taken.write_text("kept")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n_blocks": 1, "output_dir": str(taken)}))
        code, err = self.run_main(capsys, "generate", "--config", str(cfg))
        assert code == 2
        assert f"configuration error: output directory {taken} cannot be created" in err
        assert taken.read_text() == "kept"

    @pytest.mark.parametrize("command, name", [
        ("generate", "metrics.csv"), ("generate", "final_state.json"),
        ("budget", "budget.csv"), ("profile", "role_map.json"),
    ])
    def test_output_file_that_is_a_directory_exit_2(self, tmp_path, capsys, command, name):
        out = tmp_path / "out"
        (out / name).mkdir(parents=True)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model": TOY_MODEL, "prompt_schedule": [["x", 1]], "n_blocks": 3,
                                   "profiling": {"sampled_blocks": [3], "repeats": 1}}))
        extra = ["--counts", "1,1,1"] if command == "budget" else []
        code, err = self.run_main(capsys, command, "--config", str(cfg), "--out", str(out), *extra)
        assert code == 2
        assert f"configuration error: output file {out / name} cannot be written" in err
        assert (out / name).is_dir()
        if name == "final_state.json":
            # every output opens before the first block: no block ran
            assert (out / "metrics.csv").read_text().splitlines()[1:] == []

    @pytest.mark.parametrize("text, repeated", [
        ('{"n_blocks": 2, "n_blocks": 3}', "n_blocks"),
        ('{"model": {"seed": 1, "seed": 2}}', "seed"),
        ('{"model": {"seed": 1}, "model": {"L": 2}}', "model"),
    ], ids=["top_level", "in_a_section", "a_whole_section"])
    def test_repeated_config_key_exit_2(self, tmp_path, capsys, text, repeated):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        code, err = self.run_main(capsys, "budget", "--config", str(cfg), "--out", str(tmp_path / "out"),
                                  "--counts", "1,1,1")
        assert code == 2
        assert f"configuration error: config repeats the JSON key '{repeated}'" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("text, repeated", [
        ('{"alpha_anchor": 0.0, "tau_local": 0.0, '
         '"roles": [{"layer": 0, "head": 0, "role": "memory", "role": "anchor"}]}', "role"),
        ('{"alpha_anchor": 0.0, "tau_local": 0.0, "alpha_anchor": 0.5, '
         '"roles": [{"layer": 0, "head": 0, "role": "memory"}]}', "alpha_anchor"),
    ], ids=["in_a_role_entry", "a_threshold"])
    def test_repeated_role_map_key_exit_2(self, tmp_path, capsys, text, repeated):
        roles = tmp_path / "roles.json"
        roles.write_text(text)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"head_role_map": str(roles), "output_dir": str(tmp_path / "out")}))
        code, err = self.run_main(capsys, "budget", "--config", str(cfg))
        assert code == 2
        assert f"configuration error: role map repeats the JSON key '{repeated}'" in err
        assert not (tmp_path / "out").exists()


class TestCliUnreadKeys:
    """Keys that the chosen strategy type or stability axis never reads used
    to be ignored with exit 0; each is now refused at load, through
    `cli.main`, before any output directory is made."""

    @pytest.mark.parametrize("command, raw, key, choice", [
        ("generate", {"strategy": {"W": 6}}, "strategy.W", "unbounded"),
        ("generate", {"strategy": {"type": "unbounded", "W": 6}}, "strategy.W", "unbounded"),
        ("generate", {"strategy": {"type": "head_wise", "W": 6}}, "strategy.W", "head_wise"),
        ("generate", {"strategy": {"type": "unbounded", "n_sink": 1}}, "strategy.n_sink", "unbounded"),
        ("generate", {"strategy": {"type": "uniform_window", "W": 6, "n_sink": 3}}, "strategy.n_sink",
         "uniform_window"),
        ("generate", {"strategy": {"type": "head_wise", "n_sink": 1}}, "strategy.n_sink", "head_wise"),
        ("stability", {"stability": {"axis": "blocks", "prompt_pool": ["x", "y"]}}, "stability.prompt_pool",
         "blocks"),
        ("stability", {"stability": {"axis": "repeats", "prompt_pool": ["x", "y"]}}, "stability.prompt_pool",
         "repeats"),
        ("stability", {"stability": {"axis": "inject_disjoint_anchor", "prompt_pool": ["x", "y"]}},
         "stability.prompt_pool", "inject_disjoint_anchor"),
    ], ids=lambda v: v if isinstance(v, str) else None)
    def test_unread_key_exit_2(self, tmp_path, capsys, command, raw, key, choice):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model": TOY_MODEL, "n_blocks": 2, "output_dir": str(tmp_path / "out"),
                                   **raw}))
        code = main([command, "--config", str(cfg)])
        err = capsys.readouterr().err
        assert code == 2
        assert f"configuration error: {key} is read only when" in err
        assert f"not {choice!r}" in err
        assert not (tmp_path / "out").exists()


class TestConfigLoading:
    @pytest.mark.parametrize("raw", [
        {"modle": {}},
        {"model": {"seeds": 1}},
        {"strategy": {"type": "sink_window", "w": 8}},
        {"hyperparameters": {"b_epi": 5}},
        {"hyperparameters": {"tau_novelty": 0.9}},
        {"hyperparameters": {"candidate_mode": "latest"}},
        {"hyperparameters": {"novelty_metric": "key_cosine"}},
        {"model": {"prompt_strength": 0.05}},
        {"profiling": {"perturb_scale": 0.05}},
        {"stability": {"block_sets": []}},
        {"hyperparameters": {"rope": {"d_x": 4}}},
        {"profiling": {"repeat": 2}},
        {"stability": {"axes": "blocks"}},
    ], ids=repr)
    def test_unknown_keys_rejected(self, tmp_path, raw):
        p = tmp_path / "c.json"
        p.write_text(json.dumps(raw))
        with pytest.raises(ConfigError, match="unknown .* keys"):
            load_config(p)

    def test_defaults_mirror_reference_settings(self):
        cfg = config_from_dict({})
        assert cfg.hyper.b_epi == 5
        assert cfg.hyper.b_fast == 3
        assert cfg.hyper.tau_novel == 0.95
        assert cfg.hyper.update_interval == 3
        assert cfg.model.f == 3
        assert cfg.hyper == HeadWiseHyper()
        assert cfg.profiling == ProfilingSpec()
        assert cfg.stability == StabilitySpec()
        assert cfg.strategy == StrategySpec()
        assert cfg.rope == RopeParams.default_for(16)
        assert cfg.model == ModelConfig(L=4, H=6, d=16, s=16, f=3, grid_h=4, grid_w=4)
        assert (cfg.alpha_anchor, cfg.tau_local, cfg.n_blocks, cfg.output_dir) == (0.25, 0.20, 8, "out")
        assert cfg.head_role_map is None

    @pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.json")), ids=lambda p: p.name)
    def test_shipped_configs_load(self, path):
        assert load_config(path).output_dir == json.loads(path.read_text())["output_dir"]

    @pytest.mark.parametrize("raw", [
        {"n_blocks": 1.7},
        {"n_blocks": True},
        {"hyperparameters": {"tau_novel": "nan"}},
        {"hyperparameters": {"tau_novel": float("inf")}},
        {"hyperparameters": {"B_epi": True}},
        {"hyperparameters": {"B_fast": 3.0}},
        {"hyperparameters": {"update_interval": 2.9}},
        {"strategy": {"type": "uniform_window", "W": True}},
        {"strategy": {"type": "sink_window", "n_sink": 1.5}},
        {"profiling": {"repeats": 2.0}},
        {"profiling": {"window": "8"}},
        {"profiling": {"sampled_blocks": [3, 8.5]}},
        {"model": {"L": 4.0}},
        {"hyperparameters": {"tau_novel": "high"}},
        {"hyperparameters": {"rope": {"d_t": 8.0}}},
        {"model": 5},
        {"hyperparameters": {"rope": 5}},
        {"strategy": "head_wise"},
        {"profiling": {"sampled_blocks": 3}},
        {"stability": {"block_sets": [3, 4]}},
        {"head_role_map": 5},
        {"prompt_schedule": [[5, 1]]},
        {"prompt_schedule": [["a", 2]]},
        {"prompt_schedule": [["a", 1], ["b", 3], ["c", 3]]},
        {"prompt_schedule": [["a", 0], ["b", 1]]},
        {"stability": {"prompt_pool": [5]}},
        {"output_dir": 5},
        {"hyperparameters": {"novelty_metric": "latnet"}},
        {"hyperparameters": {"candidate_mode": "newest"}},
        {"hyperparameters": {"rope": {"base": 0.5}}},
        {"hyperparameters": {"rope": {"d_t": -2, "d_h": 10, "d_w": 8}}},
        {"model": {"d": 6}},
        {"profiling": {"window": 0}},
        {"profiling": {"n_sink": -1}},
        {"profiling": {"repeats": 0}},
        {"profiling": {"sampled_blocks": []}},
        {"profiling": {"sampled_blocks": [2, 8]}},
        {"strategy": {"type": "uniform_window", "W": 0}},
        {"strategy": {"type": "sink_window", "n_sink": -1}},
    ], ids=repr)
    def test_malformed_values_rejected_not_coerced(self, raw):
        with pytest.raises(ConfigError):
            config_from_dict(raw)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")], ids=repr)
    @pytest.mark.parametrize("path", [
        ("model", "scene_jitter"),
        ("hyperparameters", "alpha_anchor"),
        ("hyperparameters", "tau_local"),
        ("hyperparameters", "tau_novel"),
        ("hyperparameters", "rope", "base"),
    ], ids=".".join)
    def test_real_values_must_be_finite(self, tmp_path, path, value):
        """json.loads accepts NaN, Infinity and -Infinity; each real-valued
        field refuses them."""
        raw = {}
        section = raw
        for key in path[:-1]:
            section = section.setdefault(key, {})
        section[path[-1]] = value
        p = tmp_path / "c.json"
        p.write_text(json.dumps(raw))
        with pytest.raises(ConfigError, match="must be finite"):
            load_config(p)

    def test_rope_split_must_match_model(self):
        with pytest.raises(ConfigError):
            config_from_dict({"hyperparameters": {"rope": {"d_t": 4, "d_h": 2, "d_w": 2}}})

    @staticmethod
    def role_map_json(last=None, extra=None, **top):
        """A 2x2 role map; `last` edits the (1, 1) entry, `extra` appends an
        entry, `top` replaces thresholds. Each fault below is one a lenient
        parser accepts: the last duplicate winning, int() truncating 1.9 to
        the valid head 1, float() parsing "0.2"."""
        entries = [{"layer": l, "head": h, "role": "memory"} for l in range(2) for h in range(2)]
        entries[-1].update(last or {})
        payload = {"alpha_anchor": 0.25, "tau_local": 0.2, "roles": entries + ([extra] if extra else [])}
        payload.update(top)
        return json.dumps(payload)

    def test_role_map_well_formed_loads(self):
        role_map = HeadRoleMap.from_json(self.role_map_json())
        assert (role_map.layers, role_map.heads, role_map.alpha_anchor) == (2, 2, 0.25)

    @pytest.mark.parametrize("changes", [
        {"extra": {"layer": 0, "head": 0, "role": "anchor"}},
        {"extra": {"layer": 1, "head": 1, "role": "memory"}},
        {"last": {"head": 1.9}},
        {"last": {"head": 1.0}},
        {"last": {"layer": True}},
        {"last": {"head": "1"}},
        {"alpha_anchor": True},
        {"alpha_anchor": "0.2"},
        {"tau_local": False},
        {"tau_local": "0.2"},
        {"alpha_anchor": float("nan")},
        {"alpha_anchor": float("inf")},
        {"tau_local": float("nan")},
        {"tau_local": float("-inf")},
    ], ids=repr)
    def test_malformed_role_map_rejected_not_coerced(self, tmp_path, changes):
        text = self.role_map_json(**changes)
        with pytest.raises(ConfigError):
            HeadRoleMap.from_json(text)
        path = tmp_path / "roles.json"
        path.write_text(text)
        cfg = config_from_dict({"strategy": {"type": "head_wise"}, "head_role_map": str(path),
                                "model": dict(TOY_MODEL, L=2, H=2), "n_blocks": 1,
                                "output_dir": str(tmp_path / "out")})
        with pytest.raises(ConfigError):
            cmd_generate(cfg)

    @pytest.mark.parametrize("anchor, local", [
        ([(5, 0)], []), ([], [(0, 3)]), ([(-1, 0)], []), ([(0, 0)], [(2, 2)]),
    ], ids=repr)
    def test_role_map_from_lists_rejects_heads_outside_grid(self, anchor, local):
        with pytest.raises(ConfigError, match="outside the 2x3 grid"):
            role_map_from_lists(2, 3, anchor=anchor, local=local)

    def test_role_map_path_kept_verbatim(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text(json.dumps({"head_role_map": "out/roles.json",
                                 "prompt_schedule": [["x", 1]], "n_blocks": 1,
                                 "output_dir": "out"}))
        cfg = load_config(p)
        assert cfg.head_role_map == "out/roles.json"
