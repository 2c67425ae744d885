import csv
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

from headkv.commands import cmd_budget, cmd_generate, cmd_profile, cmd_stability
from headkv.config import config_from_dict, load_config
from headkv.errors import ConfigError
from headkv.profiling import core_stability_ratio
from headkv.roles import HeadRole, HeadRoleMap

GOLDEN = Path(__file__).parent / "golden"

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
        cfg = self.generate_cfg(tmp_path, {"type": "uniform_window", "W": 4}, n_blocks=5)
        cfg.oracle_auto_limit = 3
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


class TestConfigLoading:
    def test_unknown_keys_rejected(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text(json.dumps({"modle": {}}))
        with pytest.raises(ConfigError):
            load_config(p)

    def test_defaults_mirror_reference_settings(self):
        cfg = config_from_dict({})
        assert cfg.hyper.b_epi == 5
        assert cfg.hyper.b_fast == 3
        assert cfg.hyper.tau_novel == 0.95
        assert cfg.hyper.update_interval == 3
        assert cfg.model.f == 3

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
    ], ids=repr)
    def test_malformed_values_rejected_not_coerced(self, raw):
        with pytest.raises(ConfigError):
            config_from_dict(raw)

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

    def test_role_map_path_kept_verbatim(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text(json.dumps({"head_role_map": "out/roles.json",
                                 "prompt_schedule": [["x", 1]], "n_blocks": 1,
                                 "output_dir": "out"}))
        cfg = load_config(p)
        assert cfg.head_role_map == "out/roles.json"
