"""tools/pair_bench.py: the paired verdict on synthetic samples, the bound
check, and the exit status on stub checkouts."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("pair_bench", ROOT / "tools" / "pair_bench.py")
pair_bench = importlib.util.module_from_spec(_spec)
sys.modules["pair_bench"] = pair_bench      # dataclasses look the module up by name
_spec.loader.exec_module(pair_bench)

PARENT = [2.0, 2.1, 2.2, 2.3, 2.4, 2.0, 2.1, 2.2, 2.3, 2.4]   # quartile distance 0.25


class TestVerdict:
    def test_nine_of_ten_wins_beyond_the_parents_spread_is_met(self):
        change = [p - 0.5 for p in PARENT[:9]] + [PARENT[9] + 0.1]
        v = pair_bench.verdict(PARENT, change, "lower")
        assert (v.wins, v.losses, v.ties) == (9, 1, 0)
        assert v.gain > v.parent_iqr
        assert v.met

    def test_eight_of_ten_wins_is_not_met(self):
        change = [p - 0.5 for p in PARENT[:8]] + [p + 0.1 for p in PARENT[8:]]
        v = pair_bench.verdict(PARENT, change, "lower")
        assert (v.wins, v.losses) == (8, 2)
        assert v.gain > v.parent_iqr
        assert not v.met

    def test_ties_count_for_neither_side(self):
        change = [p - 0.5 for p in PARENT[:8]] + PARENT[8:]
        v = pair_bench.verdict(PARENT, change, "lower")
        assert (v.wins, v.losses, v.ties, v.pairs) == (8, 0, 2, 10)
        assert not v.met
        change[8] -= 0.5
        assert pair_bench.verdict(PARENT, change, "lower").met

    def test_a_gain_within_the_parents_spread_is_not_met(self):
        change = [p - 0.2 for p in PARENT]
        v = pair_bench.verdict(PARENT, change, "lower")
        assert v.wins == 10
        assert v.gain == pytest.approx(0.2)
        assert v.parent_iqr == pytest.approx(0.25)
        assert not v.met

    def test_better_higher_is_honoured(self):
        change = [p + 0.5 for p in PARENT]
        assert pair_bench.verdict(PARENT, change, "higher").met
        lower = pair_bench.verdict(PARENT, change, "lower")
        assert (lower.wins, lower.losses) == (0, 10)
        assert lower.gain < 0 and not lower.met

    def test_mismatched_or_unknown_input_is_refused(self):
        with pytest.raises(ValueError):
            pair_bench.verdict(PARENT, PARENT[:9], "lower")
        with pytest.raises(ValueError):
            pair_bench.verdict(PARENT, PARENT, "smaller")


class TestRegression:
    def test_worse_than_the_bound(self):
        assert pair_bench.regression([10.0] * 5, [10.4] * 5, "lower", 0.05) == "ok"
        assert pair_bench.regression([10.0] * 5, [10.6] * 5, "lower", 0.05) == "worse"
        assert pair_bench.regression([1.0] * 5, [0.98] * 5, "higher", 0.01) == "worse"

    def test_unresolved_when_the_parent_spreads_beyond_the_bound(self):
        parent = [8.0, 9.0, 10.0, 11.0, 12.0]
        assert pair_bench.regression(parent, [10.0] * 5, "lower", 0.05) == "unresolved"
        # unless every change run beats every parent run
        assert pair_bench.regression(parent, [7.0] * 5, "lower", 0.05) == "ok"


def stub_checkout(tmp_path: Path, name: str, correct: bool, p90: float) -> Path:
    """A directory with the repository's BENCHMARK.json and a perfbench/run.py
    that prints one result line."""
    root = tmp_path / name
    (root / "perfbench").mkdir(parents=True)
    (root / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: {"value": 1.0, "unit": m["unit"]} for m in declared["end_to_end"]}
    metrics["block_ms_p90"]["value"] = p90
    result = {"correct": correct, "attempted": 1, "failed": 0 if correct else 1, "metrics": metrics}
    (root / "perfbench" / "run.py").write_text(f"print({json.dumps(json.dumps(result))})\n")
    return root


class TestExitStatus:
    def run(self, parent: Path, change: Path) -> int:
        return pair_bench.main([str(parent), str(change), "--workload", "toy-churn", "--pairs", "2",
                                "--seed", "0", "--seconds", "1", "--claim", "block_ms_p90"])

    def test_met_claim_exits_zero(self, tmp_path, capsys):
        parent = stub_checkout(tmp_path, "parent", True, 2.0)
        assert self.run(parent, stub_checkout(tmp_path, "change", True, 1.5)) == 0
        assert "claim block_ms_p90: met" in capsys.readouterr().out

    def test_unmet_claim_exits_two(self, tmp_path):
        parent = stub_checkout(tmp_path, "parent", True, 2.0)
        assert self.run(parent, stub_checkout(tmp_path, "change", True, 2.0)) == 2

    def test_incorrect_run_exits_one(self, tmp_path, capsys):
        parent = stub_checkout(tmp_path, "parent", True, 2.0)
        assert self.run(parent, stub_checkout(tmp_path, "change", False, 1.5)) == 1
        assert "correct=false" in capsys.readouterr().err


class TestOrderEffect:
    def test_median_difference_per_first_side(self):
        parent = [2.0, 2.5, 2.0, 2.5, 2.0]
        change = [2.5, 2.0, 2.5, 2.1, 2.3]
        firsts = ["parent", "change", "parent", "change", "parent"]
        assert pair_bench.order_effect(parent, change, firsts) == (
            pytest.approx(0.5), pytest.approx(-0.45))

    def test_an_order_no_pair_ran_in_is_none(self):
        assert pair_bench.order_effect([1.0], [1.5], ["parent"]) == (0.5, None)

    def test_every_report_shows_the_order_effect(self, tmp_path, capsys, monkeypatch):
        """Faked runs in which the side that runs second in a pair reads
        1.0 ms more block_ms_p90: the gain shows only in one order."""
        calls = []

        def fake_run(checkout, workload, seed, seconds):
            second = bool(calls) and calls[-1][1] == seed
            calls.append((checkout.name, seed))
            return {name: 10.0 + (name == "block_ms_p90") * second for name in metrics}

        declared = json.loads((ROOT / "BENCHMARK.json").read_text())
        metrics = [m["name"] for m in declared["end_to_end"]]
        monkeypatch.setattr(pair_bench, "run", fake_run)
        parent = stub_checkout(tmp_path, "parent", True, 2.0)
        change = stub_checkout(tmp_path, "change", True, 2.0)
        assert pair_bench.main([str(parent), str(change), "--workload", "toy-churn", "--pairs", "4",
                                "--seed", "0"]) == 0
        assert [name for name, _ in calls] == ["parent", "change", "change", "parent"] * 2
        out = capsys.readouterr().out
        assert "parent first (2 pairs)" in out and "change first (2 pairs)" in out
        rows = {line.split()[0]: line.split()[2:] for line in out.split("run order:")[1].splitlines()[2:]}
        assert rows["block_ms_p90"] == ["+1", "-1"]
        assert rows["fidelity"] == ["+0", "+0"]
