import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def start_digests() -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, str(ROOT / "tools" / "output_digests.py"), str(ROOT), "--grids", "toy"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )


def finish(proc: subprocess.Popen) -> str:
    out, err = proc.communicate()
    assert proc.returncode == 0, err
    return out


def test_toy_digests_repeat_exactly():
    # two independent runs, started together so they overlap
    first, second = [finish(proc) for proc in [start_digests(), start_digests()]]
    lines = first.splitlines()
    # seven strategies, the profile means, cmd_generate's outputs and the
    # other three commands' outputs, one sha256 each
    assert len(lines) == 10
    assert all(line.startswith("toy ") and len(line.rsplit(" ", 1)[1]) == 64 for line in lines)
    assert len({line.rsplit(" ", 1)[1] for line in lines}) == 10
    assert lines[6].startswith("toy head_wise(mixed roles) ")
    assert lines[-2].startswith("toy cmd_generate(head_wise, oracle) ")
    assert lines[-1].startswith("toy commands(profile, budget, stability) ")
    assert second == first


def test_unknown_grid_rejected():
    result = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "output_digests.py"), str(ROOT), "--grids", "huge"],
        capture_output=True, text=True,
    )
    assert result.returncode == 2
    assert "unknown grids: huge" in result.stderr
