"""Output checks. Every check evaluated counts as attempted; a check that
does not hold counts as failed, with its label kept for the report."""

from __future__ import annotations

from collections import Counter

import numpy as np

from workloads import round_half_up


class Checks:
    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: Counter[str] = Counter()

    def check(self, ok: bool, label: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures[label] += 1
        return ok

    @property
    def failed_share(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0


def latents_finite(checks: Checks, frames: list[np.ndarray]) -> None:
    checks.check(all(np.isfinite(fr).all() for fr in frames), "latents finite")


def episodic_invariants(checks: Checks, episodic) -> None:
    """At most B_epi entries, a summary only at index 0, and the same logical
    entry sequence on every memory head."""
    entries = episodic.entries
    checks.check(len(entries) <= episodic.capacity, "episodic entries <= B_epi")
    checks.check(all(not e.is_summary for e in entries[1:]), "summary only at index 0")
    sequences = {episodic.slot_identity_sequence(l, h) for (l, h) in episodic.memory_heads}
    checks.check(len(sequences) == 1, "same entry sequence on every memory head")


def frame_slots_attended(strategy, heads: list[tuple[int, int]], f: int) -> int:
    """Frames attended in the next step, summed over heads: history plus the current block."""
    return sum(len(strategy.history_frames(l, h)) + f for (l, h) in heads)


def profile_report(checks: Checks, report, role_map, reference_map) -> None:
    """Bucket proportions sum to 1, role counts meet the quotas, and the
    seed's role map is reproduced."""
    sums = report.means.sum(axis=2)
    checks.check(bool(np.all(np.abs(sums - 1.0) <= 1e-9)), "bucket proportions sum to 1")
    total = report.layers * report.heads
    counts = {role.value: n for role, n in role_map.counts().items()}
    checks.check(counts["anchor"] == round_half_up(role_map.alpha_anchor * total)
                 and counts["local"] == round_half_up(role_map.tau_local * total),
                 "role counts equal the round_half_up quotas")
    if reference_map is not None:
        checks.check(role_map.roles == reference_map.roles, "same seed gives the same role map")
