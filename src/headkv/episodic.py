"""Episodic memory: novelty-gated admission, redundancy detection, and
prompt-guided compression of overflow entries into a single summary frame.

One EpisodicMemory instance is shared by all memory heads of a rollout. Each
logical entry materializes one FrameKV per (layer, memory-head) slot, and the
admission decision is global: every slot stores exactly the same logical
entry sequence at all times.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .cache import FrameKV
from .errors import ConfigError, ShapeError

Slots = dict[tuple[int, int], FrameKV]


def _cosine(a: tuple[np.ndarray, float], b: tuple[np.ndarray, float]) -> float:
    """Cosine of two (vector, L2 norm) pairs; 0 when either norm is 0."""
    (va, na), (vb, nb) = a, b
    if na == 0.0 or nb == 0.0:
        return 0.0
    return float(np.dot(va, vb) / (na * nb))


@dataclass
class EpisodicEntry:
    """One logical episodic frame, materialized per (layer, memory-head)."""

    frame_index: int              # source global frame; -1 for the summary
    is_summary: bool
    slots: Slots


@dataclass
class AdmissionDecision:
    block_index: int
    delta: float
    admitted: bool
    compressed: bool


@dataclass
class EpisodicMemory:
    capacity: int                              # B_epi, summary included
    memory_heads: list[tuple[int, int]]
    tokens_per_frame: int                      # s; summaries hold exactly s tokens
    entries: list[EpisodicEntry] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.capacity < 1:
            raise ConfigError("episodic capacity must be >= 1")
        if not self.memory_heads:
            raise ConfigError("episodic memory needs at least one memory head")

    @property
    def summary_present(self) -> bool:
        return bool(self.entries) and self.entries[0].is_summary

    def slot_frames(self, layer: int, head: int) -> list[FrameKV]:
        return [e.slots[(layer, head)] for e in self.entries]

    def slot_identity_sequence(self, layer: int, head: int) -> tuple:
        """Logical entry list as seen from one slot; used by the global
        consistency hash check."""
        out = []
        for e in self.entries:
            fr = e.slots.get((layer, head))
            if fr is None:
                raise ConfigError(f"entry missing slot for head ({layer}, {head})")
            out.append((fr.global_frame_index, fr.is_summary, fr.tokens))
        return tuple(out)

    # -- scoring ----------------------------------------------------------

    def _check_candidate(self, candidate: Slots) -> None:
        if set(candidate) != set(self.memory_heads):
            raise ConfigError("candidate slots do not cover the memory-head set")

    def novelty_score(self, candidate: Slots) -> float:
        """Max over stored entries of the layer/head-averaged cosine between
        mean-pooled keys. Defined as -1 for an empty memory (forced admit)."""
        self._check_candidate(candidate)
        if not self.entries:
            return -1.0
        return max(self._similarity(candidate, entry.slots) for entry in self.entries)

    def _similarity(self, a: Slots, b: Slots) -> float:
        """Mean over memory heads of the cosine between mean-pooled keys."""
        sims = [_cosine(a[lh].pooled_key, b[lh].pooled_key) for lh in self.memory_heads]
        return sum(sims) / len(sims)

    def find_redundant_pair(self) -> tuple[int, int]:
        """Most similar unordered entry pair (initial overflow, no summary yet);
        ties break to the lexicographically smallest (i, j)."""
        if self.summary_present:
            raise ConfigError("redundant-pair search applies before a summary exists")
        n = len(self.entries)
        if n < 2:
            raise ConfigError("redundant-pair search needs at least 2 entries")
        best_pair = (0, 1)
        best_sim = -np.inf
        for i in range(n):
            for j in range(i + 1, n):
                sim = self._similarity(self.entries[i].slots, self.entries[j].slots)
                if sim > best_sim:
                    best_sim, best_pair = sim, (i, j)
        return best_pair

    def select_merge_victim(self) -> int:
        """Non-summary entry whose average similarity to its adjacent
        non-summary neighbors is highest (one neighbor at the list ends, two
        inside); ties break to the smallest index. Requires a summary at 0."""
        if not self.summary_present:
            raise ConfigError("merge-victim selection requires an existing summary")
        n = len(self.entries)
        if n - 1 < 2:
            raise ConfigError("merge-victim selection needs >= 2 non-summary entries")
        # adjacent[i - 1] is the similarity of entries i and i + 1, so entry
        # idx's neighbor similarities are adjacent[idx - 2] and adjacent[idx - 1]
        adjacent = [self._similarity(self.entries[i].slots, self.entries[i + 1].slots) for i in range(1, n - 1)]
        best_idx = 1
        best_score = -np.inf
        for idx in range(1, n):
            pairs = adjacent[max(idx - 2, 0):idx]
            score = sum(pairs) / len(pairs)
            if score > best_score:
                best_score, best_idx = score, idx
        return best_idx

    # -- compression ------------------------------------------------------

    def compress_into_summary(self, first: EpisodicEntry, second: EpisodicEntry,
                              prompt_keys: dict[tuple[int, int], np.ndarray]) -> EpisodicEntry:
        """Merge two entries into one summary of exactly s tokens per slot.

        Per layer, the 2s concatenated tokens are ranked by the memory-head
        mean cosine between each key row and that layer's prompt key; the
        top-s (ties by original position, ascending) are gathered for keys and
        values alike. One index set per layer, shared by that layer's heads.
        """
        s = self.tokens_per_frame
        for e in (first, second):
            for lh in self.memory_heads:
                if e.slots[lh].tokens != s:
                    raise ShapeError(
                        f"compression operands must hold {s} tokens, got {e.slots[lh].tokens}"
                    )
        layers = sorted({l for (l, _) in self.memory_heads})
        heads_by_layer = {l: [lh for lh in self.memory_heads if lh[0] == l] for l in layers}

        slots: Slots = {}
        for l in layers:
            heads = heads_by_layer[l]
            r = np.zeros(2 * s)
            cat_keys_by_head = {}
            for lh in heads:
                cat_keys = cat_keys_by_head[lh] = np.vstack([first.slots[lh].keys, second.slots[lh].keys])
                pk = np.asarray(prompt_keys[lh])
                pk_norm = float(np.linalg.norm(pk))
                row_norms = np.linalg.norm(cat_keys, axis=1)
                denom = row_norms * pk_norm
                sims = np.where(denom > 0.0, cat_keys @ pk / np.where(denom == 0.0, 1.0, denom), 0.0)
                r += sims
            r /= len(heads)
            # stable sort: ties keep ascending position
            order = np.argsort(-r, kind="stable")[:s]
            for lh in heads:
                a, b = first.slots[lh], second.slots[lh]
                cat_keys = cat_keys_by_head[lh]
                cat_vals = np.vstack([a.values, b.values])
                cat_prov = np.vstack([a.provenance, b.provenance])
                slots[lh] = FrameKV(
                    keys=cat_keys[order],
                    values=cat_vals[order],
                    global_frame_index=-1,
                    is_summary=True,
                    provenance=cat_prov[order],
                )
        return EpisodicEntry(frame_index=-1, is_summary=True, slots=slots)

    def _compress_overflow(self, prompt_keys: dict[tuple[int, int], np.ndarray]) -> None:
        if not self.summary_present:
            i, j = self.find_redundant_pair()
            summary = self.compress_into_summary(self.entries[i], self.entries[j], prompt_keys)
            remaining = [e for idx, e in enumerate(self.entries) if idx not in (i, j)]
        else:
            if len(self.entries) - 1 >= 2:
                j = self.select_merge_victim()
            else:
                j = 1  # a single non-summary entry is the only possible victim
            summary = self.compress_into_summary(self.entries[0], self.entries[j], prompt_keys)
            remaining = [e for idx, e in enumerate(self.entries) if idx not in (0, j)]
        self.entries = [summary] + remaining

    # -- admission --------------------------------------------------------

    def try_admit(self, candidate: Slots, frame_index: int, block_index: int,
                  tau_novel: float, prompt_keys: dict[tuple[int, int], np.ndarray]) -> AdmissionDecision:
        """One admission transaction: score, reject or append, and compress in
        the same transaction if the append overflows capacity."""
        delta = self.novelty_score(candidate)
        if delta >= tau_novel:
            return AdmissionDecision(block_index, delta, admitted=False, compressed=False)
        self.entries.append(EpisodicEntry(frame_index=frame_index, is_summary=False, slots=dict(candidate)))
        compressed = False
        if len(self.entries) > self.capacity:
            self._compress_overflow(prompt_keys)
            compressed = True
        return AdmissionDecision(block_index, delta, admitted=True, compressed=compressed)
