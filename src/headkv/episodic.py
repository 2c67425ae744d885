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


# the memory heads' mean-pooled keys stacked in memory-head order (n, d),
# their L2 norms (n,), and which norms are non-zero (n,)
Pooled = tuple[np.ndarray, np.ndarray, np.ndarray]


def _similarities(a: list[Pooled], b: list[Pooled]) -> list[float]:
    """Similarity of each pair (a[i], b[i]): the mean over memory heads of
    the cosine between mean-pooled keys, where a head whose norm is 0 on
    either side adds 0. A head's dot product is its (1, d) @ (d, 1) matmul,
    which gives the bits of np.dot on the two vectors, and each mean sums
    the heads left to right, as sum() over a list of floats does."""
    va, na, nza = (np.concatenate(part) for part in zip(*a))
    vb, nb, nzb = (np.concatenate(part) for part in zip(*b))
    dots = np.matmul(va[:, None, :], vb[:, :, None]).reshape(len(na))
    cosines = np.divide(dots, na * nb, out=np.zeros(len(na)), where=nza & nzb)
    n = len(a[0][1])
    return [sum(row) / n for row in cosines.reshape(len(a), n).tolist()]


def _interleave(first: list[np.ndarray], second: list[np.ndarray]) -> np.ndarray:
    """(n, 2 * rows, cols) stack of first[i]'s rows then second[i]'s, for n
    pairs of (rows, cols) arrays."""
    flat = np.concatenate([x for pair in zip(first, second) for x in pair])
    return flat.reshape(len(first), -1, flat.shape[1])


@dataclass
class EpisodicEntry:
    """One logical episodic frame, materialized per (layer, memory-head); its
    frames share its global frame index, which is -1 for the summary."""

    slots: Slots
    # built by the memory the first time the entry is scored, as a candidate
    # or as a stored entry, and dropped with it
    pooled: Pooled | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def frame_index(self) -> int:
        """The source global frame; -1 for the summary."""
        return next(iter(self.slots.values())).global_frame_index

    @property
    def is_summary(self) -> bool:
        return self.frame_index == -1


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

    def novelty_score(self, candidate: EpisodicEntry) -> float:
        """Max over stored entries of the layer/head-averaged cosine between
        mean-pooled keys, for the entry the candidate would become. Defined as
        -1 for an empty memory (forced admit). A candidate's frames must cover
        the memory heads and share one global frame index, the entry's."""
        if set(candidate.slots) != set(self.memory_heads):
            raise ConfigError("candidate slots do not cover the memory-head set")
        if len({fr.global_frame_index for fr in candidate.slots.values()}) != 1:
            raise ConfigError("candidate frames hold differing global frame indices")
        if not self.entries:
            return -1.0
        entries = [self._entry_pool(entry) for entry in self.entries]
        return max(_similarities([self._entry_pool(candidate)] * len(entries), entries))

    def _entry_pool(self, entry: EpisodicEntry) -> Pooled:
        """The entry's pooled keys, built once: keys.mean(axis=0) and
        np.linalg.norm of each memory head's frame, as their unwrapped float64
        forms over the stacked frames."""
        if entry.pooled is None:
            keys = np.stack([entry.slots[lh].keys for lh in self.memory_heads])   # (heads, s, d)
            means = np.add.reduce(keys, axis=1) / keys.shape[1]
            norms = np.sqrt(np.matmul(means[:, None, :], means[:, :, None])).reshape(len(means))
            entry.pooled = (means, norms, norms != 0.0)
        return entry.pooled

    def find_redundant_pair(self) -> tuple[int, int]:
        """Most similar unordered entry pair (initial overflow, no summary yet);
        ties break to the lexicographically smallest (i, j)."""
        if self.summary_present:
            raise ConfigError("redundant-pair search applies before a summary exists")
        n = len(self.entries)
        if n < 2:
            raise ConfigError("redundant-pair search needs at least 2 entries")
        pools = [self._entry_pool(e) for e in self.entries]
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        sims = _similarities([pools[i] for i, _ in pairs], [pools[j] for _, j in pairs])
        # max() keeps the first maximum, the smallest pair
        return pairs[max(range(len(pairs)), key=sims.__getitem__)]

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
        pools = [self._entry_pool(e) for e in self.entries]
        adjacent = _similarities(pools[1:n - 1], pools[2:n])
        scores = [sum(near) / len(near) for near in (adjacent[max(idx - 2, 0):idx] for idx in range(1, n))]
        # index() finds the first maximum, the smallest index
        return 1 + scores.index(max(scores))

    # -- compression ------------------------------------------------------

    def compress_into_summary(self, first: EpisodicEntry, second: EpisodicEntry,
                              prompt_keys: dict[tuple[int, int], np.ndarray]) -> EpisodicEntry:
        """Merge two entries into one summary of exactly s tokens per slot, s
        being what the first operand's frames hold.

        Per layer, the 2s concatenated tokens are ranked by the memory-head
        mean cosine between each key row and that layer's prompt key; the
        top-s (ties by original position, ascending) are gathered for keys and
        values alike. One index set per layer, shared by that layer's heads,
        which also share one read-only provenance array.
        """
        s = first.slots[self.memory_heads[0]].tokens
        for e in (first, second):
            for lh in self.memory_heads:
                if e.slots[lh].tokens != s:
                    raise ShapeError(
                        f"compression operands must hold {s} tokens, got {e.slots[lh].tokens}"
                    )
        # every memory head's row scores at once, then one ranking per layer
        heads = self.memory_heads
        a = [first.slots[lh] for lh in heads]
        b = [second.slots[lh] for lh in heads]
        keys = _interleave([fr.keys for fr in a], [fr.keys for fr in b])         # (heads, 2s, d)
        pk = np.concatenate([np.asarray(prompt_keys[lh]) for lh in heads]).reshape(len(heads), -1)
        pk_norms = np.sqrt(np.matmul(pk[:, None, :], pk[:, :, None]))[:, 0]     # (heads, 1)
        # np.linalg.norm(axis=-1), without its wrapper
        denom = np.sqrt(np.add.reduce(keys * keys, axis=2)) * pk_norms
        dots = np.matmul(keys, pk[:, :, None])[:, :, 0]
        sims = np.divide(dots, denom, out=np.zeros_like(denom), where=denom > 0.0)
        values = _interleave([fr.values for fr in a], [fr.values for fr in b])

        slots: Slots = {}
        for l in sorted({l for (l, _) in heads}):
            rows = [i for i, (hl, _) in enumerate(heads) if hl == l]
            # the layer's heads summed in memory-head order, one row at a time
            r = np.add.reduce(sims[rows], axis=0)
            r /= len(rows)
            # stable sort: ties keep ascending position
            order = np.argsort(-r, kind="stable")[:s]
            # every head of a layer holds the same provenance rows (the
            # identity for a frame, one order per layer for a summary), so
            # the layer's heads share one read-only gather of it
            prov = np.concatenate([a[rows[0]].provenance, b[rows[0]].provenance])[order]
            prov.flags.writeable = False
            # keys and values gathered per head, so each summary frame owns its rows
            for i in rows:
                slots[heads[i]] = FrameKV(
                    keys=keys[i, order],
                    values=values[i, order],
                    global_frame_index=-1,
                    provenance=prov,
                )
        return EpisodicEntry(slots=slots)

    def _compress_overflow(self, prompt_keys: dict[tuple[int, int], np.ndarray]) -> None:
        if not self.summary_present:
            i, j = self.find_redundant_pair()
        else:
            # a single non-summary entry is the only possible victim
            i, j = 0, (self.select_merge_victim() if len(self.entries) > 2 else 1)
        summary = self.compress_into_summary(self.entries[i], self.entries[j], prompt_keys)
        self.entries = [summary] + [e for idx, e in enumerate(self.entries) if idx not in (i, j)]

    # -- admission --------------------------------------------------------

    def try_admit(self, candidate: Slots, block_index: int, tau_novel: float,
                  prompt_keys: dict[tuple[int, int], np.ndarray]) -> AdmissionDecision:
        """One admission transaction: score, reject or append, and compress in
        the same transaction if the append overflows capacity. The entry
        scored is the entry admitted, pooled keys included."""
        entry = EpisodicEntry(slots=dict(candidate))
        delta = self.novelty_score(entry)
        if delta >= tau_novel:
            return AdmissionDecision(block_index, delta, admitted=False, compressed=False)
        self.entries.append(entry)
        compressed = False
        if len(self.entries) > self.capacity:
            self._compress_overflow(prompt_keys)
            compressed = True
        return AdmissionDecision(block_index, delta, admitted=True, compressed=compressed)
