"""Head role taxonomy and the per-(layer, head) role map with its JSON form."""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

from .errors import ConfigError, open_output, parse_json, read_input, require_int, require_number


class HeadRole(str, Enum):
    LOCAL = "local"
    ANCHOR = "anchor"
    MEMORY = "memory"


@dataclass
class HeadRoleMap:
    """Role per (layer, head) plus the thresholds that produced it."""

    layers: int
    heads: int
    alpha_anchor: float
    tau_local: float
    roles: dict[tuple[int, int], HeadRole]

    def __post_init__(self) -> None:
        expected = {(l, h) for l in range(self.layers) for h in range(self.heads)}
        if set(self.roles) != expected:
            raise ConfigError(
                f"role map must cover exactly {self.layers}x{self.heads} heads, got {len(self.roles)} entries"
            )

    def role(self, layer: int, head: int) -> HeadRole:
        return self.roles[(layer, head)]

    def counts(self) -> dict[HeadRole, int]:
        out = {r: 0 for r in HeadRole}
        for r in self.roles.values():
            out[r] += 1
        return out

    def heads_of(self, role: HeadRole) -> list[tuple[int, int]]:
        return sorted(lh for lh, r in self.roles.items() if r is role)

    def to_json(self) -> str:
        payload = {
            "alpha_anchor": self.alpha_anchor,
            "tau_local": self.tau_local,
            "roles": [
                {"layer": l, "head": h, "role": self.roles[(l, h)].value}
                for (l, h) in sorted(self.roles)
            ],
        }
        return json.dumps(payload, indent=2) + "\n"

    def save(self, path: str | Path) -> None:
        with open_output(path) as fh:
            fh.write(self.to_json())

    @classmethod
    def from_json(cls, text: str) -> "HeadRoleMap":
        payload = parse_json(text, "role map")
        try:
            alpha = require_number(payload["alpha_anchor"], "alpha_anchor")
            tau = require_number(payload["tau_local"], "tau_local")
            roles: dict[tuple[int, int], HeadRole] = {}
            for e in payload["roles"]:
                key = (require_int(e["layer"], "role entry layer"), require_int(e["head"], "role entry head"))
                if key in roles:
                    raise ConfigError(f"duplicate role entry for (layer, head) {key}")
                roles[key] = HeadRole(e["role"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"malformed role map JSON: {exc}") from exc
        if not roles:
            raise ConfigError("role map JSON has no role entries")
        layers = max(l for l, _ in roles) + 1
        heads = max(h for _, h in roles) + 1
        return cls(layers=layers, heads=heads, alpha_anchor=alpha, tau_local=tau, roles=roles)

    @classmethod
    def load(cls, path: str | Path) -> "HeadRoleMap":
        return cls.from_json(read_input(path, "role map file"))


def role_map_from_lists(
    layers: int,
    heads: int,
    anchor: list[tuple[int, int]],
    local: list[tuple[int, int]],
    alpha_anchor: float = 0.0,
    tau_local: float = 0.0,
) -> HeadRoleMap:
    """Build a map from explicit anchor/local head lists; the rest are memory."""
    roles: dict[tuple[int, int], HeadRole] = {}
    anchor_set, local_set = set(anchor), set(local)
    if anchor_set & local_set:
        raise ConfigError("anchor and local head sets overlap")
    outside = sorted(lh for lh in anchor_set | local_set
                     if not (0 <= lh[0] < layers and 0 <= lh[1] < heads))
    if outside:
        raise ConfigError(f"heads {outside} lie outside the {layers}x{heads} grid")
    for l in range(layers):
        for h in range(heads):
            if (l, h) in anchor_set:
                roles[(l, h)] = HeadRole.ANCHOR
            elif (l, h) in local_set:
                roles[(l, h)] = HeadRole.LOCAL
            else:
                roles[(l, h)] = HeadRole.MEMORY
    return HeadRoleMap(layers=layers, heads=heads, alpha_anchor=alpha_anchor,
                       tau_local=tau_local, roles=roles)
