"""Limited-power omniscient adversary: controls up to b chosen nodes.

A policy fixes the controlled node set and a strategy:

  honest          no corruption (identity everywhere);
  random          stored symbols and emitted repair symbols replaced with
                  seeded uniform field elements;
  consistent_liar all controlled nodes jointly encode one seeded fake
                  message and answer every query honestly *for the fake
                  data* -- protocol-conformant collusion, the hardest case
                  for consistency checks.

Stored lies come from effective_share: whatever a node computes from its
share, a repair payload included, is computed from that lie.  Only a
`random` node lies again in transit (corrupt_repair_symbols); a consistent
liar's payload is already the honest output for its fake share.

|controlled| <= b is the honest configuration; deliberately larger sets are
permitted so negative tests can step outside the model.  Strategies are
deterministic given the seed.
"""

from __future__ import annotations

import random
from typing import Mapping, Sequence

from .encoder import NodeShare, build_data_matrix, encode_node
from .errors import BaerCodeError
from .galois import Field
from .params import Derived

HONEST = "honest"
RANDOM = "random"
LIAR = "consistent_liar"
_STRATEGIES = (HONEST, RANDOM, LIAR)
# The strategy each word of the CLI's --adversary and of a scenario's `corrupt` names.
NAMES = {"honest": HONEST, "random": RANDOM, "liar": LIAR, "consistent_liar": LIAR}


class AdversaryPolicy:
    """Corruption policy over a fixed controlled node set."""

    def __init__(self, controlled: Sequence[int] = (), strategy: str = HONEST, seed: int = 0):
        if strategy not in _STRATEGIES:
            raise BaerCodeError(f"unknown strategy {strategy!r}; pick one of {_STRATEGIES}")
        self.controlled = frozenset(controlled)
        self.strategy = strategy
        self.seed = seed
        self._fake_shares: dict[tuple, dict[int, NodeShare]] = {}

    def __repr__(self):
        return f"AdversaryPolicy({sorted(self.controlled)}, {self.strategy!r}, seed={self.seed})"

    def controls(self, node: int) -> bool:
        return self.strategy != HONEST and node in self.controlled

    def _node_rng(self, node: int, salt: int = 0) -> random.Random:
        # String seeds hash deterministically across processes (sha512 path).
        return random.Random(f"{self.seed}:{node}:{salt}")

    def fake_shares(self, code: Derived, fld: Field) -> dict[int, NodeShare]:
        """The colluding nodes' one fake message, encoded at each controlled node in 1..n."""
        key = (fld.p, code)
        if key not in self._fake_shares:
            rng = random.Random(f"{self.seed}:fake-message")
            fake_msg = [rng.randrange(fld.p) for _ in range(code.f_mbr)]
            blocks = build_data_matrix(fake_msg, code, fld)
            self._fake_shares[key] = {
                node: encode_node(blocks, node, code, fld)
                for node in sorted(self.controlled) if 1 <= node <= code.n
            }
        return self._fake_shares[key]

    def effective_share(self, share: NodeShare, code: Derived, fld: Field) -> NodeShare:
        """What this node actually stores / hands out when its content is read."""
        if not self.controls(share.index):
            return share
        if self.strategy == RANDOM:
            rng = self._node_rng(share.index)
            garbage = tuple(rng.randrange(fld.p) for _ in share.x)
            return NodeShare(index=share.index, x=garbage)
        return self.fake_shares(code, fld)[share.index]


def corrupt_storage(
    policy: AdversaryPolicy,
    shares: Mapping[int, NodeShare],
    code: Derived,
    fld: Field,
) -> dict[int, NodeShare]:
    """Stored-content view of the whole cluster under the policy."""
    return {
        node: policy.effective_share(sh, code, fld) for node, sh in shares.items()
    }


def corrupt_access(
    policy: AdversaryPolicy, node: int, share: NodeShare, code: Derived, fld: Field
) -> NodeShare:
    """Share as served to a data collector reading this node."""
    if share.index != node:
        raise BaerCodeError(f"share index {share.index} != accessed node {node}")
    return policy.effective_share(share, code, fld)


def corrupt_repair_symbols(policy: AdversaryPolicy, node: int, symbols: Sequence[int], fld: Field):
    """Repair symbols as emitted by this helper, computed from its effective share.

    A `random` helper replaces them with as many uniform symbols; every other
    helper sends them unchanged.
    """
    if policy.controls(node) and policy.strategy == RANDOM:
        rng = policy._node_rng(node, salt=1)
        return tuple(rng.randrange(fld.p) for _ in symbols)
    return symbols
