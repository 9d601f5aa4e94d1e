"""Small finite-tape protocols for exact audits.

Every fixture has binary inputs, finite tape spaces, and few parties, so
transcript distributions, coalition views, and compiled counterparts can be
enumerated exhaustively.
"""

from __future__ import annotations

from typing import Any, Dict, FrozenSet, List, Tuple

import numpy as np

from .distributed import FlipTapeProtocol, Protocol, Topology
from .mechanisms import FlipParams

__all__ = [
    "RelayProtocol",
    "NoisyParityProtocol",
    "ChainProtocol",
    "SharedModularSumProtocol",
    "fixture_topology",
]


def fixture_topology(protocol: Protocol) -> Topology:
    """Topology with exactly the channels the fixture declares."""
    return Topology(protocol.n, protocol.channels())


class RelayProtocol(FlipTapeProtocol):
    """Two parties, one round: party 0 sends its (noisy) bit to party 1.

    Party 1 outputs the received bit.  With ``keep_prob=1`` this is plain
    forwarding.
    """

    def __init__(self, keep_prob: float = 1.0):
        self.n = 2
        self.rounds = 1
        self.output_party = 1
        self.keep_prob = keep_prob

    def channels(self) -> FrozenSet[Tuple[int, int]]:
        return frozenset({(0, 1)})

    def send(self, i, x_i, tape, rnd, received) -> Dict[int, Any]:
        if i == 0:
            return {1: self._report(x_i, tape)}
        return {}

    def output(self, x_i, tape, received) -> int:
        return received[0][0][1]


class NoisyParityProtocol(FlipTapeProtocol):
    """Three parties, two rounds: noisy bits to party 0, parity back out.

    Round 1: parties 1 and 2 send their flipped bits to party 0.  Round 2:
    party 0 announces the parity of its own flipped bit and the two
    reports.  All tapes are single keep/swap decisions.
    """

    def __init__(self, params: FlipParams):
        self.n = 3
        self.rounds = 2
        self.output_party = 0
        self.keep_prob = params.keep_prob

    def channels(self) -> FrozenSet[Tuple[int, int]]:
        return frozenset({(0, 1), (0, 2)})

    def _parity(self, x_i: int, tape: bool, received) -> int:
        bit = self._report(x_i, tape)
        for _, sym in received[0]:
            bit ^= sym
        return bit

    def send(self, i, x_i, tape, rnd, received) -> Dict[int, Any]:
        if rnd == 1:
            return {} if i == 0 else {0: self._report(x_i, tape)}
        if i == 0:
            parity = self._parity(x_i, tape, received)
            return {1: parity, 2: parity}
        return {}

    def output(self, x_i, tape, received) -> int:
        return self._parity(x_i, tape, received)


class ChainProtocol(FlipTapeProtocol):
    """Four parties on a path 0-1-2-3; party 0 is lonely for t=1.

    Round 1: party 0 reports its flipped bit to party 1, and party 3 to
    party 2.  Round 2: party 1 forwards the xor of its own flipped bit and
    party 0's report to party 2, which outputs the xor of everything it
    saw.  Exercises coalition separation: {1} cuts party 0 off from the
    rest.
    """

    def __init__(self, params: FlipParams):
        self.n = 4
        self.rounds = 2
        self.output_party = 2
        self.keep_prob = params.keep_prob

    def channels(self) -> FrozenSet[Tuple[int, int]]:
        return frozenset({(0, 1), (1, 2), (2, 3)})

    def send(self, i, x_i, tape, rnd, received) -> Dict[int, Any]:
        if rnd == 1:
            if i == 0:
                return {1: self._report(x_i, tape)}
            if i == 3:
                return {2: self._report(x_i, tape)}
            return {}
        if i == 1:
            z0 = received[0][0][1]
            return {2: z0 ^ self._report(x_i, tape)}
        return {}

    def output(self, x_i, tape, received) -> int:
        bit = self._report(x_i, tape)
        for roundmsgs in received:
            for _, sym in roundmsgs:
                bit ^= sym
        return bit


class SharedModularSumProtocol(Protocol):
    """Three-party additive-sharing sum over a small modulus.

    Round 1: each party splits its bit into three uniform additive shares
    mod q and sends one to each other party.  Round 2: each party sends the
    sum of the shares it holds to party 0.  Round 3: party 0 announces the
    total, which is the input sum mod q: a symmetric function of the
    inputs.  An ideal trusted aggregation in protocol form, used to check
    that coalitions outside the differing inputs see identical view
    distributions whenever the sums agree.
    """

    def __init__(self, modulus: int = 5):
        if modulus < 3:
            raise ValueError("modulus must be at least 3")
        self.n = 3
        self.rounds = 3
        self.output_party = 0
        self.modulus = modulus

    def channels(self) -> FrozenSet[Tuple[int, int]]:
        return frozenset({(0, 1), (0, 2), (1, 2)})

    def draw_tape(self, i: int, rng: np.random.Generator) -> Tuple[int, int]:
        return tuple(int(v) for v in rng.integers(0, self.modulus, size=2))

    def tape_space(self, i: int) -> List[Tuple[Tuple[int, int], float]]:
        q = self.modulus
        return [((a, b), 1.0 / (q * q)) for a in range(q) for b in range(q)]

    def _shares(self, i: int, x_i: int, tape: Tuple[int, int]) -> Dict[int, int]:
        """Shares for the two other parties; the closing share stays local."""
        others = [j for j in range(3) if j != i]
        return {others[0]: tape[0], others[1]: tape[1]}

    def _own_share(self, x_i: int, tape: Tuple[int, int]) -> int:
        return (x_i - tape[0] - tape[1]) % self.modulus

    def send(self, i, x_i, tape, rnd, received) -> Dict[int, Any]:
        if rnd == 1:
            return self._shares(i, x_i, tape)
        if rnd == 2:
            partial = (self._own_share(x_i, tape) + sum(s for _, s in received[0])) % self.modulus
            return {} if i == 0 else {0: partial}
        if i == 0:
            total = self.output(x_i, tape, received)
            return {1: total, 2: total}
        return {}

    def output(self, x_i, tape, received) -> int:
        return (
            self._own_share(x_i, tape)
            + sum(s for _, s in received[0])
            + sum(s for _, s in received[1])
        ) % self.modulus
