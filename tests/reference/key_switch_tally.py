"""The key switches of a program run, listed by a backend of their own.

Export once priced an artifact's digit grouping on this list: a
noise-free :class:`SimBackend` whose key-switching primitive overrides
each re-derive the shape the base class charges.  The ledger now records
those shapes where they are charged (``OpLedger.key_switches``); the
tally stays as the oracle that multiset is pinned against.
"""

from __future__ import annotations

from typing import List

from repro.backend.ledger import KeySwitch
from repro.backend.sim import SimBackend
from repro.ckks.params import CkksParameters


class KeySwitchTally(SimBackend):
    """A noise-free functional backend that records every key switch.

    Values, levels and scales are the simulator's, so one
    ``program.run`` both lists the key switches an inference performs —
    the same whatever the digit grouping — and observes the runtime
    (level, scale) of every weight table the artifact pre-encodes.
    """

    def __init__(self, params: CkksParameters):
        super().__init__(params, noise_free=True)
        self.switches: List[KeySwitch] = []

    def _mul(self, a, b):
        self.switches.append(KeySwitch(a.level))
        return super()._mul(a, b)

    def _rotate(self, a, steps: int):
        if steps % self.slot_count:
            self.switches.append(KeySwitch(a.level, gathers=1))
        return super()._rotate(a, steps)

    def _conjugate(self, a):
        self.switches.append(KeySwitch(a.level, gathers=1))
        return super()._conjugate(a)

    def _rotate_hoisted(self, a, steps):
        count = len(steps)
        self.switches.append(
            KeySwitch(a.level, products=count, gathers=count, moddowns=count)
        )
        # The simulator's own rotations, not this tally's: one hoisted
        # group is one key switch.
        return {step: SimBackend._rotate(self, a, step) for step in steps}

    def _matvec_fused(self, in_cts, terms, num_out, pt_scale, tables):
        rotated = [(bo, bi, off) for (bo, bi, off) in terms if off]
        if rotated:
            offsets = len({(bi, off) for (_, bi, off) in rotated})
            self.switches.append(
                KeySwitch(
                    in_cts[0].level,
                    decompositions=len({bi for (_, bi, _) in rotated}),
                    products=offsets,
                    gathers=offsets,
                    table_rows=len(rotated),
                    moddowns=len({bo for (bo, _, _) in rotated}),
                )
            )
        return super()._matvec_fused(in_cts, terms, num_out, pt_scale, tables)

    def _rotate_sum(self, a, steps):
        count = len(steps)
        self.switches.append(
            KeySwitch(a.level, products=count, gathers=count, table_rows=count)
        )
        return super()._rotate_sum(a, steps)
