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

    def _matvec_fused(self, in_cts, terms, num_out, pt_scale, tables, n1):
        def parts(off):
            """(giant, baby) of an offset: split at n1, ints only."""
            if n1 is None or isinstance(off, tuple):
                return 0, off
            return off - off % n1, off % n1

        rotated = [(bo, bi, off) for (bo, bi, off) in terms if off]
        if rotated:
            babies = {(bi, parts(off)[1]) for (_, bi, off) in rotated if parts(off)[1]}
            giants = {(bo, parts(off)[0]) for (bo, _, off) in rotated if parts(off)[0]}
            split = {(bo, parts(off)[0]) for (bo, _, off) in rotated
                     if parts(off)[0] and parts(off)[1]}
            self.switches.append(
                KeySwitch(
                    in_cts[0].level,
                    decompositions=len({bi for bi, _ in babies}) + len(giants),
                    products=len(babies) + len(giants),
                    gathers=len(babies) + len(giants),
                    table_rows=sum(1 for (_, _, off) in rotated if parts(off)[1]),
                    moddowns=len({bo for (bo, _, _) in rotated}) + len(split),
                )
            )
        return super()._matvec_fused(in_cts, terms, num_out, pt_scale, tables, n1)

    def _rotate_sum(self, a, steps):
        count = len(steps)
        self.switches.append(
            KeySwitch(a.level, products=count, gathers=count, table_rows=count)
        )
        return super()._rotate_sum(a, steps)
