"""Calibration spin and unit timing for the end-to-end benchmark.

The sandbox this benchmark was sized on (2 vCPUs, visible steal) makes a
raw stopwatch useless: the same fixed kernel varies by 20 % between
consecutive calls and an 8 s phase by 15–30 % between runs.  Every
timed quantity is therefore a *unit* — one ingest window, one
``commit()``, one audit step, one cold open — bracketed by two runs of
:func:`spin`, a fixed stdlib kernel with the same instruction mix as
the program (truncated SHA-512 chains, an interpreter loop, 1024-bit
modular exponentiation).  A unit's **nominal seconds** are::

    wall * SPIN_REF / mean(spin_before, spin_after)

so a unit that ran while the box was 20 % slow is scaled back by the
20 % its neighbouring spins saw.  A rate or duration metric is the
**median over its units** of nominal seconds per unit of work
(:func:`typical_pace`).  Raw wall, process CPU and spin times are kept
per unit for inspection and are never gated.
"""

import gc
import hashlib
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

#: Seconds one :func:`spin` takes on the sizing sandbox when nothing
#: else runs (Xeon 2.1 GHz vCPU, CPython 3.11).  Nominal seconds equal
#: wall seconds on a box where the spin takes exactly this long; the
#: constant only fixes the scale, every comparison between two commits
#: divides it out.
SPIN_REF = 0.0160

_SPIN_MODULUS = (1 << 1023) | 0x2F2B_6D1F_0C5A_9E37
_SPIN_BASE = 0x1234_5678_9ABC_DEF1 << 512 | 0xC0FFEE
_SPIN_EXPONENT = (1 << 511) | 0x5DEECE66D


def spin() -> float:
    """Run the fixed calibration kernel once; returns its wall seconds."""
    start = time.perf_counter()
    sha = hashlib.sha512
    block = b"spider-e2e-spin"
    for _ in range(4000):
        block = sha(block).digest()[:20]
    acc = block[0]
    for i in range(40000):
        acc = (acc * 1103515245 + i) & 0xFFFFFFFF
    value = _SPIN_BASE + acc
    for _ in range(6):
        value = pow(value, _SPIN_EXPONENT, _SPIN_MODULUS)
    if value < 0:  # keeps the result live; never true
        raise AssertionError("spin kernel produced a negative residue")
    return time.perf_counter() - start


@dataclass
class Unit:
    """One timed unit of one phase."""

    phase: str
    index: int
    work: int
    wall: float
    cpu: float
    spin_before: float
    spin_after: float
    traced: bool = False
    start: float = 0.0

    @property
    def nominal(self) -> float:
        return self.wall * SPIN_REF / \
            (0.5 * (self.spin_before + self.spin_after))

    def as_dict(self) -> Dict[str, object]:
        return {"phase": self.phase, "index": self.index,
                "work": self.work, "wall_s": self.wall,
                "cpu_s": self.cpu, "spin_before_s": self.spin_before,
                "spin_after_s": self.spin_after,
                "nominal_s": self.nominal, "traced": self.traced,
                "start": self.start}


def typical_pace(units: Sequence[Unit]) -> float:
    """Median over ``units`` of nominal seconds per unit of work."""
    return statistics.median(unit.nominal / max(1, unit.work)
                             for unit in units)


@dataclass
class UnitClock:
    """Times units; adjacent units share the spin between them."""

    units: List[Unit] = field(default_factory=list)
    _last_spin: Optional[float] = None
    #: Called with ``True``/``False`` around a unit that is to be
    #: traced (set by the tracer; ``None`` on an untraced run).
    trace_hook: Optional[Callable[[bool], None]] = None

    def run(self, phase: str, work: Callable[[], int],
            traced: bool = False, full_gc: bool = True) -> Unit:
        """Time ``work()`` (which returns its work count) as one unit.

        Garbage is collected before the unit, outside timing, and the
        surviving heap is frozen for the unit's duration: GC stays
        enabled inside, but a collection the unit triggers walks only
        what the unit itself allocated, not the hub's whole log (a full
        pass over that costs 50-100 ms and lands in whichever unit
        happens to cross the allocation threshold).  A full collection
        between units costs the same, so short units
        (``full_gc=False``) only collect the young generations first.
        """
        gc.collect(2 if full_gc else 1)
        gc.freeze()
        before = self._last_spin if self._last_spin is not None \
            else spin()
        index = sum(1 for u in self.units if u.phase == phase)
        if traced and self.trace_hook is not None:
            self.trace_hook(True)
        cpu0 = time.process_time()
        start = time.perf_counter()
        try:
            count = work()
        finally:
            wall = time.perf_counter() - start
            cpu = time.process_time() - cpu0
            gc.unfreeze()
            if traced and self.trace_hook is not None:
                self.trace_hook(False)
        after = spin()
        self._last_spin = after
        unit = Unit(phase=phase, index=index, work=count, wall=wall,
                    cpu=cpu, spin_before=before, spin_after=after,
                    traced=traced, start=start)
        self.units.append(unit)
        return unit

    def phase_units(self, phase: str) -> List[Unit]:
        return [u for u in self.units if u.phase == phase]

    def nominal_total(self, phase: str) -> float:
        return sum(u.nominal for u in self.units if u.phase == phase)
