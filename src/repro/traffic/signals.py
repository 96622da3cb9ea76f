"""Traffic signals for the mesoscopic simulator.

A :class:`TrafficSignal` at an intersection cycles through *phases*;
each phase is the set of incoming segments allowed to discharge while
it is green. With signals installed, the microsimulator holds the
head vehicle of a red approach, producing the stop-and-go platooning
and queue build-up that make urban congestion spatially structured.

:func:`signalize` installs simple two-phase signals at every
intersection with enough competing approaches: incoming segments are
split into a (roughly) east-west and north-south group by approach
bearing, the standard layout of a grid city.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.exceptions import DataError
from repro.network.model import RoadNetwork


@dataclass
class TrafficSignal:
    """A fixed-time signal cycling through green phases.

    Attributes
    ----------
    phases:
        One list of incoming segment ids per phase; a segment may
        discharge only while its phase is green.
    durations:
        Green time (in simulation steps) per phase, same length as
        ``phases``.
    offset:
        Cycle offset in steps (for green waves along arterials).
    """

    phases: List[List[int]]
    durations: List[int]
    offset: int = 0

    def __post_init__(self) -> None:
        if not self.phases:
            raise DataError("a signal needs at least one phase")
        if len(self.durations) != len(self.phases):
            raise DataError(
                f"durations ({len(self.durations)}) must match phases "
                f"({len(self.phases)})"
            )
        if any(d < 1 for d in self.durations):
            raise DataError("every phase duration must be >= 1 step")
        self._membership: Dict[int, int] = {}
        for idx, phase in enumerate(self.phases):
            for sid in phase:
                if sid in self._membership:
                    raise DataError(
                        f"segment {sid} appears in more than one phase"
                    )
                self._membership[sid] = idx

    @property
    def cycle_length(self) -> int:
        """Total steps in one full cycle."""
        return sum(self.durations)

    def active_phase(self, step: int) -> int:
        """Index of the green phase at simulation ``step``."""
        t = (step + self.offset) % self.cycle_length
        for idx, duration in enumerate(self.durations):
            if t < duration:
                return idx
            t -= duration
        raise AssertionError("unreachable")

    def allows(self, segment_id: int, step: int) -> bool:
        """True when ``segment_id`` may discharge at ``step``.

        Segments not governed by any phase (e.g. a one-approach side
        street folded into the junction) are always allowed.
        """
        phase = self._membership.get(segment_id)
        if phase is None:
            return True
        return phase == self.active_phase(step)


def _bearing(network: RoadNetwork, segment_id: int) -> float:
    a, b = network.segment_endpoints(segment_id)
    return math.atan2(b.y - a.y, b.x - a.x)


def signalize(
    network: RoadNetwork,
    green_steps: int = 2,
    min_approaches: int = 3,
    progressive_offsets: bool = False,
) -> Dict[int, TrafficSignal]:
    """Install two-phase signals at the network's junctions.

    Parameters
    ----------
    network:
        The road network.
    green_steps:
        Green duration per phase, in simulation steps.
    min_approaches:
        Only intersections with at least this many incoming segments
        get a signal (2-approach joints flow freely).
    progressive_offsets:
        Stagger offsets with the intersection id so platoons meet
        successive greens (a crude green wave).

    Returns
    -------
    dict mapping intersection id -> :class:`TrafficSignal`.
    """
    if green_steps < 1:
        raise DataError(f"green_steps must be >= 1, got {green_steps}")
    if min_approaches < 2:
        raise DataError(f"min_approaches must be >= 2, got {min_approaches}")

    signals: Dict[int, TrafficSignal] = {}
    for iid in range(network.n_intersections):
        incoming = list(network.incoming(iid))
        if len(incoming) < min_approaches:
            continue
        # split approaches into EW-ish vs NS-ish by bearing
        ew: List[int] = []
        ns: List[int] = []
        for sid in incoming:
            angle = abs(_bearing(network, sid))
            is_ew = angle < math.pi / 4 or angle > 3 * math.pi / 4
            (ew if is_ew else ns).append(sid)
        if not ew or not ns:
            continue  # all approaches aligned: no conflict to arbitrate
        offset = (iid % 2) * green_steps
        if progressive_offsets:
            offset = iid % (2 * green_steps)
        signals[iid] = TrafficSignal(
            phases=[ew, ns],
            durations=[green_steps, green_steps],
            offset=offset,
        )
    return signals
