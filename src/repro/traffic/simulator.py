"""Queue-based mesoscopic traffic microsimulator.

Stands in for the 4-hour microsimulation that produced the paper's D1
densities (120 intervals of 2 minutes). The model is a standard
point-queue network loading scheme:

* vehicles are injected on trips routed over the network;
* each segment is a FIFO queue with a jam capacity (length x lanes x
  jam density) and a free-flow traversal time;
* at each step a vehicle at the head of its segment moves to the next
  segment of its route if that segment has spare capacity, otherwise it
  waits — so congestion spills back exactly where demand concentrates;
* the per-segment **density** (vehicles/metre) snapshot at every step
  is recorded, giving the (timestamps x segments) series the
  partitioning framework consumes.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import DataError
from repro.network.model import RoadNetwork
from repro.traffic.mntg import MNTGenerator, Trajectory
from repro.util.rng import RngLike, ensure_rng


@dataclass
class SimulationResult:
    """Output of a microsimulation run.

    Attributes
    ----------
    densities:
        Array of shape (n_steps, n_segments): vehicles/metre on each
        segment at the *end* of each step.
    counts:
        Same shape, raw vehicle counts.
    flows:
        Same shape: vehicles that *left* each segment during each step
        (discharge flow in vehicles/step) — the flow axis of the
        macroscopic fundamental diagram.
    completed_trips:
        Number of vehicles that reached their destination.
    """

    densities: np.ndarray
    counts: np.ndarray
    flows: np.ndarray
    completed_trips: int

    @property
    def n_steps(self) -> int:
        """Number of recorded simulation steps."""
        return self.densities.shape[0]

    def snapshot(self, t: int) -> np.ndarray:
        """Density vector at step ``t`` (supports negative indexing)."""
        return self.densities[t]


@dataclass
class _Vehicle:
    trip: Trajectory
    position: int = 0  # index into trip.segments
    entered_at: int = 0  # step the vehicle entered its current segment


class MicroSimulator:
    """Point-queue mesoscopic simulator over a road network.

    Parameters
    ----------
    network:
        Road network to simulate on.
    dt:
        Seconds per simulation step (default 120 s, the paper's 2-minute
        interval).
    seed:
        Reproducibility seed for demand generation.
    """

    def __init__(
        self, network: RoadNetwork, dt: float = 120.0, seed: RngLike = None
    ) -> None:
        if dt <= 0:
            raise ValueError(f"dt must be positive, got {dt}")
        self._network = network
        self._dt = float(dt)
        self._rng = ensure_rng(seed)

    def run(
        self,
        n_vehicles: int,
        n_steps: int,
        trips: Optional[Sequence[Trajectory]] = None,
        centre_bias: float = 2.0,
        signals: Optional[Dict[int, "TrafficSignal"]] = None,
        gate=None,
    ) -> SimulationResult:
        """Simulate ``n_steps`` intervals with ``n_vehicles`` routed trips.

        Parameters
        ----------
        n_vehicles:
            Number of vehicles to inject (ignored when ``trips`` given).
        n_steps:
            Number of recorded intervals.
        trips:
            Optional pre-routed trips; generated MNTG-style when absent.
        centre_bias:
            Gravity bias of the demand generator (see
            :class:`repro.traffic.mntg.MNTGenerator`).
        signals:
            Optional intersection id -> :class:`TrafficSignal` map
            (see :func:`repro.traffic.signals.signalize`); a red
            approach holds its head vehicle, so queues build behind
            signals.
        gate:
            Optional callable ``(step, occupancy_counts) -> decision``.
            The decision is either a container of segment ids that may
            not accept vehicles this step, or an object with an
            ``allows(src_segment_or_None, dst_segment) -> bool`` method
            for transfer-level control (``src`` is None for fresh
            departures) — the hook perimeter control uses to meter
            traffic crossing into a protected region.
        """
        if n_steps < 1:
            raise ValueError(f"n_steps must be positive, got {n_steps}")
        if trips is None:
            generator = MNTGenerator(
                self._network, centre_bias=centre_bias, seed=self._rng
            )
            trips = generator.generate_trajectories(n_vehicles, n_steps)

        network = self._network
        n_segments = network.n_segments
        lengths = network.segment_lengths()
        # RoadSegment.capacity's float operations, in its order
        capacities = np.maximum(
            1, (lengths * network.segment_lanes() * 0.15).astype(int)
        )
        travel_steps = np.maximum(
            1, np.ceil(lengths / network.segment_speed_limits() / self._dt).astype(int)
        )
        targets = network.segment_endpoint_ids()[1].tolist()

        queues: List[Deque[_Vehicle]] = [deque() for __ in range(n_segments)]
        occupancy = np.zeros(n_segments, dtype=int)
        pending: Dict[int, List[Trajectory]] = {}
        for trip in trips:
            if not trip.segments:
                continue
            pending.setdefault(trip.depart_time, []).append(trip)

        counts = np.zeros((n_steps, n_segments), dtype=int)
        flows = np.zeros((n_steps, n_segments), dtype=int)
        completed = 0

        for step in range(n_steps):
            decision = gate(step, occupancy) if gate is not None else None
            if decision is None:
                allows = None
            elif hasattr(decision, "allows"):
                allows = decision.allows
            else:
                blocked = frozenset(decision)
                allows = lambda src, dst: dst not in blocked  # noqa: E731

            # inject departures whose first segment has room
            for trip in pending.pop(step, []):
                first = trip.segments[0]
                if occupancy[first] < capacities[first] and (
                    allows is None or allows(None, first)
                ):
                    queues[first].append(_Vehicle(trip, 0, step))
                    occupancy[first] += 1
                else:
                    # retry next step (demand spillback at the gate)
                    pending.setdefault(step + 1, []).append(trip)

            # move vehicles: heads of queues that finished traversal
            # attempt to advance; iterate a snapshot so a vehicle moves
            # at most once per step.
            for sid in range(n_segments):
                queue = queues[sid]
                moved = 0
                while queue:
                    vehicle = queue[0]
                    if step - vehicle.entered_at < travel_steps[sid]:
                        break  # FIFO: nobody behind can pass the head
                    if signals is not None:
                        signal = signals.get(targets[sid])
                        if signal is not None and not signal.allows(sid, step):
                            break  # red light holds the whole queue
                    nxt_pos = vehicle.position + 1
                    if nxt_pos >= len(vehicle.trip.segments):
                        queue.popleft()
                        occupancy[sid] -= 1
                        flows[step, sid] += 1
                        completed += 1
                        continue
                    nxt = vehicle.trip.segments[nxt_pos]
                    if occupancy[nxt] >= capacities[nxt]:
                        break  # blocked; spillback
                    if allows is not None and not allows(sid, nxt):
                        break  # perimeter gate holds the queue
                    queue.popleft()
                    occupancy[sid] -= 1
                    flows[step, sid] += 1
                    vehicle.position = nxt_pos
                    vehicle.entered_at = step
                    queues[nxt].append(vehicle)
                    occupancy[nxt] += 1
                    moved += 1
                    if moved > len(queue) + 1:
                        break

            counts[step] = occupancy

        densities = counts / lengths[np.newaxis, :]
        return SimulationResult(
            densities=densities,
            counts=counts,
            flows=flows,
            completed_trips=completed,
        )
