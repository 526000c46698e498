"""Kinematic driving-world simulator.

This is the dataset substitute (see DESIGN.md): a deterministic traffic
world around a moving ego vehicle that produces, per frame, the same
artifact the real datasets provide — ground-truth boxes in the sensor
frame.  The dynamics are chosen so that the temporal signal MAST exploits
is realistic:

* actors follow a unicycle model with Ornstein–Uhlenbeck speed noise, so
  object counts within a radius change smoothly at 10 FPS (Lipschitz-ish
  ``y(t)``, paper §6.2) and decorrelate at 2 FPS (the ONCE regime);
* a slow sinusoidal *traffic-intensity wave* modulates the Poisson spawn
  rate, creating the multi-scale peaks and troughs visible in the paper's
  Fig. 12;
* the ego drives a gently curving road with varying speed, so relative
  motion (what the sensor actually sees) mixes ego- and actor-induced
  components.

The per-step state is held in parallel numpy arrays, so a full
45,076-frame SynLiDAR-scale sequence simulates in seconds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.data.annotations import ObjectArray
from repro.geometry.transforms import Pose2D, rotation_matrix_2d, wrap_angle
from repro.simulation.actors import DEFAULT_ACTOR_TYPES, ActorTypeSpec
from repro.utils.rng import ensure_rng
from repro.utils.validation import require_positive

__all__ = ["WorldConfig", "TrafficWorld", "GROUND_Z"]

# Sensor sits at z = 0 on the roof; the road plane is ~1.7 m below it.
GROUND_Z = -1.7


@dataclass(frozen=True)
class WorldConfig:
    """Tunable parameters of the traffic world.

    The dataset factories (:mod:`repro.simulation.datasets`) derive one of
    these per dataset; tests use small bespoke configs.
    """

    actor_types: tuple[ActorTypeSpec, ...] = DEFAULT_ACTOR_TYPES
    sensor_range: float = 75.0
    #: Actors spawn in an annulus around the ego vehicle.
    spawn_radius: tuple[float, float] = (8.0, 70.0)
    #: Expected new actors per second at the mean of the intensity wave.
    base_spawn_rate: float = 0.9
    #: Period (s) and relative amplitude of the slow traffic wave.
    intensity_period: float = 75.0
    intensity_amplitude: float = 0.6
    #: Mean scheduled lifetime of an actor (s) before it despawns.
    mean_lifetime: float = 30.0
    #: Ego speed profile: mean + amplitude * sin(2*pi*t/period).
    ego_speed_mean: float = 9.0
    ego_speed_amplitude: float = 4.0
    ego_speed_period: float = 47.0
    #: Ego yaw-rate profile amplitude (rad/s) and period (s).
    ego_turn_amplitude: float = 0.05
    ego_turn_period: float = 83.0
    #: Ornstein–Uhlenbeck speed dynamics for actors.
    speed_relaxation: float = 0.6
    speed_noise: float = 0.5
    #: Std-dev of actor yaw-rate (rad/s).
    yaw_rate_sigma: float = 0.04
    #: Fraction of spawns heading against the ego direction (oncoming).
    oncoming_probability: float = 0.4
    #: Initial actor population at t=0 (in addition to the spawn process).
    initial_actors: int = 18
    #: Traffic bursts: dense convoys / busy intersections that produce the
    #: sharp peaks in y(t) real drives exhibit (paper Fig. 12, RQ8).
    #: ``burst_rate`` is events per second; each burst spawns
    #: ``burst_size`` actors clustered in one direction with a short
    #: lifetime.
    burst_rate: float = 0.04
    burst_size: tuple[int, int] = (6, 14)
    burst_lifetime: float = 8.0
    #: Fraction of car spawns placed as roadside parked cars ahead of the
    #: ego (2-6 m lateral offset) — urban KITTI drives pass parked cars
    #: continuously, which is what makes the small distance thresholds of
    #: the paper's query templates (2 m, 5 m) meaningful.
    roadside_fraction: float = 0.25
    roadside_lateral: tuple[float, float] = (2.2, 6.0)

    def __post_init__(self) -> None:
        require_positive(self.sensor_range, "sensor_range")
        require_positive(self.base_spawn_rate, "base_spawn_rate")
        require_positive(self.mean_lifetime, "mean_lifetime")
        low, high = self.spawn_radius
        if not 0 < low < high:
            raise ValueError(f"spawn_radius must satisfy 0 < low < high, got {self.spawn_radius}")


def _norms(xy: np.ndarray) -> np.ndarray:
    """Row norms of a real ``(n, 2)`` array.

    ``np.linalg.norm(xy, axis=1)`` computes exactly this, bit for bit,
    behind a few layers of argument handling.
    """
    return np.sqrt(np.add.reduce(xy * xy, axis=1))


@dataclass
class _ActorState:
    """Structure-of-arrays state for the active actor population."""

    ids: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))
    labels: np.ndarray = field(default_factory=lambda: np.empty(0, dtype="<U16"))
    positions: np.ndarray = field(default_factory=lambda: np.zeros((0, 2)))
    headings: np.ndarray = field(default_factory=lambda: np.zeros(0))
    speeds: np.ndarray = field(default_factory=lambda: np.zeros(0))
    target_speeds: np.ndarray = field(default_factory=lambda: np.zeros(0))
    yaw_rates: np.ndarray = field(default_factory=lambda: np.zeros(0))
    sizes: np.ndarray = field(default_factory=lambda: np.zeros((0, 3)))
    despawn_times: np.ndarray = field(default_factory=lambda: np.zeros(0))

    def __len__(self) -> int:
        return len(self.ids)

    def keep(self, mask: np.ndarray) -> None:
        self.ids = self.ids[mask]
        self.labels = self.labels[mask]
        self.positions = self.positions[mask]
        self.headings = self.headings[mask]
        self.speeds = self.speeds[mask]
        self.target_speeds = self.target_speeds[mask]
        self.yaw_rates = self.yaw_rates[mask]
        self.sizes = self.sizes[mask]
        self.despawn_times = self.despawn_times[mask]

    def append(self, other: _ActorState) -> None:
        self.ids = np.concatenate([self.ids, other.ids])
        self.labels = np.concatenate([self.labels, other.labels])
        self.positions = np.concatenate([self.positions, other.positions])
        self.headings = np.concatenate([self.headings, other.headings])
        self.speeds = np.concatenate([self.speeds, other.speeds])
        self.target_speeds = np.concatenate([self.target_speeds, other.target_speeds])
        self.yaw_rates = np.concatenate([self.yaw_rates, other.yaw_rates])
        self.sizes = np.concatenate([self.sizes, other.sizes])
        self.despawn_times = np.concatenate([self.despawn_times, other.despawn_times])


class TrafficWorld:
    """Steppable traffic world around a moving ego vehicle.

    Usage::

        world = TrafficWorld(WorldConfig(), seed=7)
        for frame_id in range(n_frames):
            gt = world.observe()     # ObjectArray in the sensor frame
            pose = world.ego_pose
            world.step(dt)
    """

    def __init__(self, config: WorldConfig, *, seed: int = 0) -> None:
        self.config = config
        self._rng = ensure_rng(seed, "world")
        self._time = 0.0
        self._next_actor_id = 0
        self._ego = Pose2D(0.0, 0.0, 0.0)
        self._ego_speed = config.ego_speed_mean
        self._actors = _ActorState()
        # Random phases decorrelate the ego / traffic waves across seeds.
        self._phase_speed = float(self._rng.uniform(0.0, 2.0 * math.pi))
        self._phase_turn = float(self._rng.uniform(0.0, 2.0 * math.pi))
        self._phase_traffic = float(self._rng.uniform(0.0, 2.0 * math.pi))
        self._spawn_initial_population()

    # ------------------------------------------------------------------
    # Public state
    # ------------------------------------------------------------------
    @property
    def time(self) -> float:
        """Current simulation time in seconds."""
        return self._time

    @property
    def ego_pose(self) -> Pose2D:
        """Current world-frame pose of the sensor."""
        return self._ego

    @property
    def ego_speed(self) -> float:
        """Current ego speed in m/s."""
        return self._ego_speed

    @property
    def n_active_actors(self) -> int:
        """Number of live actors (within or near sensor range)."""
        return len(self._actors)

    # ------------------------------------------------------------------
    # Dynamics
    # ------------------------------------------------------------------
    def step(self, dt: float) -> None:
        """Advance the world by ``dt`` seconds."""
        require_positive(dt, "dt")
        cfg = self.config
        rng = self._rng
        t = self._time

        # --- ego: sinusoidal speed profile on a gently curving road.
        self._ego_speed = max(
            0.0,
            cfg.ego_speed_mean
            + cfg.ego_speed_amplitude
            * math.sin(2.0 * math.pi * t / cfg.ego_speed_period + self._phase_speed),
        )
        yaw_rate = cfg.ego_turn_amplitude * math.sin(
            2.0 * math.pi * t / cfg.ego_turn_period + self._phase_turn
        )
        self._ego = self._ego.advance(self._ego_speed, yaw_rate, dt)

        # --- actors: OU speed, noisy heading, unicycle step.
        actors = self._actors
        n = len(actors)
        if n:
            moving = actors.target_speeds > 0
            noise = rng.normal(0.0, cfg.speed_noise * math.sqrt(dt), n)
            actors.speeds = actors.speeds + (
                cfg.speed_relaxation * (actors.target_speeds - actors.speeds) * dt
                + np.where(moving, noise, 0.0)
            )
            np.maximum(actors.speeds, 0.0, out=actors.speeds)
            actors.headings = actors.headings + actors.yaw_rates * dt
            unit = np.empty((n, 2))
            unit[:, 0] = np.cos(actors.headings)
            unit[:, 1] = np.sin(actors.headings)
            actors.positions = actors.positions + actors.speeds[:, None] * unit * dt

        self._time = t + dt

        # --- despawn: scheduled end of life, or drifted far out of range.
        if len(actors):
            dist = _norms(actors.positions - (self._ego.x, self._ego.y))
            keep = (actors.despawn_times > self._time) & (
                dist < cfg.sensor_range * 1.4
            )
            if not keep.all():
                actors.keep(keep)

        # --- spawn: Poisson arrivals modulated by the traffic wave.
        rate = cfg.base_spawn_rate * (
            1.0
            + cfg.intensity_amplitude
            * math.sin(2.0 * math.pi * self._time / cfg.intensity_period + self._phase_traffic)
        )
        n_new = int(rng.poisson(max(rate, 0.0) * dt))
        if n_new:
            self._actors.append(self._make_actors(n_new))

        # --- bursts: clustered convoys with short lifetimes (sharp peaks).
        if cfg.burst_rate > 0 and rng.random() < cfg.burst_rate * dt:
            size = int(rng.integers(cfg.burst_size[0], cfg.burst_size[1] + 1))
            self._actors.append(self._make_burst(size))

    def observe(self) -> ObjectArray:
        """Ground-truth objects currently within sensor range, in the sensor frame.

        Velocities are the sensor-frame relative velocities (actor motion
        minus ego translation, expressed in ego coordinates); they are
        reference data for evaluation and are never shown to detectors'
        downstream consumers.
        """
        actors = self._actors
        if not len(actors):
            return ObjectArray.empty()
        ego = self._ego
        rel_world = actors.positions - (ego.x, ego.y)
        dist = _norms(rel_world)
        (seen,) = np.nonzero(dist <= self.config.sensor_range)
        m = len(seen)
        if not m:
            return ObjectArray.empty()

        # Integer indexing copies, so every column below is the frame's own.
        rot = rotation_matrix_2d(-ego.yaw)
        sizes = actors.sizes[seen]
        centers = np.empty((m, 3))
        centers[:, :2] = rel_world[seen] @ rot.T
        centers[:, 2] = GROUND_Z + sizes[:, 2] / 2.0
        headings = actors.headings[seen]
        yaws = np.array([wrap_angle(h - ego.yaw) for h in headings.tolist()])

        speed = self._ego_speed
        speeds = actors.speeds[seen]
        rel_vel = np.empty((m, 2))
        rel_vel[:, 0] = speeds * np.cos(headings) - speed * math.cos(ego.yaw)
        rel_vel[:, 1] = speeds * np.sin(headings) - speed * math.sin(ego.yaw)

        return ObjectArray(
            labels=actors.labels[seen],
            centers=centers,
            sizes=sizes,
            yaws=yaws,
            scores=np.ones(m),
            velocities=rel_vel @ rot.T,
            ids=actors.ids[seen],
        )

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _spawn_initial_population(self) -> None:
        if self.config.initial_actors:
            self._actors.append(self._make_actors(self.config.initial_actors))

    def _make_actors(self, count: int) -> _ActorState:
        cfg = self.config
        rng = self._rng
        types = cfg.actor_types
        weights = np.array([t.spawn_weight for t in types])
        weights = weights / weights.sum()
        chosen = rng.choice(len(types), size=count, p=weights)

        radius = rng.uniform(*cfg.spawn_radius, size=count)
        angle = rng.uniform(0.0, 2.0 * math.pi, size=count)
        positions = self._ego.position + np.column_stack(
            [radius * np.cos(angle), radius * np.sin(angle)]
        )

        labels = np.empty(count, dtype="<U16")
        sizes = np.zeros((count, 3))
        target_speeds = np.zeros(count)
        headings = np.zeros(count)
        ego_forward = np.array([math.cos(self._ego.yaw), math.sin(self._ego.yaw)])
        ego_left = np.array([-ego_forward[1], ego_forward[0]])
        for i, type_index in enumerate(chosen):
            spec = types[type_index]
            labels[i] = spec.label
            sizes[i] = spec.sample_size(rng)
            target_speeds[i] = spec.sample_speed(rng)
            base = self._ego.yaw + rng.normal(0.0, 0.45)
            if rng.random() < cfg.oncoming_probability:
                base += math.pi
            headings[i] = wrap_angle(base)
            if spec.label == "Car" and rng.random() < cfg.roadside_fraction:
                # Roadside parked car ahead of the ego, close to its lane.
                longitudinal = rng.uniform(-20.0, 60.0)
                lateral = rng.uniform(*cfg.roadside_lateral) * rng.choice([-1.0, 1.0])
                positions[i] = (
                    self._ego.position
                    + longitudinal * ego_forward
                    + lateral * ego_left
                )
                headings[i] = wrap_angle(self._ego.yaw + rng.normal(0.0, 0.1))
                target_speeds[i] = 0.0

        ids = np.arange(self._next_actor_id, self._next_actor_id + count, dtype=np.int64)
        self._next_actor_id += count
        return _ActorState(
            ids=ids,
            labels=labels,
            positions=positions,
            headings=headings,
            speeds=target_speeds * rng.uniform(0.6, 1.0, size=count),
            target_speeds=target_speeds,
            yaw_rates=rng.normal(0.0, cfg.yaw_rate_sigma, size=count),
            sizes=sizes,
            despawn_times=self._time + rng.exponential(cfg.mean_lifetime, size=count),
        )

    def _make_burst(self, count: int) -> _ActorState:
        """A convoy of cars entering together from one direction.

        All burst actors are cars clustered in a narrow angular sector,
        moving at a shared speed with a short scheduled lifetime — the
        sharp y(t) spikes an ego vehicle sees when crossing a busy
        intersection or meeting a platoon.
        """
        cfg = self.config
        rng = self._rng
        car = next(t for t in cfg.actor_types if t.label == "Car")

        sector = rng.uniform(0.0, 2.0 * math.pi)
        radius = rng.uniform(15.0, 45.0, size=count)
        angle = sector + rng.normal(0.0, 0.15, size=count)
        positions = self._ego.position + np.column_stack(
            [radius * np.cos(angle), radius * np.sin(angle)]
        )
        shared_speed = rng.uniform(6.0, 13.0)
        heading = wrap_angle(sector + math.pi + rng.normal(0.0, 0.2))
        sizes = np.stack([car.sample_size(rng) for _ in range(count)])

        ids = np.arange(self._next_actor_id, self._next_actor_id + count, dtype=np.int64)
        self._next_actor_id += count
        return _ActorState(
            ids=ids,
            labels=np.full(count, "Car", dtype="<U16"),
            positions=positions,
            headings=np.full(count, heading) + rng.normal(0.0, 0.05, size=count),
            speeds=np.full(count, shared_speed),
            target_speeds=np.full(count, shared_speed),
            yaw_rates=rng.normal(0.0, cfg.yaw_rate_sigma / 2, size=count),
            sizes=sizes,
            despawn_times=self._time
            + rng.exponential(cfg.burst_lifetime, size=count),
        )
