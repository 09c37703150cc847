"""Deterministic multi-antenna GNSS epoch generator with ground truth.

The scenario stands in for a field campaign: a rigid platform carrying N
antennas follows a configured trajectory under a fixed satellite sky. A
building-style sky mask turns the satellites behind it into reflected
(multipath) signals, which fade in and out at each antenna independently.
Ambiguity fixing succeeds with a logistic probability in the count of clean
versus multipath satellites in the solution set, so excluding detected
multipath satellites and re-querying raises the fix rate.

Every stochastic outcome is drawn once, in a fixed documented order, from a
single seeded generator. The truth channel keeps the generator's state
before the epoch's first draw and the block the stream's layout and requery
constants: the pipeline draws the channels again from them with
:func:`mgp.epochs.draw_channels` to re-query fix outcomes for a reduced
satellite set, and :func:`mgp.epochs.block_draws` builds the rest of the
channels once per block. The generator is the whole module: scenario configs
(decoded from JSON by :func:`scenario_from_dict` and :func:`load_scenario`),
the epoch stream as :class:`mgp.epochs.EpochBlock` records, the scan stream,
and truth or corrupted poses as :class:`mgp.mapping.Poses` records.

Per-epoch draw order (one ``numpy`` Generator seeded with ``config.seed``;
fading phases shape ``(n_sats, n_antennas)`` are drawn once up front):
antenna normals ``(n_ant, 6)``, antenna uniforms ``(n_ant, 3)``, antenna
lattice indices ``(n_ant,)``, then the same three groups for baselines, then
SNR jitter ``(n_sats, n_ant)``. The normals perturb the antenna and
baseline vectors at the true attitude, normalized by ``block_draws``.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field, replace
from functools import partial
from itertools import chain, compress
from typing import Any, Callable, Iterator

import numpy as np

from . import jsonvals
from .core import (
    AntennaLayout,
    UnitQuaternion,
    Vec3,
    euler_products,
    euler_to_quat,
    hexagon_layout,
    quat_multiply,
    quat_to_matrix,
    unit_quats,
)
from .epochs import (
    EPOCH_BLOCK,
    ChannelNoise,
    EpochBlock,
    EpochTruth,
    FixModel,
    RequeryStream,
    _pair_baselines,
    block_draws,
    draw_channels,
    offsets,
    replay,
)
from .errors import ConfigurationError, ValidationError
from .mapping import MountCalibration, Poses, ScanFrame
from .multipath import SNR_MAX_DBHZ, SNR_MIN_DBHZ, SnrTable

# Salt mixed into the seed for the scan-point generator so that producing a
# scan stream never perturbs the epoch stream draws.
_SCAN_SEED_SALT = 0x5CA9
# Pulses per block of :func:`scan_blocks`, which `mgp simulate --scan` shares
# with its worker: about what a process holds at once, at any pulses_per_rev.
# In a sweep, smaller blocks were slower; larger ones raised peak RSS and
# gained no more than the noise.
SCAN_BLOCK = 3000


@dataclass(frozen=True)
class Satellite:
    """One satellite at a fixed sky position (no orbit propagation)."""

    sat_id: str
    azimuth_deg: float
    elevation_deg: float

    def __post_init__(self) -> None:
        if not self.sat_id:
            raise ValidationError("satellite id must be non-empty")
        if not 0.0 <= self.azimuth_deg < 360.0:
            raise ValidationError(f"{self.sat_id}: azimuth must be in [0, 360)")
        if not 0.0 < self.elevation_deg <= 90.0:
            raise ValidationError(f"{self.sat_id}: elevation must be in (0, 90]")


@dataclass(frozen=True)
class SkyMaskSector:
    """Azimuth sector blocked below a given elevation (building model)."""

    az_start_deg: float
    az_end_deg: float
    mask_elevation_deg: float

    def __post_init__(self) -> None:
        for az in (self.az_start_deg, self.az_end_deg):
            if not 0.0 <= az < 360.0:
                raise ValidationError("sector azimuths must be in [0, 360)")
        if not 0.0 < self.mask_elevation_deg <= 90.0:
            raise ValidationError("mask elevation must be in (0, 90]")

    def contains(self, azimuth_deg: float, elevation_deg: float) -> bool:
        if elevation_deg >= self.mask_elevation_deg:
            return False
        if self.az_start_deg <= self.az_end_deg:
            return self.az_start_deg <= azimuth_deg <= self.az_end_deg
        return azimuth_deg >= self.az_start_deg or azimuth_deg <= self.az_end_deg


class TrajectoryKind(enum.Enum):
    STATIC = "static"
    WAYPOINT = "waypoint"


@dataclass(frozen=True)
class Trajectory:
    """STATIC holds the first waypoint (or origin); WAYPOINT flies the
    polyline at constant speed and hovers at the end."""

    kind: TrajectoryKind
    waypoints: tuple[Vec3, ...] = ()
    speed_mps: float = 0.0

    def __post_init__(self) -> None:
        if self.kind is TrajectoryKind.WAYPOINT:
            if len(self.waypoints) < 2:
                raise ValidationError("waypoint trajectory needs at least 2 points")
            if not (self.speed_mps > 0.0):
                raise ValidationError("waypoint trajectory needs positive speed")


@dataclass(frozen=True)
class AttitudeProfile:
    """Piecewise-linear Euler angle profiles in degrees; held beyond the
    last knot. Knots are (t, value) pairs with nondecreasing t."""

    roll_knots: tuple[tuple[float, float], ...] = ((0.0, 0.0),)
    pitch_knots: tuple[tuple[float, float], ...] = ((0.0, 0.0),)
    yaw_knots: tuple[tuple[float, float], ...] = ((0.0, 0.0),)

    def __post_init__(self) -> None:
        for knots in (self.roll_knots, self.pitch_knots, self.yaw_knots):
            if not knots:
                raise ValidationError("each profile needs at least one knot")
            ts = [t for t, _ in knots]
            if any(b < a for a, b in zip(ts, ts[1:])):
                raise ValidationError("profile knots must be time-ordered")

    def angles_at(self, t: float | np.ndarray) -> tuple[Any, ...]:
        """Roll, pitch and yaw at ``t``, or lists of them at an array of times."""
        return tuple(np.interp(t, [k[0] for k in knots], [k[1] for k in knots]).tolist()
                     for knots in (self.roll_knots, self.pitch_knots, self.yaw_knots))


@dataclass(frozen=True)
class SnrModel:
    """Elevation-dependent nominal SNR plus multipath fading and jitter.

    The multipath offset is a saturated sinusoid,
    ``amplitude * clip(3 sin(2 pi t / period + phase), -1, 1)``: reflected
    interference holds near its constructive/destructive extremes and sweeps
    between them quickly, and each antenna gets its own phase.
    """

    floor_dbhz: float = 35.0
    peak_dbhz: float = 50.0
    fading_amplitude_db: float = 6.0
    fading_period_s: float = 30.0
    thermal_jitter_db: float = 0.5

    def __post_init__(self) -> None:
        if not SNR_MIN_DBHZ <= self.floor_dbhz <= self.peak_dbhz <= SNR_MAX_DBHZ:
            raise ValidationError("need SNR floor <= peak within the valid dB-Hz range")
        if self.fading_amplitude_db < 0.0 or self.thermal_jitter_db < 0.0:
            raise ValidationError("SNR noise magnitudes must be nonnegative")
        if not (self.fading_period_s > 0.0):
            raise ValidationError("fading period must be positive")

    def nominal(self, elevation_deg: float) -> float:
        return self.floor_dbhz + (self.peak_dbhz - self.floor_dbhz) * math.sin(
            math.radians(elevation_deg)
        )


@dataclass(frozen=True)
class NoiseModel(ChannelNoise):
    """The fix channels' noise and the SNR model."""

    snr: SnrModel = field(default_factory=SnrModel)


@dataclass(frozen=True)
class ScannerModel:
    """Spinning line scanner: a beam at a fixed cone angle from nadir sweeps
    a ground circle once per revolution."""

    spin_hz: float = 10.0
    pulses_per_rev: int = 600
    cone_deg: float = 15.0
    range_noise_m: float = 0.02
    max_range_m: float = 150.0
    mount: MountCalibration = field(default_factory=MountCalibration)

    def __post_init__(self) -> None:
        if not (self.spin_hz > 0.0) or self.pulses_per_rev < 1:
            raise ValidationError("scanner needs positive spin rate and pulse count")
        if not 0.0 < self.cone_deg < 90.0:
            raise ValidationError("cone angle must be in (0, 90) degrees")
        if self.range_noise_m < 0.0 or not (self.max_range_m > 0.0):
            raise ValidationError("invalid scanner range parameters")


@dataclass(frozen=True)
class Reflector:
    """Ground-plane reflector disc used as a checkpoint."""

    position: Vec3
    radius_m: float = 0.3

    def __post_init__(self) -> None:
        if not (self.radius_m > 0.0):
            raise ValidationError("reflector radius must be positive")
        if abs(self.position.z) > 1e-9:
            raise ValidationError("reflector discs lie in the U = 0 ground plane")


@dataclass(frozen=True)
class ScenarioConfig:
    seed: int = 0
    duration_s: float = 60.0
    rate_hz: float = 10.0
    layout: AntennaLayout = field(default_factory=hexagon_layout)
    trajectory: Trajectory = Trajectory(TrajectoryKind.STATIC)
    attitude_profile: AttitudeProfile = AttitudeProfile()
    constellation: tuple[Satellite, ...] = ()
    sky_mask: tuple[SkyMaskSector, ...] = ()
    noise: NoiseModel = field(default_factory=NoiseModel)
    fix_model: FixModel = field(default_factory=FixModel)
    scanner: ScannerModel | None = None
    reflectors: tuple[Reflector, ...] = ()

    def __post_init__(self) -> None:
        if self.seed < 0:
            raise ValidationError("seed must be nonnegative")
        if not (self.rate_hz > 0.0):
            raise ValidationError("rate_hz must be positive")
        if self.duration_s < 0.0:
            raise ValidationError("duration_s must be nonnegative")
        if not self.constellation:
            raise ValidationError("constellation must contain at least one satellite")
        ids = [s.sat_id for s in self.constellation]
        if len(set(ids)) != len(ids):
            raise ValidationError("satellite ids must be unique")
        n = self.layout.antenna_count
        fm = self.fix_model
        if fm.antenna_bias is not None and len(fm.antenna_bias) != n:
            raise ValidationError("antenna_bias length must match the antenna count")
        if fm.target_fix_probs is not None and len(fm.target_fix_probs) != n:
            raise ValidationError("target_fix_probs length must match the antenna count")

    @property
    def n_epochs(self) -> int:
        return int(round(self.duration_s * self.rate_hz))


def scenario_from_dict(d: dict[str, Any]) -> ScenarioConfig:
    """Scenario from its JSON object form, decoded by :func:`jsonvals.decode`."""
    return jsonvals.decode(ScenarioConfig, d, "scenario")


def load_scenario(path: str) -> ScenarioConfig:
    return jsonvals.load(ScenarioConfig, path, "scenario")


def multipath_satellite_ids(config: ScenarioConfig) -> frozenset[str]:
    """Satellites whose line of sight is blocked by the sky mask (received
    by reflection only)."""
    out = set()
    for sat in config.constellation:
        if any(s.contains(sat.azimuth_deg, sat.elevation_deg) for s in config.sky_mask):
            out.add(sat.sat_id)
    return frozenset(out)


def trajectory_position(config: ScenarioConfig, t: float | np.ndarray) -> Vec3 | np.ndarray:
    """Platform position at time ``t``: a Vec3 for a scalar time, an (n, 3)
    array for an array of n times."""
    ts = np.atleast_1d(np.asarray(t, dtype=np.float64))
    traj = config.trajectory
    pts = [w.as_array() for w in traj.waypoints] or [np.zeros(3)]
    if traj.kind is TrajectoryKind.STATIC:
        pts = pts[:1]
    pos = np.tile(pts[-1], (len(ts), 1))
    dist = traj.speed_mps * np.maximum(0.0, ts)
    todo = np.ones(len(ts), dtype=bool)
    for a, b in zip(pts, pts[1:]):
        seg = float(np.linalg.norm(b - a))
        here = todo & ((dist <= seg) | (seg == 0.0))
        frac = np.zeros(int(here.sum())) if seg == 0.0 else dist[here] / seg
        pos[here] = a + frac[:, None] * (b - a)
        todo &= ~here
        dist = dist - seg
    return Vec3.from_array(pos[0]) if np.ndim(t) == 0 else pos


def truth_attitude(config: ScenarioConfig, t: float | np.ndarray) -> UnitQuaternion | np.ndarray:
    """The true attitude at ``t``, or the (n, 4) array of them at an array
    of n times, normalised together with the bits of :func:`euler_to_quat`."""
    angles = config.attitude_profile.angles_at(t)
    if np.ndim(t) == 0:
        return euler_to_quat(*angles)
    return unit_quats(np.array([euler_products(*a) for a in zip(*angles)]).reshape(-1, 4))


def truth_poses(config: ScenarioConfig, times: np.ndarray) -> Poses:
    """The true poses at the strictly increasing ``times``, each counting
    every antenna of the layout as fixed."""
    times = np.asarray(times, dtype=np.float64)
    q = truth_attitude(config, times)
    n_fix = np.full(len(times), config.layout.antenna_count)
    return Poses.checked(times, trajectory_position(config, times), q, n_fix)


def _effective_biases(config: ScenarioConfig, n_clean: int, n_mp: int) -> tuple[list[float], float]:
    fm = config.fix_model
    n_ant = config.layout.antenna_count
    base = n_clean - fm.multipath_weight * n_mp - fm.midpoint

    def bias(p: float) -> float:
        """The bias that gives a fix probability of ``p``."""
        return math.log(p / (1.0 - p)) / fm.steepness - base

    if fm.target_fix_probs is not None:
        biases = [bias(p) for p in fm.target_fix_probs]
    else:
        biases = list(fm.antenna_bias) if fm.antenna_bias is not None else [0.0] * n_ant
    p_bl = fm.baseline_target_fix_prob
    return biases, fm.baseline_bias if p_bl is None else bias(p_bl)


def simulate(config: ScenarioConfig) -> Iterator[EpochBlock]:
    """Generate the epoch stream for a scenario, in blocks of
    :data:`mgp.epochs.EPOCH_BLOCK` epochs (the last may be shorter), epoch k
    numbered line k + 2 as :func:`mgp.streams.write_epochs` writes it.

    Deterministic for a given config: all randomness flows from one
    generator seeded with ``config.seed`` in the draw order documented in
    the module docstring. Only the draws and the quaternions' sine and
    cosine products are made epoch by epoch; their normalisation, the
    attitude angles, positions, channels (:func:`block_draws`), fix outcomes
    (one :func:`replay`), SNR table and truth flags per block.
    """
    rng = np.random.default_rng(config.seed)
    layout = config.layout
    n_ant = layout.antenna_count
    n_sat = len(config.constellation)
    pairs, _ = _pair_baselines(layout)
    pair_keys = list(map(tuple, pairs.tolist()))

    mp_sats = multipath_satellite_ids(config)
    mp_mask = np.array([s.sat_id in mp_sats for s in config.constellation])
    n_mp = int(mp_mask.sum())
    n_clean = n_sat - n_mp
    ant_bias, bl_bias = _effective_biases(config, n_clean, n_mp)
    model = replace(
        config.fix_model,
        antenna_bias=tuple(ant_bias),
        target_fix_probs=None,
        baseline_bias=bl_bias,
        baseline_target_fix_prob=None,
    )
    solution_sats = tuple(s.sat_id for s in config.constellation)

    noise = config.noise
    snr_model = noise.snr
    nominal = np.array([snr_model.nominal(s.elevation_deg) for s in config.constellation])
    channel_noise = ChannelNoise(noise.sigma_fixed_m, noise.sigma_float_m, noise.wrong_fix_prob,
                                 noise.wrong_fix_unit_m, noise.wrong_fix_max_multiple)
    stream = RequeryStream(model, solution_sats, channel_noise,
                           rng.bit_generator.state["state"]["inc"], np.__version__)

    phases = rng.uniform(0.0, 2.0 * math.pi, size=(n_sat, n_ant))

    for first in range(0, config.n_epochs, EPOCH_BLOCK):
        k = np.arange(first, min(first + EPOCH_BLOCK, config.n_epochs))
        n = len(k)
        t = k / config.rate_hz
        positions = trajectory_position(config, t)
        attitudes = truth_attitude(config, t)
        states, raw, jitter = [], [], []
        for _ in range(n):
            bits = rng.bit_generator.state
            uint32 = bits["uinteger"] if bits["has_uint32"] else None
            states.append((bits["state"]["state"], uint32))
            raw.append(draw_channels(rng, stream, n_ant))
            jitter.append(rng.standard_normal((n_sat, n_ant)))
        ant, bl = draws = block_draws(stream, layout, positions, attitudes, raw)
        found = replay(stream, states, positions, attitudes, [mp_sats] * n, [frozenset()] * n,
                       layout, draws)

        fading = np.zeros((n, n_sat, n_ant))
        if n_mp and snr_model.fading_amplitude_db > 0.0:
            swing = 3.0 * np.sin(
                2.0 * math.pi * t[:, None, None] / snr_model.fading_period_s + phases)
            fading[:, mp_mask] = snr_model.fading_amplitude_db * np.clip(
                swing[:, mp_mask], -1.0, 1.0
            )
        snr = nominal[:, None] + fading + snr_model.thermal_jitter_db * np.array(jitter)
        snr = np.round(np.clip(snr, SNR_MIN_DBHZ, SNR_MAX_DBHZ), 2).reshape(n * n_sat, n_ant)

        wrong = (found.fixes.fixed & ant.wrong).reshape(n, n_ant).tolist()
        corrupted = (found.bl_fixed & bl.wrong).reshape(n, len(pairs)).tolist()
        truths = tuple(
            EpochTruth(tuple(p_plat), tuple(q), mp_sats, frozenset(compress(pair_keys, bad_pairs)),
                       frozenset(compress(range(1, n_ant + 1), bad_ants)), state)
            for p_plat, q, state, bad_ants, bad_pairs
            in zip(positions.tolist(), attitudes.tolist(), states, wrong, corrupted)
        )
        yield EpochBlock(
            t, k + 2, found.fixes, offsets([n_ant] * n),
            found.baselines, offsets(np.bincount(found.baseline_epoch, minlength=n).tolist()),
            SnrTable(solution_sats * n, snr), offsets([n_sat] * n),
            np.full(n, n_ant, dtype=np.int64), truths, layout, stream,
        )


def scan_stream(config: ScenarioConfig, scanner: ScannerModel) -> Iterator[ScanFrame]:
    """Generate scanner frames along the flight from truth poses.

    Each revolution sweeps a cone-angle beam across the ground plane; range
    returns are labeled with whether the (noise-free) ground intersection
    lies on a reflector disc. Positions are evaluated per pulse, attitude
    once per frame (at the frame start), and a frame's pulses are computed
    as one array. Seeded independently of the epoch stream so enabling the
    scanner does not perturb GNSS draws. A trajectory other than waypoints
    raises ConfigurationError at the call, before any frame is made.
    """
    return chain.from_iterable(block() for block in scan_blocks(config, scanner))


def scan_blocks(config: ScenarioConfig,
                scanner: ScannerModel) -> Iterator[Callable[[], Iterator[ScanFrame]]]:
    """The frames of :func:`scan_stream` in blocks of whole frames,
    :data:`SCAN_BLOCK` pulses' worth or one frame, each a call that makes
    them. Only their range noise is drawn here, in frame order, and a block
    pickles, so any process can make its frames."""
    if config.trajectory.kind is not TrajectoryKind.WAYPOINT:
        raise ConfigurationError("scan generation requires a waypoint trajectory")
    rng = np.random.default_rng(np.random.SeedSequence([config.seed, _SCAN_SEED_SALT]))
    ppr = scanner.pulses_per_rev
    step, n_frames = max(1, SCAN_BLOCK // ppr), int(round(config.duration_s * scanner.spin_hz))
    return (partial(_scan_frames, config, scanner, first, scanner.range_noise_m
                    * rng.standard_normal((min(step, n_frames - first), ppr)))
            for first in range(0, n_frames, step))


def _scan_frames(config: ScenarioConfig, scanner: ScannerModel, first: int,
                 noise: np.ndarray) -> Iterator[ScanFrame]:
    ppr = scanner.pulses_per_rev
    gamma = math.radians(scanner.cone_deg)
    theta = 2.0 * math.pi * np.arange(ppr) / ppr
    d_scan = np.column_stack(
        [
            math.sin(gamma) * np.cos(theta),
            math.sin(gamma) * np.sin(theta),
            -math.cos(gamma) * np.ones(ppr),
        ]
    )
    r_bs = quat_to_matrix(scanner.mount.boresight)
    lever = scanner.mount.lever_arm.as_array()
    d_body = d_scan @ r_bs.T
    refl = [(r.position.x, r.position.y, r.radius_m**2) for r in config.reflectors]

    for k, noise_draw in enumerate(noise, start=first):
        t0 = k / scanner.spin_hz
        ts = t0 + np.arange(ppr) / (scanner.spin_hz * ppr)

        pos = trajectory_position(config, ts)
        r_eb = quat_to_matrix(truth_attitude(config, t0))

        origin = pos + lever @ r_eb.T
        d_world = d_body @ r_eb.T
        denom = d_world[:, 2]
        with np.errstate(divide="ignore", invalid="ignore"):
            s = -origin[:, 2] / denom
        valid = (denom < -1e-12) & (s > 0.0) & (s <= scanner.max_range_m)
        ground = origin + s[:, None] * d_world

        hit = np.zeros(ppr, dtype=bool)
        for rx, ry, r2 in refl:
            hit |= (ground[:, 0] - rx) ** 2 + (ground[:, 1] - ry) ** 2 <= r2
        rows = np.column_stack([ts, d_scan * (s + noise_draw)[:, None]])
        yield ScanFrame(t=t0, pulses=rows[valid], reflector=hit[valid])


def corrupt_poses(
    poses: Poses,
    sigma_pos_m: float,
    sigma_att_deg: float,
    tau_s: float,
    seed: int,
) -> Poses:
    """Add temporally correlated pose errors (first-order Gauss-Markov).

    Position errors (per ENU axis) and attitude errors (per Euler axis, as a
    left-multiplied small rotation) share the correlation time ``tau_s`` and
    are stationary with the given standard deviations. Models slowly varying
    RTK/attitude estimation error rather than white noise. ``poses`` is
    checked as outside data; a NaN row stays NaN.
    """
    if sigma_pos_m < 0.0 or sigma_att_deg < 0.0:
        raise ValidationError("error sigmas must be nonnegative")
    if not (tau_s > 0.0):
        raise ValidationError("correlation time must be positive")
    poses = Poses.checked(poses.t, poses.p, poses.q, poses.n_fix)
    rng = np.random.default_rng(seed)
    state = rng.standard_normal(6)
    p, q = poses.p.copy(), poses.q.copy()
    for k, dt in enumerate(np.diff(poses.t, prepend=poses.t[:1]).tolist()):
        if k:
            alpha = math.exp(-dt / tau_s)
            state = alpha * state + math.sqrt(1.0 - alpha * alpha) * rng.standard_normal(6)
        p[k] += sigma_pos_m * state[:3]
        if not math.isnan(q[k, 0]):
            q_err = euler_to_quat(*(sigma_att_deg * state[3:]).tolist())
            q[k] = quat_multiply(q_err, UnitQuaternion(*q[k].tolist())).as_array()
    return Poses(poses.t, p, q, poses.n_fix)
