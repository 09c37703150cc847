"""Deterministic multi-antenna GNSS epoch generator with ground truth.

The scenario stands in for a field campaign: a rigid platform carrying N
antennas follows a configured trajectory under a fixed satellite sky. A
building-style sky mask turns the satellites behind it into reflected
(multipath) signals, which fade in and out at each antenna independently.
Ambiguity fixing succeeds with a logistic probability in the count of clean
versus multipath satellites in the solution set, so excluding detected
multipath satellites and re-querying raises the fix rate.

Every stochastic outcome is drawn once, in a fixed documented order, from a
single seeded generator, and the underlying draws are retained in the
epoch's truth channel as a :class:`RequeryData` record: the calibrated
:class:`FixModel` plus one :class:`ChannelDraws` group of arrays for the
antennas and one for the baselines (uniforms, wrong-fix flags, latent
fixed-grade and float-grade measurements, wrong-fix offsets). That makes the
stream bitwise-reproducible and lets the pipeline re-query fix outcomes for
a reduced satellite set without re-running the simulator: a re-query
replays the same draws against the new probabilities, so removing a
multipath satellite can only promote statuses, never revoke them.

Per-epoch draw order (one ``numpy`` Generator seeded with ``config.seed``;
fading phases shape ``(n_sats, n_antennas)`` are drawn once up front):
antenna normals ``(n_ant, 6)``, antenna uniforms ``(n_ant, 3)``, antenna
lattice indices ``(n_ant,)``, then the same four groups for baselines, then
SNR jitter ``(n_sats, n_ant)``.
"""
from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass, field, replace
from typing import Any, Iterator, Sequence

import numpy as np

from . import jsonvals
from .attitude import Baselines
from .core import (
    AntennaLayout,
    UnitQuaternion,
    Vec3,
    euler_to_quat,
    hexagon_layout,
    quat_multiply,
    quat_to_matrix,
)
from .errors import ConfigurationError, ValidationError
from .mapping import MountCalibration, Pose, ScanFrame
from .multipath import SNR_MAX_DBHZ, SNR_MIN_DBHZ, SnrTable
from .positioning import Fixes

# Salt mixed into the seed for the scan-point generator so that producing a
# scan stream never perturbs the epoch stream draws.
_SCAN_SEED_SALT = 0x5CA9


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

    def angles_at(self, t: float) -> tuple[float, float, float]:
        out = []
        for knots in (self.roll_knots, self.pitch_knots, self.yaw_knots):
            ts = [k[0] for k in knots]
            vs = [k[1] for k in knots]
            out.append(float(np.interp(t, ts, vs)))
        return out[0], out[1], out[2]


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
class NoiseModel:
    """Measurement-error magnitudes and wrong-fix injection."""

    sigma_fixed_m: float = 0.005
    sigma_float_m: float = 0.3
    wrong_fix_prob: float = 0.02
    wrong_fix_unit_m: float = 0.19
    wrong_fix_max_multiple: int = 2
    snr: SnrModel = field(default_factory=SnrModel)

    def __post_init__(self) -> None:
        if self.sigma_fixed_m < 0.0 or self.sigma_float_m < 0.0:
            raise ValidationError("noise sigmas must be nonnegative")
        if not 0.0 <= self.wrong_fix_prob <= 1.0:
            raise ValidationError("wrong_fix_prob must be in [0, 1]")
        if not (self.wrong_fix_unit_m > 0.0):
            raise ValidationError("wrong_fix_unit_m must be positive")
        if self.wrong_fix_max_multiple < 1:
            raise ValidationError("wrong_fix_max_multiple must be at least 1")


@dataclass(frozen=True)
class FixModel:
    """Logistic ambiguity-fix success model.

    The fix probability for a solution set with ``n_clean`` clean and
    ``n_mp`` multipath satellites is

        sigmoid(steepness * (n_clean - multipath_weight * n_mp - midpoint + bias))

    with a per-antenna ``bias`` (and a shared ``baseline_bias`` for
    moving-base baseline solves). When ``target_fix_probs`` is set, the
    per-antenna biases are calibrated at stream start so the full solution
    set hits those probabilities exactly; ``baseline_target_fix_prob``
    calibrates the baseline bias the same way. Antennas that fail to fix
    fall back to FLOAT with probability ``float_fraction``, else NONE.
    """

    steepness: float = 1.2
    midpoint: float = 5.0
    multipath_weight: float = 1.0
    antenna_bias: tuple[float, ...] | None = None
    target_fix_probs: tuple[float, ...] | None = None
    baseline_bias: float = 0.0
    baseline_target_fix_prob: float | None = None
    float_fraction: float = 0.5

    def __post_init__(self) -> None:
        if not (self.steepness > 0.0):
            raise ValidationError("steepness must be positive")
        if self.multipath_weight < 0.0:
            raise ValidationError("multipath_weight must be nonnegative")
        if not 0.0 <= self.float_fraction <= 1.0:
            raise ValidationError("float_fraction must be in [0, 1]")
        for p in self.target_fix_probs or ():
            if not 0.0 < p < 1.0:
                raise ValidationError("target fix probabilities must be in (0, 1)")
        if self.baseline_target_fix_prob is not None:
            if not 0.0 < self.baseline_target_fix_prob < 1.0:
                raise ValidationError("baseline target fix probability must be in (0, 1)")
        values = (self.midpoint, self.multipath_weight, self.baseline_bias)
        if not all(map(math.isfinite, values + (self.antenna_bias or ()))):
            raise ValidationError("fix model values must be finite")

    def probability(self, n_clean: int, n_multipath: int, bias: float) -> float:
        arg = self.steepness * (
            n_clean - self.multipath_weight * n_multipath - self.midpoint + bias
        )
        return 1.0 / (1.0 + math.exp(-arg))


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


_DRAW_KEYS = ("u_fix", "u_float", "wrong", "latent_fixed", "latent_float", "wrong_offset")
_MODEL_KEYS = (
    "steepness", "midpoint", "multipath_weight", "antenna_bias", "baseline_bias", "float_fraction"
)


@dataclass(frozen=True, eq=False)
class ChannelDraws:
    """Latent draws behind one group of n antenna (or baseline) solutions.

    ``u_fix``/``u_float`` (n,) are the uniforms compared against the model
    probabilities; ``wrong`` (n,) bool is the pre-evaluated wrong-fix
    Bernoulli; the (n, 3) latent vectors are the measurement under each
    ambiguity grade, and ``wrong_offset`` is added to a wrong fix.
    """

    u_fix: np.ndarray
    u_float: np.ndarray
    wrong: np.ndarray
    latent_fixed: np.ndarray
    latent_float: np.ndarray
    wrong_offset: np.ndarray

    def __post_init__(self) -> None:
        n = len(self.u_fix)
        shapes = [getattr(self, k).shape for k in _DRAW_KEYS]
        if shapes != [(n,)] * 3 + [(n, 3)] * 3:
            raise ValidationError("channel draws need (n,) uniforms and flags and (n, 3) vectors")
        if self.wrong.dtype != np.bool_:
            raise ValidationError("wrong-fix flags must be booleans")
        floats = (self.u_fix, self.u_float, self.latent_fixed, self.latent_float, self.wrong_offset)
        if not all(np.isfinite(a).all() for a in floats):
            raise ValidationError("channel draws must be finite")

    def __len__(self) -> int:
        return len(self.u_fix)


@dataclass(frozen=True)
class RequeryData:
    """Replay record of one epoch: the calibrated fix model (resolved
    ``antenna_bias`` and ``baseline_bias``, no calibration targets), the
    solution satellites, and the draws of the n antennas and the n(n-1)/2
    baselines in ``(i, j)``, ``i < j`` order."""

    model: FixModel
    solution_sats: tuple[str, ...]
    antenna_channels: ChannelDraws
    baseline_channels: ChannelDraws

    def __post_init__(self) -> None:
        n = len(self.antenna_channels)
        if self.model.antenna_bias is None or len(self.model.antenna_bias) != n:
            raise ValidationError(f"antenna_bias needs one entry per antenna ({n})")
        if len(self.baseline_channels) != n * (n - 1) // 2:
            raise ValidationError(
                f"{n} antennas need {n * (n - 1) // 2} baseline channels, "
                f"got {len(self.baseline_channels)}"
            )

    def to_dict(self) -> dict[str, Any]:
        """The record's JSON form: the model's values, the satellites and one
        object per channel, floats as Python floats and ``wrong`` a bool."""
        model = {k: getattr(self.model, k) for k in _MODEL_KEYS}
        model["antenna_bias"] = list(model["antenna_bias"])
        out: dict[str, Any] = {"model": model, "solution_sats": list(self.solution_sats)}
        for key in ("antenna_channels", "baseline_channels"):
            cols = [getattr(getattr(self, key), k).tolist() for k in _DRAW_KEYS]
            out[key] = [dict(zip(_DRAW_KEYS, row)) for row in zip(*cols)]
        return out

    @classmethod
    def from_dict(cls, d: dict[str, Any]) -> RequeryData:
        """Inverse of :meth:`to_dict`; every value must have its JSON type
        (a number, a boolean ``wrong``, string satellites)."""
        md = d["model"]
        what = "fix model values"
        model = FixModel(
            **{k: jsonvals.number(md[k], what) for k in _MODEL_KEYS if k != "antenna_bias"},
            antenna_bias=tuple(jsonvals.floats(md["antenna_bias"], what).tolist()),
        )
        groups = []
        for key in ("antenna_channels", "baseline_channels"):
            cols = {k: [row[k] for row in d[key]] for k in _DRAW_KEYS}
            groups.append(
                ChannelDraws(
                    *(jsonvals.floats(cols[k], f"{k} channel draws") for k in _DRAW_KEYS[:2]),
                    jsonvals.flags(cols["wrong"], "wrong-fix flags"),
                    *(jsonvals.floats(cols[k], f"{k} channel draws", 3) for k in _DRAW_KEYS[3:]),
                )
            )
        return cls(model, jsonvals.strings(d["solution_sats"], "solution_sats"), *groups)


@dataclass(frozen=True)
class EpochTruth:
    position: Vec3
    attitude: UnitQuaternion
    multipath_sats: frozenset[str]
    corrupted_baselines: frozenset[tuple[int, int]]
    wrong_fix_antennas: frozenset[int]
    requery: RequeryData | None = None


@dataclass(frozen=True, eq=False)
class EpochRecord:
    """One epoch of the stream: the antenna solutions, the baseline
    observations and the SNR table, each a record of arrays."""

    t: float
    fixes: Fixes
    baselines: Baselines
    snr_rows: SnrTable
    truth: EpochTruth | None = None


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


def truth_attitude(config: ScenarioConfig, t: float) -> UnitQuaternion:
    roll, pitch, yaw = config.attitude_profile.angles_at(t)
    return euler_to_quat(roll, pitch, yaw)


def truth_pose(config: ScenarioConfig, t: float) -> Pose:
    return Pose(t=t, p=trajectory_position(config, t), q=truth_attitude(config, t))


def _lattice_table(max_multiple: int) -> np.ndarray:
    rng_vals = range(-max_multiple, max_multiple + 1)
    vecs = [
        (a, b, c)
        for a in rng_vals
        for b in rng_vals
        for c in rng_vals
        if (a, b, c) != (0, 0, 0)
    ]
    return np.array(vecs, dtype=np.float64)


def _grade(
    draws: ChannelDraws, p_fix: np.ndarray | float, float_fraction: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """FIXED mask, FLOAT mask and the measured (n, 3) vectors of one group:
    a fix takes the fixed-grade latent (plus its offset when wrong), a float
    the float-grade one."""
    fixed = draws.u_fix < p_fix
    floating = ~fixed & (draws.u_float < float_fraction)
    wrong = draws.wrong[:, None]
    fixed_vec = np.where(wrong, draws.latent_fixed + draws.wrong_offset, draws.latent_fixed)
    return fixed, floating, np.where(fixed[:, None], fixed_vec, draws.latent_float)


def _effective_biases(config: ScenarioConfig, n_clean: int, n_mp: int) -> tuple[list[float], float]:
    fm = config.fix_model
    n_ant = config.layout.antenna_count
    base = n_clean - fm.multipath_weight * n_mp - fm.midpoint
    if fm.target_fix_probs is not None:
        biases = [
            math.log(p / (1.0 - p)) / fm.steepness - base for p in fm.target_fix_probs
        ]
    else:
        biases = list(fm.antenna_bias) if fm.antenna_bias is not None else [0.0] * n_ant
    if fm.baseline_target_fix_prob is not None:
        p = fm.baseline_target_fix_prob
        bl_bias = math.log(p / (1.0 - p)) / fm.steepness - base
    else:
        bl_bias = fm.baseline_bias
    return biases, bl_bias


@functools.lru_cache(maxsize=8)
def _pair_baselines(layout: AntennaLayout) -> tuple[np.ndarray, np.ndarray]:
    """Read-only (P, 2) antenna pairs ``(i, j)``, ``i < j``, in replay order,
    and their (P, 3) body-frame baselines."""
    n = layout.antenna_count
    pairs = np.array([(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)])
    pairs = pairs.reshape(-1, 2)
    body = np.array([layout.baseline(i, j).as_array() for i, j in pairs.tolist()])
    pairs.flags.writeable = body.flags.writeable = False
    return pairs, body


def _status_sets(
    req: RequeryData,
    multipath_sats: frozenset[str],
    excluded: frozenset[str],
    layout: AntennaLayout,
) -> tuple[Fixes, Baselines, np.ndarray, np.ndarray]:
    """Fix and baseline solutions replayed for the solution satellites left
    after ``excluded`` (baselines with no solution left out), then the FIXED
    masks of all antennas and baselines."""
    remaining = [s for s in req.solution_sats if s not in excluded]
    n_mp = sum(1 for s in remaining if s in multipath_sats)
    n_clean = len(remaining) - n_mp
    model = req.model
    p_ant = np.array([model.probability(n_clean, n_mp, b) for b in model.antenna_bias])
    p_bl = model.probability(n_clean, n_mp, model.baseline_bias)
    ant_fixed, ant_float, ant_vec = _grade(req.antenna_channels, p_ant, model.float_fraction)
    bl_fixed, bl_float, bl_vec = _grade(req.baseline_channels, p_bl, model.float_fraction)
    n = len(ant_fixed)
    grade = 2 * ant_fixed.astype(np.int8) + ant_float
    fixes = Fixes(
        ids=np.arange(1, n + 1),
        grade=grade,
        p=np.where((grade > 0)[:, None], ant_vec, np.nan),
        sats_used=np.full(n, len(remaining)),
    )
    pairs, body = _pair_baselines(layout)
    keep = bl_fixed | bl_float
    baselines = Baselines(pairs[keep], bl_vec[keep], body[keep], bl_fixed[keep])
    return fixes, baselines, ant_fixed, bl_fixed


def requery_epoch(
    epoch: EpochRecord, excluded: frozenset[str], layout: AntennaLayout
) -> tuple[Fixes, Baselines]:
    """Replay the epoch's fix and baseline outcomes with satellites removed.

    Uses the latent draws stored in the truth channel, so the result is
    deterministic and promotes statuses monotonically as true multipath
    satellites are excluded. Only simulated streams carry the data needed.
    """
    if epoch.truth is None or epoch.truth.requery is None:
        raise ValidationError("epoch carries no re-query data (not a simulated stream?)")
    if len(epoch.truth.requery.antenna_channels) != layout.antenna_count:
        raise ValidationError("layout antenna count does not match the stream")
    fixes, observations, _, _ = _status_sets(
        epoch.truth.requery, epoch.truth.multipath_sats, excluded, layout
    )
    return fixes, observations


def simulate(config: ScenarioConfig) -> Iterator[EpochRecord]:
    """Generate the epoch stream for a scenario.

    Deterministic for a given config: all randomness flows from one
    generator seeded with ``config.seed`` in the draw order documented in
    the module docstring.
    """
    rng = np.random.default_rng(config.seed)
    layout = config.layout
    n_ant = layout.antenna_count
    n_sat = len(config.constellation)
    pairs, body_bl = _pair_baselines(layout)
    n_pairs = len(pairs)
    body = layout.positions

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
    lattice = _lattice_table(noise.wrong_fix_max_multiple)

    phases = rng.uniform(0.0, 2.0 * math.pi, size=(n_sat, n_ant))

    for k in range(config.n_epochs):
        t = k / config.rate_hz
        p_plat = trajectory_position(config, t)
        q_truth = truth_attitude(config, t)
        r_eb = quat_to_matrix(q_truth)
        ant_world = p_plat.as_array() + body @ r_eb.T
        bl_world = body_bl @ r_eb.T

        ant_norm = rng.standard_normal((n_ant, 6))
        ant_unif = rng.random((n_ant, 3))
        ant_lat = rng.integers(0, len(lattice), n_ant)
        bl_norm = rng.standard_normal((n_pairs, 6))
        bl_unif = rng.random((n_pairs, 3))
        bl_lat = rng.integers(0, len(lattice), n_pairs)
        snr_jit = rng.standard_normal((n_sat, n_ant))

        ant_channels = _build_channels(ant_world, ant_norm, ant_unif, ant_lat, lattice, noise)
        bl_channels = _build_channels(bl_world, bl_norm, bl_unif, bl_lat, lattice, noise)
        req = RequeryData(model, solution_sats, ant_channels, bl_channels)
        fixes, baselines, ant_fixed, bl_fixed = _status_sets(req, mp_sats, frozenset(), layout)

        offsets = np.zeros((n_sat, n_ant))
        if n_mp and snr_model.fading_amplitude_db > 0.0:
            swing = 3.0 * np.sin(2.0 * math.pi * t / snr_model.fading_period_s + phases)
            offsets[mp_mask] = snr_model.fading_amplitude_db * np.clip(
                swing[mp_mask], -1.0, 1.0
            )
        snr = nominal[:, None] + offsets + snr_model.thermal_jitter_db * snr_jit
        snr = np.round(np.clip(snr, SNR_MIN_DBHZ, SNR_MAX_DBHZ), 2)

        wrong_ants = frozenset((np.flatnonzero(ant_fixed & ant_channels.wrong) + 1).tolist())
        corrupted = frozenset(map(tuple, pairs[bl_fixed & bl_channels.wrong].tolist()))
        truth = EpochTruth(
            position=p_plat,
            attitude=q_truth,
            multipath_sats=mp_sats,
            corrupted_baselines=corrupted,
            wrong_fix_antennas=wrong_ants,
            requery=req,
        )
        snr_rows = SnrTable(solution_sats, snr)
        yield EpochRecord(t=t, fixes=fixes, baselines=baselines, snr_rows=snr_rows, truth=truth)


def _build_channels(
    truth_vecs: np.ndarray,
    norm: np.ndarray,
    unif: np.ndarray,
    lat_idx: np.ndarray,
    lattice: np.ndarray,
    noise: NoiseModel,
) -> ChannelDraws:
    return ChannelDraws(
        u_fix=unif[:, 0],
        u_float=unif[:, 1],
        wrong=unif[:, 2] < noise.wrong_fix_prob,
        latent_fixed=truth_vecs + noise.sigma_fixed_m * norm[:, :3],
        latent_float=truth_vecs + noise.sigma_float_m * norm[:, 3:],
        wrong_offset=noise.wrong_fix_unit_m * lattice[lat_idx],
    )


def scan_stream(config: ScenarioConfig, scanner: ScannerModel) -> Iterator[ScanFrame]:
    """Generate scanner frames along the flight from truth poses.

    Each revolution sweeps a cone-angle beam across the ground plane; range
    returns are labeled with whether the (noise-free) ground intersection
    lies on a reflector disc. Positions are evaluated per pulse, attitude
    once per frame (at the frame start), and a frame's pulses are computed
    as one array. Seeded independently of the epoch stream so enabling the
    scanner does not perturb GNSS draws.
    """
    if config.trajectory.kind is not TrajectoryKind.WAYPOINT:
        raise ConfigurationError("scan generation requires a waypoint trajectory")
    rng = np.random.default_rng(np.random.SeedSequence([config.seed, _SCAN_SEED_SALT]))

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

    n_frames = int(round(config.duration_s * scanner.spin_hz))
    for k in range(n_frames):
        t0 = k / scanner.spin_hz
        ts = t0 + np.arange(ppr) / (scanner.spin_hz * ppr)
        noise_draw = scanner.range_noise_m * rng.standard_normal(ppr)

        pos = trajectory_position(config, ts)
        roll, pitch, yaw = config.attitude_profile.angles_at(t0)
        r_eb = quat_to_matrix(euler_to_quat(roll, pitch, yaw))

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
    poses: Sequence[Pose],
    sigma_pos_m: float,
    sigma_att_deg: float,
    tau_s: float,
    seed: int,
) -> list[Pose]:
    """Add temporally correlated pose errors (first-order Gauss-Markov).

    Position errors (per ENU axis) and attitude errors (per Euler axis, as a
    left-multiplied small rotation) share the correlation time ``tau_s`` and
    are stationary with the given standard deviations. Models slowly varying
    RTK/attitude estimation error rather than white noise.
    """
    if sigma_pos_m < 0.0 or sigma_att_deg < 0.0:
        raise ValidationError("error sigmas must be nonnegative")
    if not (tau_s > 0.0):
        raise ValidationError("correlation time must be positive")
    rng = np.random.default_rng(seed)
    out: list[Pose] = []
    state = rng.standard_normal(6)
    prev_t: float | None = None
    for pose in poses:
        if prev_t is not None:
            alpha = math.exp(-(pose.t - prev_t) / tau_s)
            state = alpha * state + math.sqrt(1.0 - alpha * alpha) * rng.standard_normal(6)
        prev_t = pose.t
        dp = sigma_pos_m * state[:3]
        dr, dpitch, dyaw = (sigma_att_deg * x for x in state[3:])
        q_err = euler_to_quat(float(dr), float(dpitch), float(dyaw))
        out.append(
            Pose(
                t=pose.t,
                p=Vec3.from_array(pose.p.as_array() + dp),
                q=quat_multiply(q_err, pose.q),
            )
        )
    return out
