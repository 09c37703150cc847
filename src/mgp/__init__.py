"""Multi-antenna GNSS attitude/position estimation and 3D mapping toolkit."""
from __future__ import annotations

from .attitude import (
    AttitudeSolution,
    Baselines,
    VectorObservation,
    baseline_weights,
    davenport_matrix,
    estimate_attitude,
    solve_max_eigenpair,
)
from .core import (
    AntennaLayout,
    RotationMatrix,
    UnitQuaternion,
    Vec3,
    euler_from_quat,
    euler_to_quat,
    hexagon_layout,
    matrix_to_quat,
    quat_angle,
    quat_multiply,
    quat_to_matrix,
    rotate,
)
from .epochs import EpochBlock, EpochTruth, FixModel, requery_epoch
from .errors import (
    ConfigurationError,
    DegenerateGeometryError,
    InputError,
    InsufficientDataError,
    MgpError,
    ValidationError,
)
from .mapping import (
    Cloud,
    MountCalibration,
    Poses,
    ReflectorReport,
    ReflectorResult,
    ScanFrame,
    evaluate_reflectors,
    georeference,
    georeference_stream,
)
from .multipath import (
    MultipathReport,
    SnrTable,
    detect_multipath,
    snr_sd,
)
from .oracles import gain_scan, mapping_error_budget, wahba_svd
from .pipeline import (
    EpochResult,
    MetricsReport,
    MultipathConfig,
    PipelineConfig,
    RunResult,
    load_pipeline_config,
    pipeline_config_from_dict,
    process_epoch,
    run,
)
from .positioning import Fixes, FixStatus, PositionSolution, hybrid_position
from .robust import (
    RansacParams,
    RobustAttitudeResult,
    ransac_attitude,
)
from .simulator import (
    AttitudeProfile,
    NoiseModel,
    Reflector,
    Satellite,
    ScannerModel,
    ScenarioConfig,
    SkyMaskSector,
    SnrModel,
    Trajectory,
    TrajectoryKind,
    corrupt_poses,
    load_scenario,
    multipath_satellite_ids,
    scan_stream,
    scenario_from_dict,
    simulate,
    trajectory_position,
    truth_attitude,
    truth_poses,
)
from .streams import (
    bundled_scenario_path,
    load_calibration,
    load_reflectors,
    read_cloud,
    read_epoch_blocks,
    read_epochs,
    read_poses,
    read_scan,
    write_cloud,
    write_epochs,
    write_json,
    write_poses,
    write_scan,
)

__version__ = "0.1.0"
