"""Drift-robust identification of cyclic coded-light beacons.

Flashers blink short cyclic binary codes; a camera decodes them from
any phase without a shared clock, tolerating the bit slips and flips
that sensor/emitter clock drift causes, and recovers the camera pose
from the identified points. See the subpackages: codebook (code
construction), codec (streaming decode), signal (photometry to bits),
channel (clocks and sensor sampling), pose (PnP), scenario (end-to-end
simulation), cli (command line).
"""

from .channel import (
    ClockModel,
    EmitterState,
    SensorTiming,
    apply_heartbeat,
    count_drift_events,
    heartbeat_expired,
    render_samples,
    sample_stream,
    sync_interval,
)
from .codebook import (
    BitWord,
    Codebook,
    LookupTable,
    brute_force_max_codebook,
    canonical_rotation,
    codebook_from_json,
    codebook_to_json,
    generate_initial_codebook,
    generate_robust_codebook,
    necklace_count,
    noisify,
)
from .codec import (
    DecodeState,
    StreamDecoder,
    assign_ids,
    indel_distance,
    lock_on_display,
    lock_on_time,
    push_bit,
    render_lockon_table,
)
from .pose import (
    CameraIntrinsics,
    DegenerateConfigurationError,
    InsufficientDataError,
    Pose,
    pose_error,
    project,
    resolve_scale,
    solve_pnp,
    solve_pnp_frames,
)
from .scenario import ConfigError, ScenarioConfig, ScenarioReport, run
from .signal import (
    Detection,
    FlashSample,
    HueBitizer,
    IntensityBitizer,
    NoTransitionError,
    SampleTrace,
    associate,
    classify_hue,
    classify_intensity,
    detect_flashes,
    read_trace_csv,
    write_trace_csv,
)

__version__ = "0.1.0"

__all__ = [
    "BitWord",
    "CameraIntrinsics",
    "ClockModel",
    "Codebook",
    "ConfigError",
    "DecodeState",
    "DegenerateConfigurationError",
    "Detection",
    "EmitterState",
    "FlashSample",
    "HueBitizer",
    "InsufficientDataError",
    "IntensityBitizer",
    "LookupTable",
    "NoTransitionError",
    "Pose",
    "SampleTrace",
    "ScenarioConfig",
    "ScenarioReport",
    "SensorTiming",
    "StreamDecoder",
    "apply_heartbeat",
    "assign_ids",
    "associate",
    "brute_force_max_codebook",
    "canonical_rotation",
    "classify_hue",
    "classify_intensity",
    "codebook_from_json",
    "codebook_to_json",
    "count_drift_events",
    "detect_flashes",
    "generate_initial_codebook",
    "generate_robust_codebook",
    "heartbeat_expired",
    "indel_distance",
    "lock_on_display",
    "lock_on_time",
    "necklace_count",
    "noisify",
    "pose_error",
    "project",
    "push_bit",
    "read_trace_csv",
    "render_lockon_table",
    "render_samples",
    "resolve_scale",
    "run",
    "sample_stream",
    "solve_pnp",
    "solve_pnp_frames",
    "sync_interval",
    "write_trace_csv",
]
