"""Deterministic bench-scale simulator and optimizer suite for
reconfigurable-surface-assisted indoor links."""

from .channel import (
    ChannelModelParams,
    ChannelRealization,
    GainMeter,
    MeasurementFloorError,
    QuantizedBuffer,
    TonePowerMeter,
    ToneParams,
    channel_gain,
    derive_rng,
    derive_seed,
    end_to_end_gain,
    power_dbfs,
    quantize_adc,
    synthesize_channels,
    tone_waveform,
    write_iq_buffer,
)
from .codebook import (
    Codebook,
    CodebookEntry,
    CodebookGenerationError,
    PathEvaluation,
    PathEvaluationError,
    PathPointRecord,
    evaluate_path,
    generate_codebook,
    lookup_nearest,
)
from .geometry import (
    MeasurementGrid,
    Scene,
    Terminal,
    antenna_gain,
    grid_point,
    los_blocked,
    make_scene,
)
from .experiments import (
    ConfigError,
    ExperimentAssertionError,
    ScenarioConfig,
    config_from_dict,
    load_config,
    run_codebook_experiment,
    run_grouping_experiment,
    run_oracle_check,
    run_sweep,
    sweep_point,
)
from .optimizer import (
    MeasurementFailure,
    PowerTrace,
    TraceEntry,
    exhaustive_search,
    greedy_gap,
    greedy_iterative,
)
from .ris import (
    GroupingScheme,
    RisConfig,
    RisLayout,
    controller_corner,
    from_bit_array,
    make_grouping,
    theta_diag,
    to_bit_array,
)

__version__ = "0.1.0"
