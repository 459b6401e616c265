"""Geometry-based stochastic channel simulator for surface-assisted mmWave MIMO links."""

from .campaign import (Campaign, CoverageGrid, GridSpec, RateStatistics,
                       composite_singular_values, compute_phase_sets, coverage_map,
                       default_grid, dump_channels, export_coverage,
                       export_statistics, load_channel_dump, read_csv_table,
                       run_campaign)
from .channel import (RealizationChannels, Scene, assemble_direct_channel,
                      assemble_link_channel, build_scene, composite_multi, phase_matrix,
                      realize_channels)
from .config import (ENVIRONMENTS, ArraySpec, Environment, PathLossTable, RisSpec,
                     SimConfig, ValidatedConfig, config_hash, dbm_to_watts,
                     load_config, parse_config_text, serialize_config,
                     validate_config, watts_to_dbm)
from .control import (achievable_rate, baseline_phases, far_field_power, pinv_phases,
                      quantize_phases, select_ris, siso_optimal_phases)
from .geometry import azimuth_rotation_frame, element_gain, frame_from_plane
from .presets import SCENE_PRESETS, scene_preset
from .propagation import (ClusterSet, LinkState, draw_clusters, draw_link_state,
                          los_probability, path_loss)
from .rng import LinkTag, spawn_rng

__version__ = "0.1.0"
