"""Geometry-based stochastic channel simulator for surface-assisted mmWave MIMO links.

Each public name loads its module on first use (PEP 562), so `import
rislink` and `validate_config` run only the config layer; the engine
modules load at the first engine name a caller reads.
"""

import importlib

_MODULE_NAMES = {
    "campaign": ("Campaign", "CoverageGrid", "GridSpec", "RateStatistics",
                 "composite_singular_values", "compute_phase_sets", "coverage_map",
                 "default_grid", "dump_channels", "export_coverage", "export_statistics",
                 "load_channel_dump", "read_csv_table", "run_campaign"),
    "channel": ("RealizationChannels", "Scene", "assemble_direct_channel",
                "assemble_link_channel", "build_scene", "composite_multi",
                "realize_channels"),
    "config": ("ENVIRONMENTS", "SCENE_PRESETS", "ArraySpec", "Environment", "PathLossTable",
               "RisSpec", "SimConfig", "ValidatedConfig", "config_hash", "dbm_to_watts",
               "load_config", "parse_config_text", "scene_preset", "serialize_config",
               "validate_config", "watts_to_dbm"),
    "control": ("achievable_rate", "baseline_phases", "far_field_power", "pinv_phases",
                "quantize_phases", "select_ris", "siso_optimal_phases"),
    "geometry": ("azimuth_rotation_frame", "element_gain", "frame_from_plane"),
    "propagation": ("ClusterSet", "LinkState", "draw_clusters", "draw_link_state",
                    "los_probability"),
    "rng": ("LinkTag", "spawn_rng"),
}
_MODULE_OF = {name: module for module, names in _MODULE_NAMES.items() for name in names}
_SUBMODULES = frozenset(_MODULE_NAMES) | {"errors"}

__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    """Import the module that defines `name` and keep the name here, so later
    reads (and `setattr` on the package) see an ordinary global."""
    if name in _MODULE_OF:
        module = importlib.import_module(f"{__name__}.{_MODULE_OF[name]}")
        value = globals()[name] = getattr(module, name)
        return value
    if name in _SUBMODULES:   # `rislink.campaign` after a bare `import rislink`
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__))
