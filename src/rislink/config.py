"""Scenario configuration: domain types, presets, validation, and file I/O.

All external inputs (config files, CLI flags) are in engineering units
(GHz, dBm, meters, wavelengths); everything downstream computes in SI +
linear watts.  `validate_config` is the single place where derived
quantities are produced and invariants enforced.

Config files are flat ``key = value`` text, one scenario per file: lists
use commas and per-surface entries are separated by ``;``.  The key table
(`_KEYS`) is the single definition of the keys, documented in the README,
and of what a field they set holds, in a file or in a library config alike.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import numbers
import sys
import warnings
from dataclasses import dataclass
from functools import cache, lru_cache
from typing import Any, Callable, Iterable, NamedTuple

import numpy as np

from .errors import (ConfigError, EmptySweep, NearFieldViolation, NearFieldWarning,
                     NonPositiveCount, UnknownEnvironment)
from .geometry import GLOBAL_FRAME, frame_from_plane

SPEED_OF_LIGHT = 299792458.0


def dbm_to_watts(dbm: float) -> float:
    return 10.0 ** ((dbm - 30.0) / 10.0)


def _power_watts(what: str, dbm: float) -> float:
    """`dbm_to_watts`, rejecting a level whose watts are not finite and > 0."""
    try:
        watts = dbm_to_watts(dbm)
    except OverflowError:
        watts = math.inf
    if not (math.isfinite(watts) and watts > 0.0):
        raise ConfigError(f"{what} {dbm} dBm is not a finite positive power in watts")
    return watts


def watts_to_dbm(watts: float) -> float:
    return 10.0 * math.log10(watts) + 30.0


# Elements per array at most.  One steering matrix of a larger array runs
# to gigabytes, and factoring its count into a grid (`near_square_grid`
# trial-divides up to the square root) would stall validation.
MAX_ARRAY_ELEMENTS = 1 << 20
# Scatterers per cluster, mean clusters per link and phase bits at most: a link's
# paths are held for a whole block of realizations (SimRIS draws 1-30 and ~2), and
# a float64 phase resolves ~2**-52 of a turn, so finer phase levels quantize nothing.
MAX_SCATTERERS, MAX_CLUSTER_INTENSITY, MAX_PHASE_BITS = 100, 100.0, 52


def near_square_grid(count: int) -> tuple[int, int]:
    """Factor `count` into the most square (rows, cols) grid, rows <= cols.

    Takes O(sqrt(count)) steps; validation keeps counts within `MAX_ARRAY_ELEMENTS`.
    """
    rows = 1
    for r in range(int(math.isqrt(count)), 0, -1):
        if count % r == 0:
            rows = r
            break
    return rows, count // rows


@lru_cache(maxsize=None)
def _grid_axes(grid_shape: tuple[int, int], spacing_m: float,
               centered: bool) -> tuple[np.ndarray, np.ndarray]:
    """Local vertical coordinate of each row and horizontal one of each column
    of a planar element grid (cached; treat as read-only)."""
    rows, cols = grid_shape
    r, c = np.arange(rows), np.arange(cols)
    if centered:
        vert = ((rows - 1) / 2.0 - r) * spacing_m
        horiz = (c - (cols - 1) / 2.0) * spacing_m
    else:
        vert = r * spacing_m
        horiz = c * spacing_m
    vert.flags.writeable = horiz.flags.writeable = False
    return vert, horiz


@dataclass(frozen=True)
class PathLossTable:
    """Coefficients of PL[dB] = A + B*log10(d[m]) + C*log10(f[GHz]) + X_sigma."""

    intercept_db: float
    distance_coeff_db: float
    frequency_coeff_db: float
    shadow_sigma_db: float


@dataclass(frozen=True)
class Environment:
    """Propagation environment preset; every field is user-overridable."""

    name: str
    cluster_intensity: float                 # Poisson mean of the cluster count
    pl_los: PathLossTable
    pl_nlos: PathLossTable
    los_model: str = "inh"                   # inh | umi | always | never
    scatterers_min: int = 1
    scatterers_max: int = 30
    cluster_azimuth_deg: float = 90.0        # half-width of cluster departure azimuth
    cluster_elevation_deg: float = 45.0      # half-width of cluster departure elevation
    scatter_spread_deg: float = 5.0          # half-width of per-scatterer angle offset
    footprint: tuple[float, float] | None = None  # room extent (x, y) for coverage grids


_FSPL_INTERCEPT = 20.0 * math.log10(4.0 * math.pi * 1e9 / SPEED_OF_LIGHT)

ENVIRONMENTS: dict[str, Environment] = {
    "inh": Environment(
        name="inh",
        cluster_intensity=1.8,
        pl_los=PathLossTable(32.4, 17.3, 20.0, 3.0),
        pl_nlos=PathLossTable(17.3, 38.3, 24.9, 8.03),
        los_model="inh",
        footprint=(75.0, 50.0),
    ),
    "umi": Environment(
        name="umi",
        cluster_intensity=1.9,
        pl_los=PathLossTable(32.4, 21.0, 20.0, 4.0),
        pl_nlos=PathLossTable(22.4, 35.3, 21.3, 7.82),
        los_model="umi",
    ),
    # Free-space reference: exact Friis attenuation, no shadowing, LOS certain.
    "freespace": Environment(
        name="freespace",
        cluster_intensity=1.8,
        pl_los=PathLossTable(_FSPL_INTERCEPT, 20.0, 20.0, 0.0),
        pl_nlos=PathLossTable(_FSPL_INTERCEPT, 20.0, 20.0, 0.0),
        los_model="always",
    ),
}


@dataclass(frozen=True)
class ArraySpec:
    """Tx or Rx antenna array: layout, element count, placement, orientation."""

    layout: str                       # "ula" | "upa"
    count: int
    position: tuple[float, float, float]
    spacing_wl: float = 0.5
    orientation: str = "global"       # global | xz+ | xz- | yz+ | yz-

    @property
    def grid_shape(self) -> tuple[int, int]:
        if self.layout == "ula":
            return (1, self.count)
        return near_square_grid(self.count)

    @property
    def frame(self) -> np.ndarray:
        if self.orientation == "global":
            return GLOBAL_FRAME
        return frame_from_plane(self.orientation[:2], +1 if self.orientation[2] == "+" else -1)

    def grid_axes(self, wavelength: float) -> tuple[np.ndarray, np.ndarray]:
        """Local (vertical per row, horizontal per column) element coordinates, meters."""
        return _grid_axes(self.grid_shape, self.spacing_wl * wavelength, False)


@dataclass(frozen=True)
class RisSpec:
    """One reflecting surface: element grid, mounting plane, radiation exponent."""

    count: int
    position: tuple[float, float, float]
    plane: str = "xz"                 # mounting plane: xz | yz
    facing: int | None = None         # +1/-1 along the plane normal; None = towards Tx
    gain_exponent: float = 0.285      # q of the cos^(2q) element pattern
    spacing_wl: float = 0.5
    shape: tuple[int, int] | None = None  # explicit (rows, cols); None = near-square

    @property
    def grid_shape(self) -> tuple[int, int]:
        return self.shape if self.shape is not None else near_square_grid(self.count)

    @property
    def frame(self) -> np.ndarray:
        facing = self.facing if self.facing is not None else 1
        return frame_from_plane(self.plane, facing)

    def grid_axes(self, wavelength: float) -> tuple[np.ndarray, np.ndarray]:
        """Local (vertical per row, horizontal per column) element coordinates,
        meters, centred on the surface's position."""
        return _grid_axes(self.grid_shape, self.spacing_wl * wavelength, True)

    def fraunhofer_distance(self, wavelength: float) -> float:
        """2 D^2 / lambda for the aperture diagonal D: the far-field model's near limit."""
        rows, cols = self.grid_shape
        s = self.spacing_wl * wavelength
        return 2.0 * math.hypot((rows - 1) * s, (cols - 1) * s) ** 2 / wavelength


@dataclass(frozen=True)
class SimConfig:
    """Full scenario description; immutable after construction."""

    environment: Environment
    frequency_hz: float
    tx: ArraySpec
    rx: ArraySpec
    ris: tuple[RisSpec, ...]
    pt_dbm: tuple[float, ...] = (40.0,)
    noise_dbm: float = -100.0
    realizations: int = 500
    seed: int = 1
    direct_mode: str = "auto"            # auto | blocked | present
    blocked_keeps_scatter: bool = False  # keep D's scattered paths when blocked
    ris_links: str = "auto"              # auto | los (force Tx-RIS / RIS-Rx LOS)
    shared_clusters: bool = False        # RIS-Rx link reuses Tx-RIS cluster geometry
    scatter_paths: bool = True           # disable for pure-LOS studies
    rx_orientation: str = "random-azimuth"  # random-azimuth | fixed
    algorithm: str = "pinv"              # pinv | siso | random | zero
    phase_bits: int | None = None        # quantize phases to 2**bits levels
    idle_ris: str = "absent"             # absent | random (non-selected surfaces)
    strict_near_field: bool = False


@dataclass(frozen=True)
class ValidatedConfig:
    """A `SimConfig` with invariants checked and derived quantities attached."""

    config: SimConfig
    wavelength: float
    pt_watts: tuple[float, ...]
    noise_watts: float
    config_hash: str


def _resolve_facing(ris: RisSpec, tx_position: tuple[float, float, float]) -> RisSpec:
    if ris.facing is not None:
        return ris
    axis = 1 if ris.plane == "xz" else 0
    delta = tx_position[axis] - ris.position[axis]
    return dataclasses.replace(ris, facing=-1 if delta < 0 else 1)


def check_positions(cfg: SimConfig, wavelength: float, receivers) -> None:
    """Check the config's transmitter and surfaces and a (K, 3) stack of
    receiver positions: where a terminal may stand.

    Every position must be three finite coordinates with z >= 0 (above the
    ground plane).  A receiver on the transmitter, or any terminal on a
    surface, is a ConfigError.  Terminals inside a surface's Fraunhofer
    distance raise one NearFieldWarning with their count and the nearest
    such distance, or NearFieldViolation under `strict_near_field`.
    """
    devices = [cfg.tx.position] + [r.position for r in cfg.ris]
    receivers = np.asarray(receivers, float)
    if any(len(p) != 3 for p in devices) or receivers.shape[1:] != (3,):
        raise ConfigError(f"every position must be three coordinates, got {devices} and "
                          f"a receiver stack of shape {receivers.shape}")
    anchors = np.array(devices, float)
    every = np.concatenate([anchors, receivers])
    if len(bad := np.flatnonzero(~(np.isfinite(every).all(axis=1) & (every[:, 2] >= 0)))):
        i = bad[0]
        name = "transmitter" if i == 0 else f"ris[{i - 1}]" if i < len(anchors) else "receiver"
        raise ConfigError(f"{name} position {tuple(every[i].tolist())} must be three finite "
                          "coordinates above the ground plane (z >= 0)")
    points = np.concatenate([anchors[:1], receivers])
    dist = np.linalg.norm(points[:, None, :] - anchors, axis=-1)   # (1 + K, 1 + surfaces)
    dist[0, 0] = math.inf   # the transmitter itself
    if np.any(dist == 0.0):
        k, j = np.argwhere(dist == 0.0)[0]
        on = "the transmitter" if j == 0 else f"ris[{j - 1}]"
        raise ConfigError(f"{'receiver' if k else 'transmitter'} position "
                          f"{tuple(points[k].tolist())} lies on {on}")
    near = dist[:, 1:] < [r.fraunhofer_distance(wavelength) for r in cfg.ris]
    if near.any():
        rows = near.any(axis=1)
        who = ["the transmitter"] if rows[0] else []
        if count := np.count_nonzero(rows[1:]):
            who.append(f"{count} of {len(receivers)} receiver positions")
        msg = (f"{' and '.join(who)} {'lies' if who == ['the transmitter'] else 'lie'} "
               f"inside a surface's Fraunhofer distance, the nearest "
               f"{dist[:, 1:][near].min():.2f} m from its surface; the far-field model does "
               "not apply there")
        if cfg.strict_near_field:
            raise NearFieldViolation(msg)
        warnings.warn(msg, NearFieldWarning, stacklevel=3)


def validate_config(cfg: SimConfig | ValidatedConfig) -> ValidatedConfig:
    """Check all invariants and return the config with derived quantities.

    Re-validating a ValidatedConfig is idempotent.  Each field meets the
    kind, choices and bounds of the key that sets it, then come the rules
    across fields and `check_positions`.  Raises subclasses of ConfigError
    on violations; near-field geometry warns unless `strict_near_field` is set.
    """
    if isinstance(cfg, ValidatedConfig):
        cfg = cfg.config
    if not isinstance(cfg.environment, Environment):
        raise UnknownEnvironment(f"environment must be an Environment, got {cfg.environment!r}")
    if not (isinstance(cfg.tx, ArraySpec) and isinstance(cfg.rx, ArraySpec)
            and type(cfg.ris) is tuple and all(isinstance(r, RisSpec) for r in cfg.ris)):
        raise ConfigError("tx and rx must be ArraySpecs and ris a tuple of RisSpecs")
    for head, attr, key in _RULES:
        value = getattr(cfg, head)
        if key.kind.each:
            for i, ris in enumerate(value):
                _check_value(key, getattr(ris, attr), f"{key.name} of ris[{i}]")
        else:
            _check_value(key, getattr(value, attr) if attr else value, key.name)

    if (env := cfg.environment).scatterers_max < env.scatterers_min:
        raise NonPositiveCount(f"scatterers_max must be >= scatterers_min "
                               f"{env.scatterers_min}, got {env.scatterers_max}")
    if len(cfg.pt_dbm) == 0:
        raise EmptySweep("the transmit power sweep list is empty")
    if len(set(cfg.pt_dbm)) != len(cfg.pt_dbm):
        raise ConfigError(f"the transmit powers must be distinct, got {cfg.pt_dbm}")
    for name, spec in (("tx", cfg.tx), ("rx", cfg.rx)):
        if spec.orientation not in ("global", "xz+", "xz-", "yz+", "yz-"):
            raise ConfigError(f"{name} orientation {spec.orientation!r} not recognized")
    if cfg.rx_orientation == "random-azimuth" and cfg.rx.orientation != "global":
        raise ConfigError(f"rx orientation {cfg.rx.orientation!r} has no effect: the random "
                          "azimuth frame replaces it; use global or rx_orientation fixed")
    if cfg.algorithm == "siso" and (cfg.tx.count, cfg.rx.count) != (1, 1):
        raise ConfigError("the siso algorithm requires Nt = Nr = 1")
    if len(cfg.ris) == 0 and cfg.direct_mode == "blocked":
        raise ConfigError("a scene with no RIS cannot also block the direct path")
    for i, ris in enumerate(cfg.ris):
        if ris.shape is not None and ris.shape[0] * ris.shape[1] != ris.count:
            raise ConfigError(f"ris[{i}] grid shape {ris.shape} does not hold {ris.count} elements")

    wavelength = SPEED_OF_LIGHT / cfg.frequency_hz
    check_positions(cfg, wavelength, [cfg.rx.position])
    cfg = dataclasses.replace(cfg, ris=tuple(_resolve_facing(r, cfg.tx.position)
                                             for r in cfg.ris))
    return ValidatedConfig(
        config=cfg,
        wavelength=wavelength,
        pt_watts=tuple(_power_watts("the transmit power", p) for p in cfg.pt_dbm),
        noise_watts=_power_watts("the noise power", cfg.noise_dbm),
        config_hash=config_hash(cfg),
    )


def _check_value(key: _Key, value, where: str) -> None:
    """Apply a key's kind, then its choices, then its bounds to one (surface's) value."""
    if not key.kind.check(value):
        raise ConfigError(f"{where} must be {key.kind.what}, got {value!r}")
    if key.choices and value not in key.choices:
        raise ConfigError(f"{where} must be one of {key.choices}, got {value!r}")
    if key.least is None or value is None:
        return
    for number in value if type(value) is tuple else (value,):   # a grid shape's sides
        if number < key.least or (key.strict and number == key.least):
            raise (NonPositiveCount if type(key.least) is int else ConfigError)(
                f"{where} must be {'>' if key.strict else '>='} {key.least}, got {number!r}")
        if number > key.most:
            raise ConfigError(f"{where} {number!r} exceeds the maximum of {key.most}")


# ---------------------------------------------------------------------------
# Config file keys: one table drives parsing, serialization and overrides
# ---------------------------------------------------------------------------

def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return ", ".join(_fmt(v) for v in value)
    return str(value)


class _Kind(NamedTuple):
    """How a key's value reads from and writes to config text, and whether
    a value in a library config is of the kind (`check`), which `what` names."""

    parse: Callable[[str], Any]
    check: Callable[[Any], bool]
    what: str
    fmt: Callable[[Any], str] = _fmt
    each: bool = False       # one value per surface, `;`-separated


def is_real(value) -> bool:
    """The number rule of config keys: a finite real number, not a bool."""
    return (type(value) in (float, int) or isinstance(value, numbers.Real)
            and not isinstance(value, bool)) and abs(value) <= sys.float_info.max


def is_count(value) -> bool:
    """The count rule of config keys: a whole number, not a bool or a float."""
    return type(value) is int or isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _word(text: str) -> str:
    return text.strip().lower()


def _number(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ConfigError(f"expected a number, got {text!r}") from None


def _whole(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        value = _number(text)
    if not value.is_integer():
        raise ConfigError(f"expected a whole number, got {text!r}")
    return int(value)


def _numbers(text: str, count: int | None = None, parse=_number) -> tuple:
    values = tuple(parse(part) for part in text.split(","))
    if count is not None and len(values) != count:
        raise ConfigError(f"expected {count} comma-separated values, got {text!r}")
    return values


def _bool(text: str) -> bool:
    if _word(text) not in ("true", "false"):
        raise ConfigError(f"expected true or false, got {text!r}")
    return _word(text) == "true"


def _environment(text: str) -> Environment:
    name = _word(text)
    if name not in ENVIRONMENTS:
        raise UnknownEnvironment(
            f"unknown environment {name!r}; available: {sorted(ENVIRONMENTS)}")
    return ENVIRONMENTS[name]


def _optional(kind: _Kind, token: str) -> _Kind:
    """`kind`, or None spelled as `token`."""
    return _Kind(lambda text: None if _word(text) == token else kind.parse(text),
                 lambda value: value is None or kind.check(value), f"{kind.what} or None",
                 lambda value: token if value is None else kind.fmt(value))


def _tuple(item: _Kind, count: int | None, what: str) -> _Kind:
    """A tuple of `count` `item` values (any number for None), comma-separated."""
    return _Kind(lambda text: _numbers(text, count, item.parse),
                 lambda value: (type(value) is tuple and (count is None or len(value) == count)
                                and all(map(item.check, value))), what)


def _each(kind: _Kind, none: str = "") -> _Kind:
    """One `kind` value per surface, `;`-separated; `none` spells no surface."""
    def parse(text: str) -> list:
        parts = [] if _word(text) == none else text.split(";")
        return [kind.parse(part) for part in parts if part.strip()]
    return _Kind(parse, kind.check, kind.what,
                 lambda values: " ; ".join(kind.fmt(v) for v in values), each=True)


_FLOAT = _Kind(_number, is_real, "a finite number")
_COUNT = _Kind(_whole, is_count, "a whole number")
_WORD = _Kind(_word, lambda value: isinstance(value, str), "a str")
_BOOL = _Kind(_bool, lambda value: value is True or value is False, "a bool")
_POINT = _tuple(_FLOAT, 3, "a tuple of three finite numbers")
_PATH_LOSS = _Kind(lambda text: PathLossTable(*_numbers(text, 4)),
                   lambda table: (type(table) is PathLossTable
                                  and all(map(is_real, vars(table).values()))
                                  and table.shadow_sigma_db >= 0 and table.distance_coeff_db > 0),
                   "a PathLossTable of finite numbers, sigma >= 0 and distance coefficient > 0",
                   lambda table: _fmt(dataclasses.astuple(table)))
_SHAPE = _tuple(_COUNT, 2, "a tuple of two whole numbers")._replace(
    parse=lambda text: _numbers(text.replace("x", ","), 2, _whole))


class _Key(NamedTuple):
    """A config file key: the text used when it is absent (None keeps the
    field's dataclass default, the environment's for its keys, so a key has
    a text only where its field has no default; a callable derives it from
    earlier keys' texts), the dotted SimConfig fields it sets (under `ris`,
    for every surface) and what they hold: its kind, one of its choices,
    numbers within its bounds.  Of keys sharing a field the later one wins."""

    name: str
    default: str | Callable[[dict[str, str]], str] | None
    kind: _Kind
    fields: tuple[str, ...]
    choices: tuple = ()
    least: float | None = None   # bounds of each number, inclusive; a count's least is an
    most: float = math.inf       # int, and a count below it raises NonPositiveCount
    strict: bool = False         # least itself is out of bounds


_SIZE = {"least": 1, "most": MAX_ARRAY_ELEMENTS}   # elements of an array or a grid side
_POSITIVE = {"least": 0.0, "strict": True}
_SCATTERERS = {"least": 1, "most": MAX_SCATTERERS}

_KEYS = (
    _Key("environment", "inh",
         _Kind(_environment, lambda env: isinstance(env, Environment) and type(env.name) is str,
               "a named Environment", lambda env: env.name), ("environment",)),
    _Key("cluster_intensity", None, _FLOAT, ("environment.cluster_intensity",),
         most=MAX_CLUSTER_INTENSITY, **_POSITIVE),
    _Key("scatterers_min", None, _COUNT, ("environment.scatterers_min",), **_SCATTERERS),
    _Key("scatterers_max", None, _COUNT, ("environment.scatterers_max",), **_SCATTERERS),
    _Key("los_model", None, _WORD, ("environment.los_model",), ("inh", "umi", "always", "never")),
    _Key("pl_los", None, _PATH_LOSS, ("environment.pl_los",)),
    _Key("pl_nlos", None, _PATH_LOSS, ("environment.pl_nlos",)),
    _Key("cluster_azimuth_deg", None, _FLOAT, ("environment.cluster_azimuth_deg",)),
    _Key("cluster_elevation_deg", None, _FLOAT, ("environment.cluster_elevation_deg",)),
    _Key("scatter_spread_deg", None, _FLOAT, ("environment.scatter_spread_deg",)),
    _Key("footprint", None, _optional(_tuple(_FLOAT, 2, "a tuple of two finite numbers"), "none"),
         ("environment.footprint",)),
    _Key("frequency_ghz", "28", _FLOAT._replace(parse=lambda text: _number(text) * 1e9),
         ("frequency_hz",)),
    _Key("frequency_hz", None, _FLOAT, ("frequency_hz",), **_POSITIVE),
    _Key("tx_position", "0, 25, 2", _POINT, ("tx.position",)),
    _Key("rx_position", "45, 45, 1", _POINT, ("rx.position",)),
    _Key("tx_array", "upa", _WORD, ("tx.layout",), ("ula", "upa")),
    _Key("rx_array", "upa", _WORD, ("rx.layout",), ("ula", "upa")),
    _Key("nt", "4", _COUNT, ("tx.count",), **_SIZE),
    _Key("nr", "4", _COUNT, ("rx.count",), **_SIZE),
    _Key("element_spacing", None, _FLOAT, ("tx.spacing_wl", "rx.spacing_wl"), **_POSITIVE),
    _Key("ris_position", "40, 50, 2", _each(_POINT, none="none"), ("ris.position",)),
    _Key("ris_plane", None, _each(_WORD), ("ris.plane",), ("xz", "yz")),
    _Key("ris_facing", None, _each(_optional(_COUNT, "auto")), ("ris.facing",), (None, 1, -1)),
    _Key("n_elements", "64", _each(_COUNT), ("ris.count",), **_SIZE),
    _Key("ris_shape", None, _each(_optional(_SHAPE, "auto")), ("ris.shape",), **_SIZE),
    _Key("ris_spacing", lambda kv: kv["element_spacing"], _each(_FLOAT), ("ris.spacing_wl",),
         **_POSITIVE),
    _Key("ris_gain_exponent", None, _each(_FLOAT), ("ris.gain_exponent",), least=0.0),
    _Key("pt_dbm", None, _tuple(_FLOAT, None, "a tuple of finite numbers"), ("pt_dbm",)),
    _Key("noise_dbm", None, _FLOAT, ("noise_dbm",)),
    # each realization index is seeded as one 32-bit word (`rng.block_rngs`)
    _Key("realizations", None, _COUNT, ("realizations",), least=1, most=2**32),
    _Key("seed", None, _COUNT, ("seed",), least=0),
    _Key("direct_path", None, _WORD, ("direct_mode",), ("auto", "blocked", "present")),
    _Key("blocked_keeps_scatter", None, _BOOL, ("blocked_keeps_scatter",)),
    _Key("ris_links", None, _WORD, ("ris_links",), ("auto", "los")),
    _Key("shared_clusters", None, _BOOL, ("shared_clusters",)),
    _Key("scatter_paths", None, _BOOL, ("scatter_paths",)),
    _Key("rx_orientation", None, _WORD, ("rx_orientation",), ("random-azimuth", "fixed")),
    _Key("algorithm", None, _WORD, ("algorithm",), ("pinv", "siso", "random", "zero")),
    _Key("phase_bits", None, _optional(_COUNT, "none"), ("phase_bits",),
         least=1, most=MAX_PHASE_BITS),
    _Key("idle_ris", None, _WORD, ("idle_ris",), ("absent", "random")),
    _Key("strict_near_field", None, _BOOL, ("strict_near_field",)),
)
_KEY_BY_NAME = {key.name: key for key in _KEYS}
_WRITER = {field: key for key in _KEYS for field in key.fields}   # the last key per field
_RULES = tuple((*field.partition(".")[::2], key) for field, key in _WRITER.items())


def _key_value(line: str, where: str) -> tuple[str, str]:
    if "=" not in line:
        raise ConfigError(f"{where}: expected 'key = value', got {line!r}")
    key, value = line.split("=", 1)
    key = key.strip().lower().replace("-", "_")
    if key not in _KEY_BY_NAME:
        raise ConfigError(f"{where}: unknown key {key!r}")
    return key, value.strip()


def parse_config_text(text: str, overrides: Iterable[str] = ()) -> SimConfig:
    """Parse the flat key = value scenario format into a SimConfig.

    A key may appear once.  Each `key=value` item of `overrides` then
    replaces every line that sets the same fields, as if the text had been
    edited: derived defaults follow, and either frequency spelling replaces
    the other.
    """
    kv: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            key, value = _key_value(line, f"line {lineno}")
            if key in kv:
                raise ConfigError(f"line {lineno}: duplicate key {key!r}")
            kv[key] = value
    for item in overrides:
        key, value = _key_value(item, f"override {item!r}")
        fields = set(_KEY_BY_NAME[key].fields)
        kv = {k: v for k, v in kv.items() if fields.isdisjoint(_KEY_BY_NAME[k].fields)}
        kv[key] = value
    return config_from_mapping(kv)


def config_from_mapping(kv: dict[str, str]) -> SimConfig:
    """Build a SimConfig from raw string key/values, defaults for the rest."""
    if unknown := kv.keys() - _KEY_BY_NAME.keys():
        raise ConfigError(f"unrecognized keys: {sorted(unknown)}")
    kv = dict(kv)   # completed with each key's default text as it is read
    top: dict[str, Any] = {}
    nested: dict[str, dict[str, Any]] = {}
    surfaces = None
    for key in _KEYS:
        default = key.default(kv) if callable(key.default) else key.default
        if (text := kv.setdefault(key.name, default)) is None:
            continue
        try:
            value = key.kind.parse(text)
        except ConfigError as exc:
            raise type(exc)(f"{key.name}: {exc}") from None
        if key.kind.each:
            surfaces = len(value) if surfaces is None else surfaces
            if len(value) not in (1, surfaces):
                raise ConfigError(f"{key.name} lists {len(value)} entries for {surfaces} surfaces")
            value = value * surfaces if len(value) == 1 else value
        for field in key.fields:
            head, _, attr = field.partition(".")
            (nested.setdefault(head, {}) if attr else top)[attr or head] = value
    ris = nested.pop("ris")
    top["ris"] = tuple(RisSpec(**dict(zip(ris, values))) for values in zip(*ris.values()))
    for head, attrs in nested.items():   # a preset refined field by field, or an array
        top[head] = dataclasses.replace(top[head], **attrs) if head in top else ArraySpec(**attrs)
    return SimConfig(**top)


# SimRIS 2.0's reference scenes as config text over the key defaults (the InH
# office at 28 GHz): both surface links are line-of-sight and the direct Tx-Rx
# path is blocked, the regime where a reconfigurable surface is useful.
SCENE_TEXT = {"indoor": "direct_path = blocked\nris_links = los\n"}
SCENE_TEXT["outdoor"] = SCENE_TEXT["indoor"] + (
    "environment = umi\ntx_array = ula\nrx_array = ula\ntx_position = 0, 25, 20\n"
    "rx_position = 50, 50, 1\nris_position = 40, 60, 10\n")
SCENE_PRESETS = tuple(SCENE_TEXT)


@cache
def scene_preset(name: str) -> SimConfig:
    """The named reference scene: 'indoor' (InH office) or 'outdoor' (UMi street canyon)."""
    if name not in SCENE_TEXT:
        raise ConfigError(f"unknown scene preset {name!r}; available: {', '.join(SCENE_PRESETS)}")
    return parse_config_text(SCENE_TEXT[name])


def load_config(path, overrides: Iterable[str] = ()) -> SimConfig:
    """`parse_config_text` of the file at `path`; an unreadable file is a ConfigError."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    return parse_config_text(text, overrides)


def serialize_config(cfg: SimConfig) -> str:
    """Canonical text form of a config; parsing it back reproduces `cfg`.

    Raises ConfigError for a value no key can express, such as a tx/rx
    orientation other than global or an rx spacing unlike the tx one.
    """
    values = {}   # each key's first field it is the last to set; a list under `ris`
    for head, attr, key in _RULES:
        value = getattr(cfg, head)
        values.setdefault(key, [getattr(ris, attr) for ris in value] if key.kind.each
                          else getattr(value, attr) if attr else value)
    text = "".join(f"{key.name} = {key.kind.fmt(value)}\n" for key, value in values.items())
    for want, got in zip(_leaves(cfg), _leaves(parse_config_text(text))):
        if repr(want) != repr(got):
            raise ConfigError(f"no config key can express {want[0]} = {want[1]!r}")
    return text


def _leaves(obj, path: str = "", out: list | None = None) -> list:
    """(path, value) for every leaf of a config tree, in field order.

    A tuple also gives its length, so the values alone determine the tree.
    Numbers become floats where a float holds them exactly, with -0.0
    folded into 0.0, so configs that compare equal give equal leaves.
    """
    out = [] if out is None else out
    kind = type(obj)
    if kind is float:
        out.append((path, obj + 0.0))
    elif kind is str or kind is bool or obj is None:
        out.append((path, obj))
    elif isinstance(obj, (tuple, list)):
        out.append((path, len(obj)))
        for i, item in enumerate(obj):
            _leaves(item, f"{path}[{i}]", out)
    elif names := getattr(kind, "__dataclass_fields__", None):
        for name in names:
            _leaves(getattr(obj, name), f"{path}.{name}" if path else name, out)
    elif kind is int or isinstance(obj, numbers.Real):
        exact = abs(obj) <= sys.float_info.max and float(obj) == obj
        out.append((path, float(obj) + 0.0 if exact else obj))
    else:
        out.append((path, obj))
    return out


def config_hash(cfg: SimConfig) -> str:
    """Stable hash of the full scenario; changes iff any config field changes."""
    values = repr([value for _, value in _leaves(cfg)])
    return hashlib.sha256(values.encode("utf-8")).hexdigest()[:16]
