"""Scenario configuration: domain types, presets, validation, and file I/O.

All external inputs (config files, CLI flags) are in engineering units
(GHz, dBm, meters, wavelengths); everything downstream computes in SI +
linear watts.  `validate_config` is the single place where derived
quantities are produced and invariants enforced.

Config files are flat ``key = value`` text, one scenario per file: lists
use commas and per-surface entries are separated by ``;``.  The key table
(`_KEYS`) is the single definition of the keys; the README documents them.
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


def _element_list(vert: np.ndarray, horiz: np.ndarray) -> np.ndarray:
    """Local coordinates (n, 3) of a planar grid's elements, row-major:
    element r * cols + c sits at (0, horiz[c], vert[r])."""
    return np.column_stack([np.zeros(vert.size * horiz.size), np.tile(horiz, vert.size),
                            np.repeat(vert, horiz.size)])


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

    def element_positions(self, wavelength: float) -> np.ndarray:
        """Local element coordinates (n, 3); element 0 is the phase reference."""
        return _element_list(*self.grid_axes(wavelength))


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
        """Local (vertical per row, horizontal per column) element coordinates, meters."""
        return _grid_axes(self.grid_shape, self.spacing_wl * wavelength, True)

    def element_positions(self, wavelength: float) -> np.ndarray:
        """Local element coordinates (n, 3), row-major over the grid.

        Rows run down the vertical in-plane axis, columns along the
        horizontal one; the grid is centered on the surface position.
        """
        return _element_list(*self.grid_axes(wavelength))

    def aperture_diagonal(self, wavelength: float) -> float:
        rows, cols = self.grid_shape
        s = self.spacing_wl * wavelength
        return math.hypot((rows - 1) * s, (cols - 1) * s)

    def fraunhofer_distance(self, wavelength: float) -> float:
        """2 D^2 / lambda for the aperture diagonal D: the far-field model's near limit."""
        return 2.0 * self.aperture_diagonal(wavelength) ** 2 / wavelength


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


def _check_point(name: str, p: tuple[float, float, float]) -> None:
    if len(p) != 3 or not all(math.isfinite(v) for v in p):
        raise ConfigError(f"{name} must be three finite coordinates, got {p!r}")
    if p[2] < 0:
        raise ConfigError(f"{name} must be above the ground plane (z >= 0), got z={p[2]}")


def _check_environment(cfg: SimConfig) -> None:
    env = cfg.environment
    if env.cluster_intensity <= 0:
        raise ConfigError("the cluster intensity must be > 0")
    if env.scatterers_min < 1 or env.scatterers_max < env.scatterers_min:
        raise ConfigError("scatterer count range must satisfy 1 <= min <= max")
    for key in _KEYS:
        if key.kind is _PATH_LOSS:
            table = _read(cfg, key.fields[0])
            if table.shadow_sigma_db < 0:
                raise ConfigError(f"{key.name}: shadow sigma must be >= 0")
            if table.distance_coeff_db <= 0:
                raise ConfigError(f"{key.name}: distance coefficient must be > 0")


def _check_choices(cfg: SimConfig) -> None:
    for key in _KEYS:
        if not key.choices:
            continue
        for field in key.fields:
            value = _read(cfg, field)
            for item in value if key.kind.each else (value,):
                if item not in key.choices:
                    raise ConfigError(f"{key.name} must be one of {key.choices}, got {item!r}")


def _resolve_facing(ris: RisSpec, tx_position: tuple[float, float, float]) -> RisSpec:
    if ris.facing is not None:
        return ris
    axis = 1 if ris.plane == "xz" else 0
    delta = tx_position[axis] - ris.position[axis]
    return dataclasses.replace(ris, facing=-1 if delta < 0 else 1)


def _check_count(what: str, count: int, most: int) -> None:
    if count < 1:
        raise NonPositiveCount(f"{what} must be >= 1")
    if count > most:
        raise ConfigError(f"{what} {count} exceeds the maximum of {most}")


def check_positions(cfg: SimConfig, wavelength: float, receivers: np.ndarray) -> None:
    """Check the config's transmitter and a (K, 3) stack of receiver
    positions against the scene: where a terminal may stand.

    A receiver on the transmitter, or any terminal on a surface, is a
    ConfigError.  Terminals inside a surface's Fraunhofer distance raise one
    NearFieldWarning with their count and the nearest such distance, or
    NearFieldViolation under `strict_near_field`.
    """
    anchors = np.array([cfg.tx.position] + [r.position for r in cfg.ris], float)
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

    Re-validating a ValidatedConfig is idempotent.  Raises subclasses of
    ConfigError on violations, including any number in the config that is
    not finite and a terminal on another device (`check_positions`);
    near-field geometry warns unless `strict_near_field` is set.
    """
    if isinstance(cfg, ValidatedConfig):
        cfg = cfg.config
    if not isinstance(cfg.environment, Environment):
        raise UnknownEnvironment(f"environment must be an Environment, got {cfg.environment!r}")
    _check_choices(cfg)
    _check_environment(cfg)

    if cfg.frequency_hz <= 0:
        raise ConfigError("frequency must be positive")
    # each realization index is seeded as one 32-bit word (`rng.block_rngs`)
    if not isinstance(cfg.realizations, numbers.Integral):
        raise ConfigError(f"the realization count must be a whole number, "
                          f"got {cfg.realizations!r}")
    _check_count("the realization count", cfg.realizations, 2**32)
    if cfg.seed < 0:
        raise ConfigError(f"the seed must be >= 0, got {cfg.seed}")
    if len(cfg.pt_dbm) == 0:
        raise EmptySweep("the transmit power sweep list is empty")

    for name, spec in (("tx", cfg.tx), ("rx", cfg.rx)):
        _check_count(f"{name} antenna count", spec.count, MAX_ARRAY_ELEMENTS)
        if spec.spacing_wl <= 0:
            raise ConfigError(f"{name} element spacing must be > 0")
        if spec.orientation != "global" and (len(spec.orientation) != 3
                                             or spec.orientation[:2] not in ("xz", "yz")
                                             or spec.orientation[2] not in "+-"):
            raise ConfigError(f"{name} orientation {spec.orientation!r} not recognized")
        _check_point(f"{name} position", spec.position)

    if cfg.rx_orientation == "random-azimuth" and cfg.rx.orientation != "global":
        raise ConfigError(f"rx orientation {cfg.rx.orientation!r} has no effect: the random "
                          "azimuth frame replaces it; use global or rx_orientation fixed")
    if cfg.algorithm == "siso" and (cfg.tx.count, cfg.rx.count) != (1, 1):
        raise ConfigError("the siso algorithm requires Nt = Nr = 1")
    if len(cfg.ris) == 0 and cfg.direct_mode == "blocked":
        raise ConfigError("a scene with no RIS cannot also block the direct path")
    if cfg.phase_bits is not None and cfg.phase_bits < 1:
        raise ConfigError("the phase bit count must be >= 1 when set")

    resolved = []
    for i, ris in enumerate(cfg.ris):
        _check_count(f"ris[{i}] element count", ris.count, MAX_ARRAY_ELEMENTS)
        if ris.spacing_wl <= 0 or ris.gain_exponent < 0:
            raise ConfigError(f"ris[{i}] needs spacing > 0 and gain exponent >= 0")
        if ris.shape is not None and ris.shape[0] * ris.shape[1] != ris.count:
            raise ConfigError(f"ris[{i}] grid shape {ris.shape} does not hold {ris.count} elements")
        _check_point(f"ris[{i}] position", ris.position)
        resolved.append(_resolve_facing(ris, cfg.tx.position))
    cfg = dataclasses.replace(cfg, ris=tuple(resolved))

    leaves = _leaves(cfg)
    for path, value in leaves:
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(f"{path} must be finite, got {value!r}")

    wavelength = SPEED_OF_LIGHT / cfg.frequency_hz
    check_positions(cfg, wavelength, np.array([cfg.rx.position], float))

    return ValidatedConfig(
        config=cfg,
        wavelength=wavelength,
        pt_watts=tuple(_power_watts("the transmit power", p) for p in cfg.pt_dbm),
        noise_watts=_power_watts("the noise power", cfg.noise_dbm),
        config_hash=_digest(leaves),
    )


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
    """How a key's value reads from and writes to config text."""

    parse: Callable[[str], Any]
    fmt: Callable[[Any], str] = _fmt
    each: bool = False       # one value per surface, `;`-separated


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
                 lambda value: token if value is None else kind.fmt(value))


def _each(kind: _Kind, none: str = "") -> _Kind:
    """One `kind` value per surface, `;`-separated; `none` spells no surface."""
    def parse(text: str) -> list:
        parts = [] if _word(text) == none else text.split(";")
        return [kind.parse(part) for part in parts if part.strip()]
    return _Kind(parse, lambda values: " ; ".join(kind.fmt(v) for v in values), each=True)


_FLOAT = _Kind(_number)
_COUNT = _Kind(_whole)
_WORD = _Kind(_word)
_BOOL = _Kind(_bool)
_POINT = _Kind(lambda text: _numbers(text, 3))
_PATH_LOSS = _Kind(lambda text: PathLossTable(*_numbers(text, 4)),
                   lambda table: _fmt(dataclasses.astuple(table)))
_SHAPE = _Kind(lambda text: _numbers(text.replace("x", ","), 2, _whole))


class _Key(NamedTuple):
    """A config file key: the text used when it is absent (None keeps the
    field's dataclass default, the environment's for its keys, so a key has
    a text only where its field has no default; a callable derives it from
    earlier keys' texts), the dotted SimConfig fields it sets (under `ris`,
    for every surface) and the values `validate_config` accepts.  When keys
    share a field the later one wins on parsing and is the one written out."""

    name: str
    default: str | Callable[[dict[str, str]], str] | None
    kind: _Kind
    fields: tuple[str, ...]
    choices: tuple = ()


_KEYS = (
    _Key("environment", "inh", _Kind(_environment, lambda env: env.name), ("environment",)),
    _Key("cluster_intensity", None, _FLOAT, ("environment.cluster_intensity",)),
    _Key("scatterers_min", None, _COUNT, ("environment.scatterers_min",)),
    _Key("scatterers_max", None, _COUNT, ("environment.scatterers_max",)),
    _Key("los_model", None, _WORD, ("environment.los_model",), ("inh", "umi", "always", "never")),
    _Key("pl_los", None, _PATH_LOSS, ("environment.pl_los",)),
    _Key("pl_nlos", None, _PATH_LOSS, ("environment.pl_nlos",)),
    _Key("cluster_azimuth_deg", None, _FLOAT, ("environment.cluster_azimuth_deg",)),
    _Key("cluster_elevation_deg", None, _FLOAT, ("environment.cluster_elevation_deg",)),
    _Key("scatter_spread_deg", None, _FLOAT, ("environment.scatter_spread_deg",)),
    _Key("footprint", None, _optional(_Kind(lambda text: _numbers(text, 2)), "none"),
         ("environment.footprint",)),
    _Key("frequency_ghz", "28", _Kind(lambda text: _number(text) * 1e9), ("frequency_hz",)),
    _Key("frequency_hz", None, _FLOAT, ("frequency_hz",)),
    _Key("tx_position", "0, 25, 2", _POINT, ("tx.position",)),
    _Key("rx_position", "45, 45, 1", _POINT, ("rx.position",)),
    _Key("tx_array", "upa", _WORD, ("tx.layout",), ("ula", "upa")),
    _Key("rx_array", "upa", _WORD, ("rx.layout",), ("ula", "upa")),
    _Key("nt", "4", _COUNT, ("tx.count",)),
    _Key("nr", "4", _COUNT, ("rx.count",)),
    _Key("element_spacing", None, _FLOAT, ("tx.spacing_wl", "rx.spacing_wl")),
    _Key("ris_position", "40, 50, 2", _each(_POINT, none="none"), ("ris.position",)),
    _Key("ris_plane", None, _each(_WORD), ("ris.plane",), ("xz", "yz")),
    _Key("ris_facing", None, _each(_optional(_COUNT, "auto")), ("ris.facing",), (None, 1, -1)),
    _Key("n_elements", "64", _each(_COUNT), ("ris.count",)),
    _Key("ris_shape", None, _each(_optional(_SHAPE, "auto")), ("ris.shape",)),
    _Key("ris_spacing", lambda kv: kv["element_spacing"], _each(_FLOAT), ("ris.spacing_wl",)),
    _Key("ris_gain_exponent", None, _each(_FLOAT), ("ris.gain_exponent",)),
    _Key("pt_dbm", None, _Kind(_numbers), ("pt_dbm",)),
    _Key("noise_dbm", None, _FLOAT, ("noise_dbm",)),
    _Key("realizations", None, _COUNT, ("realizations",)),
    _Key("seed", None, _COUNT, ("seed",)),
    _Key("direct_path", None, _WORD, ("direct_mode",), ("auto", "blocked", "present")),
    _Key("blocked_keeps_scatter", None, _BOOL, ("blocked_keeps_scatter",)),
    _Key("ris_links", None, _WORD, ("ris_links",), ("auto", "los")),
    _Key("shared_clusters", None, _BOOL, ("shared_clusters",)),
    _Key("scatter_paths", None, _BOOL, ("scatter_paths",)),
    _Key("rx_orientation", None, _WORD, ("rx_orientation",), ("random-azimuth", "fixed")),
    _Key("algorithm", None, _WORD, ("algorithm",), ("pinv", "siso", "random", "zero")),
    _Key("phase_bits", None, _optional(_COUNT, "none"), ("phase_bits",)),
    _Key("idle_ris", None, _WORD, ("idle_ris",), ("absent", "random")),
    _Key("strict_near_field", None, _BOOL, ("strict_near_field",)),
)
_KEY_BY_NAME = {key.name: key for key in _KEYS}
_WRITER = {field: key for key in _KEYS for field in key.fields}   # the last key per field


def _read(cfg: SimConfig, field: str):
    """The value at a dotted field path; a field of `ris` reads every surface."""
    head, _, attr = field.partition(".")
    value = getattr(cfg, head)
    if not attr:
        return value
    return [getattr(v, attr) for v in value] if isinstance(value, tuple) else getattr(value, attr)


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
_SCENES = {"indoor": "direct_path = blocked\nris_links = los\n"}
_SCENES["outdoor"] = _SCENES["indoor"] + (
    "environment = umi\ntx_array = ula\nrx_array = ula\ntx_position = 0, 25, 20\n"
    "rx_position = 50, 50, 1\nris_position = 40, 60, 10\n")
SCENE_PRESETS = tuple(_SCENES)


@cache
def scene_preset(name: str) -> SimConfig:
    """The named reference scene: 'indoor' (InH office) or 'outdoor' (UMi street canyon)."""
    if name not in _SCENES:
        raise ConfigError(f"unknown scene preset {name!r}; available: {', '.join(SCENE_PRESETS)}")
    return parse_config_text(_SCENES[name])


def load_config(path) -> SimConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config_text(fh.read())


def serialize_config(cfg: SimConfig) -> str:
    """Canonical text form of a config; parsing it back reproduces `cfg`.

    Raises ConfigError for a value no key can express, such as a tx/rx
    orientation other than global or an rx spacing unlike the tx one.
    """
    text = "".join(f"{key.name} = {key.kind.fmt(_read(cfg, key.fields[0]))}\n"
                   for key in _KEYS if all(_WRITER[f] is key for f in key.fields))
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
    if type(obj) is float:
        out.append((path, obj + 0.0))
    elif names := _field_names(type(obj)):
        for name in names:
            _leaves(getattr(obj, name), f"{path}.{name}" if path else name, out)
    elif isinstance(obj, (tuple, list)):
        out.append((path, len(obj)))
        for i, item in enumerate(obj):
            _leaves(item, f"{path}[{i}]", out)
    elif isinstance(obj, numbers.Real) and not isinstance(obj, bool):
        exact = abs(obj) <= sys.float_info.max and float(obj) == obj
        out.append((path, float(obj) + 0.0 if exact else obj))
    else:
        out.append((path, obj))
    return out


@lru_cache(maxsize=None)
def _field_names(cls: type) -> tuple[str, ...]:
    return tuple(f.name for f in dataclasses.fields(cls)) if dataclasses.is_dataclass(cls) else ()


def _digest(leaves: list) -> str:
    return hashlib.sha256(repr([value for _, value in leaves]).encode("utf-8")).hexdigest()[:16]


def config_hash(cfg: SimConfig) -> str:
    """Stable hash of the full scenario; changes iff any config field changes."""
    return _digest(_leaves(cfg))
