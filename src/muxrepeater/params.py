"""Model parameters: physical constants, platform presets, and JSON config I/O.

Every other module consumes physical quantities only through the frozen
dataclasses defined here.  Units are fixed per field and documented in the
config schema (see README): distances in km, times in us unless a field name
says otherwise, wavevectors in 1/mm, temperatures in K.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import MISSING, Field, dataclass, fields
from pathlib import Path

DECOHERENCE_KINDS = ("gaussian", "exponential")
ENC_DETECTION_KINDS = ("single_mode", "multimode")
GAMMA_POLICIES = ("rounded", "exact")


class ConfigError(ValueError):
    """A configuration value is out of range or the file is malformed."""


# A config key is its field's name, except for these fields.
_KEY_RENAMES = {"modes": "M", "k_min": "K_min", "k_max": "K_max"}


def _require(condition: bool, name: str, message: str) -> None:
    if not condition:
        raise ConfigError(f"{_KEY_RENAMES.get(name, name)}: {message}")


@dataclass(frozen=True)
class PhysicalConstants:
    """Compiled-in physical constants, overridable through the config file."""

    atomic_mass_rb87: float = 1.44316e-25  # kg
    boltzmann: float = 1.380649e-23        # J/K
    c: float = 0.2                         # fiber signal speed, km/us
    alpha: float = 0.2                     # fiber attenuation, dB/km

    def __post_init__(self) -> None:
        for f in fields(self):
            _require(getattr(self, f.name) > 0, f.name, "must be strictly positive")
        _require(self.c <= 0.3, "c", "exceeds the speed of light in vacuum (0.3 km/us)")


@dataclass(frozen=True)
class PlatformParams:
    """All scalar efficiencies and probabilities of one repeater platform.

    ``tau_ms`` is the fixed memory lifetime; ``None`` selects the
    mode-dependent lifetime gamma/K supplied by the wavevector mode space
    (only meaningful with gaussian decoherence).  ``enc_detection`` selects
    which detector efficiency applies at the connection stage and at the
    final parties: ``single_mode`` uses ``eta_s``, ``multimode`` uses
    ``eta_m``.  Pair generation at the elementary-link stage always detects
    through ``eta_m``.
    """

    name: str
    modes: int                       # number of usable memory mode pairs
    chi: float                       # pair-generation probability per mode
    eta_r: float                     # memory readout efficiency
    eta_x: float = 1.0               # multiplexing (mode rerouting) efficiency
    eta_s: float = 0.9               # single-mode detector efficiency
    eta_m: float = 0.9               # multimode detector efficiency
    multiplexed: bool = False        # True: modes**2 pairing combinations
    enc_detection: str = "single_mode"
    decoherence: str = "exponential"
    tau_ms: float | None = None

    def __post_init__(self) -> None:
        _require(bool(self.name), "name", "must be a non-empty string")
        _require(isinstance(self.modes, int) and self.modes >= 1, "modes",
                 "must be an integer >= 1")
        pairings = self.modes * self.modes if self.multiplexed else self.modes
        _require(pairings <= sys.float_info.max, "modes", "must be small enough "
                 "that the pairing count (M, or M**2 if multiplexed) fits a float")
        _require(0.0 < self.chi < 1.0, "chi", "must lie in (0, 1)")
        for field_name in ("eta_r", "eta_x", "eta_s", "eta_m"):
            value = getattr(self, field_name)
            _require(0.0 < value <= 1.0, field_name, "must lie in (0, 1]")
        _require(self.enc_detection in ENC_DETECTION_KINDS, "enc_detection",
                 f"must be one of {ENC_DETECTION_KINDS}")
        _require(self.decoherence in DECOHERENCE_KINDS, "decoherence",
                 f"must be one of {DECOHERENCE_KINDS}")
        if self.tau_ms is None:
            _require(self.decoherence == "gaussian", "tau_ms",
                     "mode-dependent lifetime requires gaussian decoherence")
        else:
            _require(self.tau_ms > 0, "tau_ms", "must be strictly positive")

    @property
    def tau_us(self) -> float | None:
        """Fixed lifetime in us, or None for the mode-dependent law."""
        return None if self.tau_ms is None else self.tau_ms * 1e3

    @property
    def enc_detector_efficiency(self) -> float:
        return self.eta_s if self.enc_detection == "single_mode" else self.eta_m


@dataclass(frozen=True)
class ModeSpaceParams:
    """Wavevector band, mode density, and ensemble temperature."""

    k_min: float = 10.0         # 1/mm
    k_max: float = 1000.0       # 1/mm
    beta: float = 3.5e-3        # mode density, mm^2
    temperature: float = 1e-6   # K
    gamma_policy: str = "rounded"

    def __post_init__(self) -> None:
        _require(self.k_min > 0, "k_min", "must be strictly positive")
        _require(self.k_min < self.k_max, "k_max", "must exceed K_min")
        # the band measure squares K_max in Python floats, which raise on overflow
        _require(math.isfinite(self.k_max * float(self.k_max)), "k_max",
                 "must be small enough that K_max**2 stays a finite float")
        _require(self.beta > 0, "beta", "must be strictly positive")
        _require(self.temperature > 0, "temperature", "must be strictly positive")
        _require(self.gamma_policy in GAMMA_POLICIES, "gamma_policy",
                 f"must be one of {GAMMA_POLICIES}")


@dataclass(frozen=True)
class NoiseParams:
    """Read-out noise in the retrieval path."""

    B: float = 0.0   # noise-photon probability per shot

    def __post_init__(self) -> None:
        _require(self.B >= 0, "B", "must be non-negative")

    def effective_chi(self, platform: PlatformParams) -> float:
        """Excitation probability with read-out noise folded in at t = 0."""
        return platform.chi + self.B / platform.eta_r


@dataclass(frozen=True)
class SpdcParams:
    """Midway photon-pair source used as the repeaterless baseline."""

    f_rep: float = 80.0       # repetition rate, MHz
    chi: float = 0.01         # pair probability per shot
    eta_s: float = 0.9        # detector efficiency per photon
    visibility: float = 1.0

    def __post_init__(self) -> None:
        _require(self.f_rep > 0, "f_rep", "must be strictly positive")
        _require(0.0 < self.chi < 1.0, "chi", "must lie in (0, 1)")
        _require(0.0 < self.eta_s <= 1.0, "eta_s", "must lie in (0, 1]")
        _require(0.0 <= self.visibility <= 1.0, "visibility", "must lie in [0, 1]")


@dataclass(frozen=True)
class ParameterBundle:
    """Fully validated parameter set loaded from one config file."""

    constants: PhysicalConstants
    platforms: tuple[PlatformParams, ...]
    mode_space: ModeSpaceParams
    noise: NoiseParams
    spdc: SpdcParams

    def platform(self, name: str) -> PlatformParams:
        for p in self.platforms:
            if p.name == name:
                return p
        known = ", ".join(p.name for p in self.platforms)
        raise ConfigError(f"unknown platform {name!r} (known: {known})")


def builtin_platforms() -> tuple[PlatformParams, ...]:
    """The four built-in platform presets.

    The two wavevector platforms share the cold-ensemble memory with the
    mode-dependent gaussian lifetime; they differ in whether mode pairings
    are rerouted (multiplexed, modes**2 combinations, connection detected in
    a single mode) or attempted index-by-index (parallel, modes combinations,
    mode-resolved connection detected at multimode efficiency).  The temporal
    and lattice presets are fixed-lifetime platforms with exponential decay
    and fast single-mode detection everywhere (eta_m = 0.9 there is the
    per-mode detection efficiency at the pair-generation stage).
    """
    return (
        PlatformParams(
            name="WV-MUX-QM", modes=5500, chi=0.05, eta_r=0.7, eta_x=0.9,
            eta_s=0.9, eta_m=0.2, multiplexed=True,
            enc_detection="single_mode", decoherence="gaussian", tau_ms=None),
        PlatformParams(
            name="WV-parallel", modes=5500, chi=0.05, eta_r=0.7, eta_x=1.0,
            eta_s=0.9, eta_m=0.2, multiplexed=False,
            enc_detection="multimode", decoherence="gaussian", tau_ms=None),
        PlatformParams(
            name="Temporal", modes=50, chi=0.47, eta_r=0.71, eta_x=1.0,
            eta_s=0.9, eta_m=0.9, multiplexed=False,
            enc_detection="single_mode", decoherence="exponential", tau_ms=1.0),
        PlatformParams(
            name="Lattice-SM", modes=1, chi=0.05, eta_r=0.76, eta_x=1.0,
            eta_s=0.9, eta_m=0.9, multiplexed=False,
            enc_detection="single_mode", decoherence="exponential", tau_ms=220.0),
    )


def default_bundle() -> ParameterBundle:
    return parse_config({})


# Config sections in document order; "platforms" is an array of entries.
_SECTIONS = {"constants": PhysicalConstants, "mode_space": ModeSpaceParams,
             "noise": NoiseParams, "spdc": SpdcParams,
             "platforms": PlatformParams}


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    # Python's JSON parser accepts the Infinity and NaN literals, and integer
    # literals past the float range
    if _is_int(value):
        return abs(value) <= sys.float_info.max
    return isinstance(value, float) and math.isfinite(value)


# the JSON values each field annotation accepts, as named in error messages
_JSON_TYPES = {
    "bool": (lambda v: isinstance(v, bool), "a boolean"),
    "str": (lambda v: isinstance(v, str), "a string"),
    "int": (_is_int, "an integer"),
    "float": (_is_number, "a finite number"),
    "float | None": (lambda v: v is None or _is_number(v), "a finite number"),
}


def _config_keys(cls) -> dict[str, Field]:
    """Config key -> dataclass field, in field order."""
    return {_KEY_RENAMES.get(f.name, f.name): f for f in fields(cls)}


def _build_section(cls, data, section: str):
    _require(isinstance(data, dict), section, "expected an object")
    keys = _config_keys(cls)
    for key, f in keys.items():
        if f.default is MISSING:
            _require(key in data, key, f"required in {section}")
    unknown = set(data) - set(keys)
    _require(not unknown, section, f"unknown keys {sorted(unknown)}")
    kwargs = {}
    for key, value in data.items():
        accepts, expected = _JSON_TYPES[keys[key].type]
        _require(accepts(value), key, f"expected {expected}, got {value!r}")
        kwargs[keys[key].name] = value
    return cls(**kwargs)


def load_config(path: str | Path | None = None) -> ParameterBundle:
    """Load and validate a JSON config file; absent fields take defaults.

    ``None`` or an empty document yields the full default bundle with the
    four built-in platforms.  A ``platforms`` array, when present, replaces
    the built-in list entirely.

    Raises
    ------
    ConfigError
        If the file cannot be parsed or any value is out of range; the
        message names the offending field.
    """
    if path is None:
        return default_bundle()
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"config: cannot read {path}: {exc}") from exc
    try:
        data = json.loads(text) if text.strip() else {}
    except ValueError as exc:   # also integers past Python's digit limit
        raise ConfigError(f"config: malformed JSON in {path}: {exc}") from exc
    return parse_config(data)


def parse_config(data: dict) -> ParameterBundle:
    """Build a validated bundle from an already-parsed JSON document."""
    _require(isinstance(data, dict), "config", "top level must be an object")
    unknown = set(data) - set(_SECTIONS)
    _require(not unknown, "config", f"unknown top-level keys {sorted(unknown)}")
    sections = {name: _build_section(cls, data.get(name, {}), name)
                for name, cls in _SECTIONS.items() if name != "platforms"}
    if "platforms" in data:
        raw = data["platforms"]
        _require(isinstance(raw, list) and raw, "platforms",
                 "expected a non-empty array")
        platforms = tuple(_build_section(PlatformParams, entry, f"platforms[{i}]")
                          for i, entry in enumerate(raw))
        names = [p.name for p in platforms]
        _require(len(names) == len(set(names)), "platforms",
                 "platform names must be unique")
    else:
        platforms = builtin_platforms()
    return ParameterBundle(platforms=platforms, **sections)


def dump_config(bundle: ParameterBundle) -> dict:
    """Serialize a bundle to the JSON config document shape.

    Round-trips exactly: ``parse_config(dump_config(b)) == b``.
    """
    def section(obj):
        return {key: getattr(obj, f.name)
                for key, f in _config_keys(type(obj)).items()}

    return {name: [section(p) for p in bundle.platforms] if name == "platforms"
            else section(getattr(bundle, name)) for name in _SECTIONS}
