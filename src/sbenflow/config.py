"""Run configuration: a JSON file with one block per subsystem.

Blocks: grid, eos, viscosity, gravitation, time, case, minimizer, plus a
top-level seed.  _read reads each block into the dataclass it becomes
(Grid2P, the eos kind's class, Viscosity, Gravitation, TimeBlock,
oracle.CaseSpec, MinimizeConfig, and RunConfig for the seed): the block's
keys are that class's fields, an int field takes a JSON integer, a float
field a finite JSON number that is not a boolean, a missing key the
field's default, and the class's own __post_init__ rules are the range
checks.  An unknown block or key, a missing one without a default, a value
of the wrong type and a broken rule are ConfigErrors naming the key.  The
eos block is the run's fluid: the case block becomes the CaseSpec that the
commands run, with that fluid as case.eos.  eos_to_json and eos_from_json
are the one JSON form of a fluid, for the eos block and for a path
archive's manifest.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import MISSING, dataclass, fields
from typing import Optional, Union, get_args, get_origin, get_type_hints

from .balance import BarotropicPowerEos, Eos, IncompressibleEos
from .dissipation import Viscosity
from .fields import Grid2P
from .gravitation import PRESET_PARAMETERS, Gravitation
from .oracle import CaseSpec
from .sben import MinimizeConfig


class ConfigError(ValueError):
    """Invalid or incomplete run configuration."""


@dataclass(frozen=True)
class TimeBlock:
    t_final: float
    n_intervals: int
    n_ref: Optional[int] = None     # the reference steps; None: one per interval

    def __post_init__(self):
        if self.n_ref is None:
            object.__setattr__(self, "n_ref", self.n_intervals)
        if not 0 < self.t_final < math.inf:
            raise ValueError(f"t_final must be positive and finite, got {self.t_final}")
        if self.n_intervals < 1:
            raise ValueError(f"n_intervals must be >= 1, got {self.n_intervals}")
        if self.n_ref % self.n_intervals != 0:
            raise ValueError(f"n_ref must be a multiple of n_intervals, got {self.n_ref}")


@dataclass(frozen=True)
class RunConfig:
    grid: Grid2P
    viscosity: Viscosity
    gravitation: Gravitation
    time: TimeBlock
    case: CaseSpec     # with the run's fluid, the eos block, as case.eos
    minimizer: MinimizeConfig
    seed: int = 42

    def __post_init__(self):
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


def _number(value) -> float:
    """A finite JSON number: not a boolean, string or null."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{value!r} is not a number")
    if not math.isfinite(value):
        raise ValueError(f"{value} is not finite")
    return float(value)


def _integer(value) -> int:
    """A JSON integer: not a boolean, fraction or string."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{value!r} is not an integer")
    return value


def _string(value) -> str:
    if not isinstance(value, str):
        raise ValueError(f"{value!r} is not a string")
    return value


_CASTS = {float: _number, int: _integer, str: _string}
_KEYS = {"case_id": "id", "params": "parameters"}   # a field's key, where it is not its name


def _join(path: str, key) -> str:
    return f"{path}.{key}" if path else str(key)


def _known(block, path: str, keys) -> None:
    """Check that block is a JSON object of no keys but keys."""
    if not isinstance(block, dict):
        raise ConfigError(f"{path or 'the config'} must be an object")
    for key in block:
        if key not in keys:
            raise ConfigError(f"unknown key {_join(path, key)}; {path or 'a config'} takes "
                              f"{', '.join(keys) or 'none'}")


def _value(hint, value, name: str):
    """A JSON value as a field annotated hint; name is its key in errors."""
    if hint in _CASTS:
        try:
            return _CASTS[hint](value)
        except (ValueError, OverflowError) as exc:
            raise ConfigError(f"bad value for {name}: {exc}") from exc
    if get_origin(hint) is Union:               # Optional[X]: a JSON null is not an X
        return _value(get_args(hint)[0], value, name)
    if not isinstance(value, dict):             # Mapping[str, X]: parameters by name
        raise ConfigError(f"{name} must be an object")
    return {key: _value(get_args(hint)[1], x, _join(name, key)) for key, x in value.items()}


@functools.cache
def _fields(cls) -> dict:
    """cls's fields by their config key, each with its evaluated annotation."""
    hints = get_type_hints(cls)
    return {_KEYS.get(f.name, f.name): (f, hints[f.name]) for f in fields(cls)}


def _read(cls, block, path: str, defaults: bool = True, **given):
    """The cls of the config block at path.  The block's keys are the fields
    of cls that are not given, each cast by its annotation; a missing key
    takes the field's default, unless not defaults.  A ValueError of cls,
    one of its rules, names the key its message begins with."""
    keys = {key: (f, hint) for key, (f, hint) in _fields(cls).items() if f.name not in given}
    _known(block, path, keys)
    for key, (f, hint) in keys.items():
        if key in block:
            given[f.name] = _value(hint, block[key], _join(path, key))
        elif not defaults or (f.default is MISSING and f.default_factory is MISSING):
            raise ConfigError(f"missing key {_join(path, key)}")
    try:
        return cls(**given)
    except ValueError as exc:
        first = str(exc).split(" ", 1)[0]
        raise ConfigError(_join(path, exc) if first in keys else f"{path}: {exc}") from exc


_EOS_KINDS = {"incompressible": IncompressibleEos, "barotropic_power": BarotropicPowerEos}


def eos_to_json(eos: Eos) -> dict:
    """The JSON object of a fluid: its kind, then its constants."""
    kind = next(k for k, cls in _EOS_KINDS.items() if isinstance(eos, cls))
    return {"kind": kind, **{f.name: getattr(eos, f.name) for f in fields(eos)}}


def eos_from_json(block, defaults: bool = False) -> Eos:
    """The fluid of a JSON object of eos_to_json's form.

    Every constant must be there, unless defaults: the config's eos block may
    leave one out for the fluid's default.  An unknown kind or key, a missing
    or non-numeric constant and an out-of-range one are ConfigErrors."""
    if not isinstance(block, dict):
        raise ConfigError("eos must be an object")
    kind = block.get("kind")
    if kind not in _EOS_KINDS:
        raise ConfigError(f"eos.kind must be 'incompressible' or 'barotropic_power', got {kind!r}")
    constants = {key: value for key, value in block.items() if key != "kind"}
    return _read(_EOS_KINDS[kind], constants, "eos", defaults)


_BLOCKS = ("grid", "eos", "viscosity", "gravitation", "time", "case", "minimizer")


def parse_config(raw) -> RunConfig:
    """The run of a config file's JSON object."""
    _known(raw, "", (*_BLOCKS, "seed"))
    block = {key: raw.get(key, {}) for key in _BLOCKS}
    grid = _read(Grid2P, block["grid"], "grid")
    eos = eos_from_json(block["eos"], defaults=True)
    viscosity = _read(Viscosity, block["viscosity"], "viscosity")
    gravitation = _read(Gravitation, block["gravitation"], "gravitation", grid=grid)
    _known(gravitation.params, "gravitation.parameters", PRESET_PARAMETERS[gravitation.preset])
    time = _read(TimeBlock, block["time"], "time")
    case = _read(CaseSpec, block["case"], "case", grid=grid, t_final=time.t_final,
                 n_ref=time.n_ref, eos=eos)
    minimizer = _read(MinimizeConfig, block["minimizer"], "minimizer")
    return _read(RunConfig, {k: v for k, v in raw.items() if k not in _BLOCKS}, "",
                 grid=grid, viscosity=viscosity, gravitation=gravitation, time=time,
                 case=case, minimizer=minimizer)


def with_seed(config: RunConfig, seed) -> RunConfig:
    """The config with its seed replaced, read by the rule of the file's seed."""
    others = {name: value for name, value in vars(config).items() if name != "seed"}
    return _read(RunConfig, {"seed": seed}, "", **others)


def load_config(path: str) -> RunConfig:
    try:
        with open(path) as f:
            raw = json.load(f)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except ValueError as exc:   # a JSONDecodeError, or bytes that are not UTF-8
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    return parse_config(raw)
