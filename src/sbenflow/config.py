"""Run configuration: a JSON file with one block per subsystem.

Blocks: grid, eos, viscosity, gravitation, time, case, minimizer, plus a
top-level seed.  The eos block is the run's fluid: the case block becomes
the oracle.CaseSpec that the commands run, with that fluid as case.eos, and
CaseSpec's rules are ConfigErrors.  Unknown presets, missing blocks,
non-numeric or non-finite numbers, float fields that are JSON booleans, int
fields that are not JSON integers, gravitation parameters that the preset
does not read and out-of-range values raise ConfigError naming the offending
field path.  eos_to_json and eos_from_json are the one JSON form of a fluid,
for the eos block and for a path archive's manifest.  An
optional conjugate block (tol, max_iter), the settings of a former iterative
solve, is still type-checked so that old configs load as before, and then
ignored: the K^(-1) and pressure solves are exact.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields, replace

from .balance import BarotropicPowerEos, Eos, IncompressibleEos
from .dissipation import Viscosity
from .fields import Grid2P
from .gravitation import PRESET_PARAMETERS, PRESETS, Gravitation
from .oracle import CaseSpec
from .sben import MinimizeConfig


class ConfigError(ValueError):
    """Invalid or incomplete run configuration."""


@dataclass(frozen=True)
class TimeBlock:
    t_final: float
    n_intervals: int
    n_ref: int

    def __post_init__(self):
        if not 0 < self.t_final < math.inf:
            raise ConfigError(f"time.t_final must be positive and finite, got {self.t_final}")
        if self.n_intervals < 1:
            raise ConfigError("time.n_intervals must be >= 1")
        if self.n_ref % self.n_intervals != 0:
            raise ConfigError("time.n_ref must be a multiple of time.n_intervals")


@dataclass(frozen=True)
class RunConfig:
    grid: Grid2P
    viscosity: Viscosity
    gravitation: Gravitation
    time: TimeBlock
    case: CaseSpec     # with the run's fluid, the eos block, as case.eos
    minimizer: MinimizeConfig
    seed: int = 42


def _need(raw: dict, key: str, default: dict | None = None) -> dict:
    if key not in raw:
        if default is None:
            raise ConfigError(f"missing config block {key!r}")
        return default
    block = raw[key]
    if not isinstance(block, dict):
        raise ConfigError(f"config block {key!r} must be an object")
    return block


def _get(block: dict, path: str, key: str, cast, default=None):
    """block[key] through cast; an int field takes only a JSON integer."""
    name = f"{path}.{key}" if path else key
    if key not in block:
        if default is None:
            raise ConfigError(f"missing config field {name}")
        return default
    cast = {int: _integer, float: _real}.get(cast, cast)
    try:
        return cast(block[key])
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad value for {name}: {exc}") from exc


def _real(value) -> float:
    """A JSON number: not a bool."""
    if isinstance(value, bool):
        raise ValueError(f"{value!r} is not a number")
    return float(value)


def _finite(value) -> float:
    x = _real(value)
    if not math.isfinite(x):
        raise ValueError(f"{x} is not finite")
    return x


def _integer(value) -> int:
    """A JSON integer: not a bool, fraction or string."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{value!r} is not an integer")
    return value


def _seed(value) -> int:
    """A random seed: a JSON integer >= 0."""
    if _integer(value) < 0:
        raise ValueError(f"{value!r} is not an integer >= 0")
    return value


def _params(block: dict, path: str) -> dict[str, float]:
    """The optional "parameters" object of a block: finite numbers by name."""
    params = block.get("parameters", {})
    if not isinstance(params, dict):
        raise ConfigError(f"{path}.parameters must be an object")
    return {key: _get(params, f"{path}.parameters", key, _finite) for key in params}


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
    names = [f.name for f in fields(_EOS_KINDS[kind])]
    for key in block:
        if key not in ("kind", *names):
            raise ConfigError(f"unknown key eos.{key}; a {kind} eos has {', '.join(names)}")
    constants = {}
    for name in names:
        if name in block:
            constants[name] = _get(block, "eos", name, float)
        elif not defaults:
            raise ConfigError(f"missing eos.{name}")
    try:
        return _EOS_KINDS[kind](**constants)
    except ValueError as exc:
        raise ConfigError(f"eos: {exc}") from exc


def parse_config(raw: dict) -> RunConfig:
    gb = _need(raw, "grid")
    try:
        grid = Grid2P(_get(gb, "grid", "nx", int), _get(gb, "grid", "ny", int),
                      _get(gb, "grid", "lx", float), _get(gb, "grid", "ly", float))
    except ValueError as exc:
        raise ConfigError(f"grid: {exc}") from exc

    eos = eos_from_json(_need(raw, "eos"), defaults=True)

    vb = _need(raw, "viscosity")
    try:
        viscosity = Viscosity(mu=_get(vb, "viscosity", "mu", float))
    except ValueError as exc:
        raise ConfigError(f"viscosity: {exc}") from exc

    grav_b = _need(raw, "gravitation", {})
    preset = _get(grav_b, "gravitation", "preset", str, "zero")
    if preset not in PRESETS:
        raise ConfigError(f"gravitation.preset must be one of {PRESETS}, got {preset!r}")
    grav_params = _params(grav_b, "gravitation")
    for key in grav_params:
        if key not in PRESET_PARAMETERS[preset]:
            raise ConfigError(f"unknown parameter gravitation.parameters.{key}; {preset} reads "
                              f"{', '.join(PRESET_PARAMETERS[preset]) or 'none'}")
    gravitation = Gravitation(grid, preset, grav_params)

    tb = _need(raw, "time")
    n_intervals = _get(tb, "time", "n_intervals", int)
    time_block = TimeBlock(t_final=_get(tb, "time", "t_final", float),
                           n_intervals=n_intervals,
                           n_ref=_get(tb, "time", "n_ref", int, n_intervals))

    cb = _need(raw, "case")
    case_id, params = _get(cb, "case", "id", str), _params(cb, "case")
    try:
        case = CaseSpec(case_id, grid, time_block.t_final, time_block.n_ref, params, eos)
    except ValueError as exc:
        raise ConfigError(f"case: {exc}") from exc

    conj_b = _need(raw, "conjugate", {})
    _get(conj_b, "conjugate", "tol", float, 1e-10)
    _get(conj_b, "conjugate", "max_iter", int, 50_000)

    min_b = _need(raw, "minimizer", {})
    defaults = MinimizeConfig()
    minimizer = MinimizeConfig(**{
        f.name: _get(min_b, "minimizer", f.name, type(getattr(defaults, f.name)),
                     getattr(defaults, f.name))
        for f in fields(MinimizeConfig)})
    m = minimizer
    for key, ok, allowed in (
            ("tol_pi_rel", 0 <= m.tol_pi_rel < math.inf, "finite and >= 0"),
            ("tol_grad_rel", 0 <= m.tol_grad_rel < math.inf, "finite and >= 0"),
            ("max_iter", m.max_iter >= 0, ">= 0"),
            ("restart_every", m.restart_every >= 1, ">= 1"),
            ("armijo_c", 0 < m.armijo_c < 1, "in (0, 1)"),
            ("backtrack_factor", 0 < m.backtrack_factor < 1, "in (0, 1)"),
            ("max_backtracks", m.max_backtracks >= 1, ">= 1")):
        if not ok:
            raise ConfigError(f"minimizer.{key} must be {allowed}, got {getattr(m, key)}")

    return RunConfig(grid=grid, viscosity=viscosity, gravitation=gravitation,
                     time=time_block, case=case, minimizer=minimizer,
                     seed=_get(raw, "", "seed", _seed, 42))


def with_seed(config: RunConfig, seed) -> RunConfig:
    """The config with its seed replaced, checked by the rule of the file's seed."""
    return replace(config, seed=_get({"seed": seed}, "", "seed", _seed))


def load_config(path: str) -> RunConfig:
    try:
        with open(path) as f:
            raw = json.load(f)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except ValueError as exc:   # a JSONDecodeError, or bytes that are not UTF-8
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config root must be an object")
    return parse_config(raw)
