"""Run configuration: a JSON file with one block per subsystem.

Blocks: grid, eos, viscosity, gravitation, time, case, minimizer, plus a
top-level seed.  Unknown presets and case ids, missing blocks,
non-numeric or non-finite parameters and out-of-range values raise
ConfigError naming the offending field path.  An optional conjugate block
(tol, max_iter), the settings of a former iterative solve, is still
type-checked so that old configs load as before, and then ignored: the
K^(-1) and pressure solves are exact.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields, replace
from typing import Mapping

from .balance import BarotropicPowerEos, Eos, IncompressibleEos
from .dissipation import Viscosity
from .fields import Grid2P
from .gravitation import PRESETS, Gravitation
from .oracle import CASE_IDS
from .sben import MinimizeConfig


class ConfigError(ValueError):
    """Invalid or incomplete run configuration."""


@dataclass(frozen=True)
class TimeBlock:
    t_final: float
    n_intervals: int
    n_ref: int

    def __post_init__(self):
        if self.t_final <= 0:
            raise ConfigError("time.t_final must be positive")
        if self.n_intervals < 1:
            raise ConfigError("time.n_intervals must be >= 1")
        if self.n_ref % self.n_intervals != 0:
            raise ConfigError("time.n_ref must be a multiple of time.n_intervals")


@dataclass(frozen=True)
class CaseBlock:
    case_id: str
    params: Mapping[str, float] = field(default_factory=dict)


@dataclass(frozen=True)
class RunConfig:
    grid: Grid2P
    eos: Eos
    viscosity: Viscosity
    gravitation: Gravitation
    time: TimeBlock
    case: CaseBlock
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
    name = f"{path}.{key}" if path else key
    if key not in block:
        if default is None:
            raise ConfigError(f"missing config field {name}")
        return default
    try:
        return cast(block[key])
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad value for {name}: {exc}") from exc


def _finite(value) -> float:
    x = float(value)
    if not math.isfinite(x):
        raise ValueError(f"{x} is not finite")
    return x


def _seed(value) -> int:
    """A random seed: a JSON integer >= 0, not a bool, fraction or string."""
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        raise ValueError(f"{value!r} is not an integer >= 0")
    return value


def _params(block: dict, path: str) -> dict[str, float]:
    """The optional "parameters" object of a block: finite numbers by name."""
    params = block.get("parameters", {})
    if not isinstance(params, dict):
        raise ConfigError(f"{path}.parameters must be an object")
    return {key: _get(params, f"{path}.parameters", key, _finite) for key in params}


def parse_config(raw: dict) -> RunConfig:
    gb = _need(raw, "grid")
    try:
        grid = Grid2P(_get(gb, "grid", "nx", int), _get(gb, "grid", "ny", int),
                      _get(gb, "grid", "lx", float), _get(gb, "grid", "ly", float))
    except ValueError as exc:
        raise ConfigError(f"grid: {exc}") from exc

    eb = _need(raw, "eos")
    kind = _get(eb, "eos", "kind", str)
    try:
        if kind == "incompressible":
            eos: Eos = IncompressibleEos(rho0=_get(eb, "eos", "rho0", float, 1.0))
        elif kind == "barotropic_power":
            eos = BarotropicPowerEos(p0=_get(eb, "eos", "p0", float, 1.0),
                                     rho0=_get(eb, "eos", "rho0", float, 1.0),
                                     gamma=_get(eb, "eos", "gamma", float, 1.4))
        else:
            raise ConfigError(f"eos.kind must be 'incompressible' or 'barotropic_power', got {kind!r}")
    except ValueError as exc:
        raise ConfigError(f"eos: {exc}") from exc

    vb = _need(raw, "viscosity")
    try:
        viscosity = Viscosity(mu=_get(vb, "viscosity", "mu", float))
    except ValueError as exc:
        raise ConfigError(f"viscosity: {exc}") from exc

    grav_b = _need(raw, "gravitation", {})
    preset = _get(grav_b, "gravitation", "preset", str, "zero")
    if preset not in PRESETS:
        raise ConfigError(f"gravitation.preset must be one of {PRESETS}, got {preset!r}")
    gravitation = Gravitation(grid, preset, _params(grav_b, "gravitation"))

    tb = _need(raw, "time")
    n_intervals = _get(tb, "time", "n_intervals", int)
    time_block = TimeBlock(t_final=_get(tb, "time", "t_final", float),
                           n_intervals=n_intervals,
                           n_ref=_get(tb, "time", "n_ref", int, n_intervals))

    cb = _need(raw, "case")
    case = CaseBlock(case_id=_get(cb, "case", "id", str), params=_params(cb, "case"))
    if case.case_id not in CASE_IDS:
        raise ConfigError(f"case.id must be one of {CASE_IDS}, got {case.case_id!r}")
    if case.case_id == "compressible_smooth":
        # the initial density is rho0 (1 + amplitude cos x cos y)
        amplitude = _get(case.params, "case.parameters", "amplitude", float, 0.01)
        if not abs(amplitude) < 1.0:
            raise ConfigError("case.parameters.amplitude must lie in (-1, 1) for "
                              f"compressible_smooth (positive initial density), got {amplitude}")

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

    return RunConfig(grid=grid, eos=eos, viscosity=viscosity, gravitation=gravitation,
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
