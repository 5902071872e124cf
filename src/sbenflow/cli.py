"""Batch command-line entry point.

Subcommands:
  check      run the structural invariant suite, print a pass/fail table
  reference  run the configured case's reference solver, write a path archive
  evaluate   evaluate the functional on an existing archive (read only)
  minimize   descend the functional, write the minimized archive and report

Exit codes: 0 success, 2 configuration error (a bad config file, a malformed
archive, an --out that cannot be written, such as an existing regular file or
a path below one, or a run whose arrays the machine cannot allocate), 3
numerical failure (an unstable step, a non-finite or overflowing value, a
division by zero, a density that cannot be computed), 4 invariant failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

import numpy as np

from . import checks
from . import fields as fd
from .config import ConfigError, RunConfig, load_config, with_seed
from .fieldio import ArchiveError, load_path_archive, save_path_archive, save_scalar
from .fields import ScalarField
from .oracle import UnstableStepError, initial_state, reference_path
from .sben import MinimizeResult, Path, SbenReport, evaluate_path, minimize

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_INVARIANT = 4


def _load(args) -> RunConfig:
    config = load_config(args.config)
    if args.seed is not None:
        config = with_seed(config, args.seed)
    return config


def _load_archive(directory: str, config: RunConfig) -> Path:
    """The archive, which must match the config; an incompressible one must be
    divergence free, as the functional's residual form needs: each slice's
    |div v| / (|v_xy| / min(dx, dy)) is 1e-14 projected, 1 random, 1e-10 at most."""
    path = load_path_archive(directory, expect_grid=config.grid, expect_eos=config.case.eos)
    if path.kind == "incompressible":
        grid, V = path.grid, path.V
        div = np.abs(np.add(*fd.central_differences(grid, V[:, 0], V[:, 1]))).max(axis=(-2, -1))
        bound = 1e-10 * np.abs(V[:, :2]).max(axis=(-3, -2, -1)) / min(grid.dx, grid.dy)
        for k in np.flatnonzero(div > bound)[:1]:
            raise ArchiveError(f"{directory}: slice {k} is not divergence free: |div v| = "
                               f"{div[k]:.3e} > {bound[k]:.3e} = 1e-10 |v_xy| / min(dx, dy)")
    return path


def _write_report(out_dir: str, report: SbenReport, result: MinimizeResult | None = None):
    """report.txt and report.json; a minimize run's (``result``) also say
    whether it converged and why it stopped."""
    stop = {} if result is None else {"converged": result.converged, "message": result.message}
    with open(os.path.join(out_dir, "report.txt"), "w") as f:
        f.write(report.summary_text())
        if stop:
            f.write(f"converged            : {json.dumps(result.converged)}\n"
                    f"message              : {result.message}\n")
    table = {
        "total_pi": report.total_pi,
        "dissipation_integral": report.dissipation_integral,
        "phi": report.phi_terms.tolist(),
        "phi_star": report.phi_star_terms.tolist(),
        "pairing": report.pairing_terms.tolist(),
        "gap": report.gap_terms.tolist(),
        "ns_residual": report.ns_residual_norms.tolist(),
        "discarded_mean": report.discarded_mean_norms.tolist(),
        "iterations": report.iterations,
        "grad_norm_history": report.grad_norm_history,
        "wall_time": report.wall_time,
        **stop,
    }
    with open(os.path.join(out_dir, "report.json"), "w") as f:
        json.dump(table, f, indent=1)
        f.write("\n")


def cmd_check(args) -> int:
    config = _load(args)
    results = checks.run_all(config)
    for r in results:
        print(r.line())
    failed = [r for r in results if not r.passed]
    if failed:
        print(f"{len(failed)} invariant(s) failed: " + ", ".join(r.name for r in failed))
        return EXIT_INVARIANT
    print(f"all {len(results)} invariants hold")
    return EXIT_OK


def cmd_reference(args) -> int:
    config = _load(args)
    path = reference_path(config.case, config.viscosity.mu, config.gravitation,
                          n_out=config.time.n_intervals)
    save_path_archive(args.out, path)
    print(f"reference path with {path.n_intervals} intervals written to {args.out}")
    return EXIT_OK


def cmd_evaluate(args) -> int:
    config = _load(args)
    path = _load_archive(args.archive, config)
    report, pressures = evaluate_path(path, config.viscosity.mu, config.gravitation)
    _write_report(args.out, report)
    for k, p in enumerate([] if pressures is None else pressures):
        save_scalar(os.path.join(args.out, f"pressure_{k:04d}.csv"), ScalarField(path.grid, p))
    print(f"total functional {report.total_pi:.12e} "
          f"(dissipation integral {report.dissipation_integral:.6e})")
    return EXIT_OK


def cmd_minimize(args) -> int:
    config = _load(args)
    if args.warm_start:
        start = _load_archive(args.warm_start, config)
    else:
        # the case's initial state at every time sample
        s0, n = initial_state(config.case), config.time.n_intervals
        start = Path(s0.grid, s0.eos, np.arange(n + 1) * (config.time.t_final / n),
                     np.repeat(s0.v.data[None], n + 1, axis=0),
                     np.repeat(s0.rho.data[None], n + 1, axis=0))
    result = minimize(start, config.viscosity.mu, config.gravitation, config.minimizer)
    save_path_archive(args.out, result.path)
    _write_report(args.out, result.report, result)
    print(f"{result.message}; functional {result.report.total_pi:.12e} "
          f"after {result.report.iterations} iterations")
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and shared by every
    later one: parsing leaves it as it was, and it holds no handlers."""
    parser = argparse.ArgumentParser(
        prog="sbenflow",
        description="evaluate and minimize the space-time functional of viscous flow")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="run the invariant suite")
    p_check.add_argument("--config", required=True)

    p_ref = sub.add_parser("reference", help="generate a reference path archive")
    p_ref.add_argument("--config", required=True)
    p_ref.add_argument("--out", required=True)

    p_eval = sub.add_parser("evaluate", help="evaluate the functional on an archive")
    p_eval.add_argument("--config", required=True)
    p_eval.add_argument("--archive", required=True)
    p_eval.add_argument("--out", required=True)

    p_min = sub.add_parser("minimize", help="minimize the functional")
    p_min.add_argument("--config", required=True)
    p_min.add_argument("--out", required=True)
    p_min.add_argument("--warm-start", default=None,
                       help="path archive to start from (default: replicated initial state)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {"check": cmd_check, "reference": cmd_reference,
                "evaluate": cmd_evaluate, "minimize": cmd_minimize}
    try:
        if getattr(args, "out", None) is not None:  # before any loading or computing
            os.makedirs(args.out, exist_ok=True)
        with np.errstate(all="ignore"):   # the commands check finiteness where it matters
            return handlers[args.command](args)
    except (ConfigError, ArchiveError, OSError, MemoryError) as exc:
        # a missing input, an --out that cannot be a directory, arrays too large
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (UnstableStepError, ArithmeticError) as exc:   # overflow, zero division, ...
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
