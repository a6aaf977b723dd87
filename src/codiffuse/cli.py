"""Command line front end.

    codiffuse run|sweep [--config PATH] [--workers N] [--out DIR]
    codiffuse meanfield|graph-dump [--config PATH] [--out DIR]
    codiffuse analyze [--out DIR]

Each command accepts only the flags it reads. Every output-determining
setting, the seed included, comes from the config file. Exit codes: 0 success,
2 configuration error, 3 runtime error. Progress goes to stderr; data goes to
files under --out. The worker count is --workers, else the usable cpu count.
"""

from __future__ import annotations

import argparse
import os
import sys

from .config import (SweepSpec, load_spec, nonempty_parameter_sets, run_config_for,
                     single_parameter_set)
from .engine import iteration_graph, iteration_stream
from .errors import AnalysisError, ConfigurationError, GraphGenerationError, IntegrationError
from .meanfield import MeanFieldParams, MeanFieldState, integrate, trajectory_csv
from .sweep import analyze, run_single, sweep, usable_cpus, write_text
from .topology import edgelist


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="codiffuse",
                                     description="Two-contagion multiplex diffusion simulator")
    sub = parser.add_subparsers(dest="command", required=True)
    spec = argparse.ArgumentParser(add_help=False)
    spec.add_argument("--config", help="JSON config file (defaults apply when omitted)")
    workers = argparse.ArgumentParser(add_help=False)
    workers.add_argument("--workers", type=int, help="worker count (default: usable cpus)")
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", default="results", help="output directory (default: results)")
    for name, parents, handler, helptext in (
        ("run", (spec, workers, out), _cmd_simulate,
         "one parameter set, full per-iteration series"),
        ("sweep", (spec, workers, out), _cmd_simulate, "the whole parameter cube"),
        ("analyze", (out,), _cmd_analyze, "recompute statistics from a sweep's stored series"),
        ("meanfield", (spec, out), _cmd_meanfield,
         "well-mixed ODE trajectory for one parameter set"),
        ("graph-dump", (spec, out), _cmd_graph_dump, "write both layers as edge lists"),
    ):
        sub.add_parser(name, parents=parents, help=helptext).set_defaults(handler=handler)
    return parser


def _load(args: argparse.Namespace) -> SweepSpec:
    return load_spec(args.config) if args.config else SweepSpec()


def _workers(args: argparse.Namespace) -> int:
    value = usable_cpus() if args.workers is None else args.workers
    if value < 1:
        raise ConfigurationError(f"worker count must be >= 1, got {value}")
    return value


def _cmd_simulate(args: argparse.Namespace) -> int:
    entry = run_single if args.command == "run" else sweep
    manifest = entry(_load(args), args.out, workers=_workers(args))
    if manifest["failures"]:
        print(f"{len(manifest['failures'])} parameter set(s) failed; see manifest.json",
              file=sys.stderr)
        return 3
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    analyze(args.out)
    return 0


def _cmd_meanfield(args: argparse.Namespace) -> int:
    spec = _load(args)
    cfg = run_config_for(spec, *single_parameter_set(spec, "meanfield"))
    params = MeanFieldParams(kernel=cfg.kernel, dormancy=cfg.dormancy,
                             kappa=spec.mf_kappa, h=spec.mf_h, horizon=spec.mf_horizon)
    x0 = cfg.seeds_per_contagion / cfg.n
    initial = MeanFieldState(x_a=x0, x_b=x0, x_ab=0.0, x_naive=1.0 - 2 * x0, x_r=0.0)
    traj = integrate(initial, params)
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, "meanfield.csv")
    write_text(path, trajectory_csv(traj))
    print(f"wrote {path} (kappa={params.kappa} carried, unused)", file=sys.stderr)
    return 0


def _cmd_graph_dump(args: argparse.Namespace) -> int:
    spec = _load(args)
    cfg = run_config_for(spec, *nonempty_parameter_sets(spec)[0])
    # The graph iteration 0 of the first parameter set steps on.
    graph = iteration_graph(cfg, iteration_stream(cfg, 0))
    os.makedirs(args.out, exist_ok=True)
    for layer, label in ((graph.layer_a, "A"), (graph.layer_b, "B")):
        path = os.path.join(args.out, f"layer_{label}.edgelist")
        write_text(path, edgelist(layer, label))
        print(f"wrote {path}", file=sys.stderr)
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except ConfigurationError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (AnalysisError, GraphGenerationError, IntegrationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
