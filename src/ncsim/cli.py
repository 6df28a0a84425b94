"""Command-line entry point.

Subcommands: ``run`` (one N), ``sweep`` (range of N), ``validate``
(simulation versus closed-form mean age), ``pendulum`` (mixed-class case
study).  Exit status: 0 on success, 2 when validation exceeds tolerance,
1 on any error, a worker process that died included.
"""
from __future__ import annotations

import argparse
import sys
from concurrent.futures import BrokenExecutor
from dataclasses import replace

from .channel import ChannelConfig
from .errors import ConfigurationError, InvariantViolation, OptimizationError, SynthesisError
from .experiments import (DEFAULT_COMPARISON_CHANNEL, THEORY, ExperimentSpec,
                          emit_nmse_curves, emit_pendulum, emit_results,
                          emit_validation, parse_config, pendulum_case_study,
                          run_single, run_sweep, validate_theory)
from .mac import POLLING_PROTOCOLS, SCHEDULED_PROTOCOLS, SchedulerPolicy

_SCHEDULERS = SCHEDULED_PROTOCOLS + POLLING_PROTOCOLS

# Subcommand -> its help, the scenario its config must name, and the
# protocols and channel of its default spec.  validate's parameter-free
# entries take their defaults from SchedulerPolicy.resolved.
_COMMANDS = {
    "run": ("replicated runs of the configured protocols at one N",
            "single", _SCHEDULERS, DEFAULT_COMPARISON_CHANNEL),
    "sweep": ("protocols across a range of network sizes",
              "sweep", _SCHEDULERS, DEFAULT_COMPARISON_CHANNEL),
    "validate": ("mean-age theory validation on the ideal channel",
                 "validate", tuple(THEORY), ChannelConfig()),
    "pendulum": ("mixed easy/pendulum/hard case study",
                 "pendulum", _SCHEDULERS, DEFAULT_COMPARISON_CHANNEL),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ncsim",
        description="Simulate feedback control loops on a shared wireless hop")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, *_) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", metavar="PATH",
                       help="YAML experiment file (defaults per subcommand)")
        p.add_argument("--out", metavar="DIR", default=None,
                       help="output directory for CSV files")
        p.add_argument("--seed", type=int, default=None, metavar="U64",
                       help="base random seed")
        p.add_argument("--reps", type=int, default=None, metavar="INT",
                       help="replications per configuration")
        p.add_argument("--jobs", type=int, default=1, metavar="INT",
                       help="worker processes for the whole command")
    return parser


def _load_spec(args) -> ExperimentSpec:
    _, scenario, protocols, channel = _COMMANDS[args.command]
    if args.config:
        spec = parse_config(args.config)
        if spec.scenario != scenario:
            raise ConfigurationError(
                f"{args.config}: scenario {spec.scenario!r} does not match "
                f"'{args.command}', which runs scenario {scenario!r}")
    else:
        spec = ExperimentSpec(
            scenario=scenario,
            protocols=[SchedulerPolicy(v) for v in protocols],
            channel=channel)
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.reps is not None:
        overrides["replications"] = args.reps
    if args.out is not None:
        overrides["out_dir"] = args.out
    return replace(spec, **overrides) if overrides else spec


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        spec = _load_spec(args)
        if args.jobs < 1:
            raise ConfigurationError("--jobs must be >= 1")
        if args.command == "run":
            results = run_single(spec, jobs=args.jobs)
            emit_results(results, spec.out_dir)
        elif args.command == "sweep":
            results = run_sweep(spec, jobs=args.jobs)
            emit_results(results, spec.out_dir)
            emit_nmse_curves(spec.out_dir)
        elif args.command == "validate":
            report = validate_theory(spec, jobs=args.jobs)
            emit_validation(report, spec.out_dir)
            for r in report["rows"]:
                print(f"{r['protocol']:>14s} N={r['N']:<3d} "
                      f"sim={r['simulated']:8.4f} theory={r['theory']:8.4f} "
                      f"rel_err={r['rel_err']:6.2%} "
                      f"{'ok' if r['ok'] else 'FAIL'}")
            if not report["passed"]:
                print("validation FAILED", file=sys.stderr)
                return 2
        else:  # pendulum
            report = pendulum_case_study(spec, jobs=args.jobs)
            emit_pendulum(report, spec.out_dir)
            for label, entry in report.items():
                ok = all(d["stabilized"] for d in entry["per_ip"].values())
                print(f"{label}: pendulums "
                      f"{'stabilized' if ok else 'NOT stabilized'}")
        print(f"results written to {spec.out_dir}/")
        return 0
    except (ConfigurationError, SynthesisError, OptimizationError,
            InvariantViolation, OSError, BrokenExecutor) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
