"""Command-line front end.

Subcommands: run (one scenario), sweep (load points x seeds), example
(replay a golden walkthrough scenario and check its totals), validate
(check a config file). Exit codes: 0 success, 1 configuration error,
2 usage error, 3 golden-trace mismatch.

Flags mirror environment variables with the ULSCHED_ prefix (explicit flags
win): ULSCHED_CONFIG, ULSCHED_SEED, ULSCHED_POLICY, ULSCHED_UE_POLICY,
ULSCHED_TTIS, ULSCHED_OUT, ULSCHED_JOBS.
"""

import argparse
import os
import sys
from dataclasses import replace
from pathlib import Path

from .engine import ConfigError, ScenarioConfig, run, sweep, validate
from .golden import EXPECTED, format_trace, verify_scenario
from .metrics import summary_row, write_summary_csv, write_trace_csv
from .schedulers import POLICIES


def _env(name):
    """The raw ULSCHED_<name> string: argparse parses a string default with
    the argument's type, so a bad value is named like a bad flag."""
    return os.environ.get(f"ULSCHED_{name}")


def _comma_list(cast, what):
    def parse(text):
        try:
            return [cast(x) for x in text.split(",")]
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected comma-separated {what}, got {text!r}") from None
    return parse


def _jobs(text):
    try:
        jobs = int(text)
    except ValueError:
        jobs = 0
    if jobs < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {text!r}")
    return jobs


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="ulsched",
        description="LTE uplink resource-chunk scheduling simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", default=_env("CONFIG"),
                       help="scenario config JSON (defaults apply if omitted)")
        p.add_argument("--seed", type=int, default=_env("SEED"))
        p.add_argument("--policy", choices=POLICIES, default=_env("POLICY"))
        p.add_argument("--ue-policy", choices=("strict", "flip"),
                       default=_env("UE_POLICY"))
        p.add_argument("--ttis", type=int, default=_env("TTIS"))
        p.add_argument("--out", default=_env("OUT") or ".",
                       help="output directory for CSV files")

    p_run = sub.add_parser("run", help="run one scenario, write a summary CSV row")
    add_common(p_run)
    p_run.add_argument("--trace", action="store_true",
                       help="also write a per-TTI trace CSV")

    p_sweep = sub.add_parser("sweep", help="run a load sweep (points x seeds)")
    add_common(p_sweep)
    p_sweep.add_argument("--points", type=_comma_list(float, "numbers"),
                         help="comma-separated load points in Mbps (overrides config)")
    p_sweep.add_argument("--seeds", type=_comma_list(int, "integers"),
                         help="comma-separated seeds (overrides config)")
    p_sweep.add_argument("--jobs", type=_jobs, default=_env("JOBS") or "1",
                         help="parallel worker processes")

    p_ex = sub.add_parser("example", help="replay a golden walkthrough scenario")
    p_ex.add_argument("name", choices=tuple(EXPECTED))

    p_val = sub.add_parser("validate", help="validate a scenario config file")
    p_val.add_argument("--config", default=_env("CONFIG"), required=False)
    return parser


def _load_config(args) -> ScenarioConfig:
    if getattr(args, "config", None):
        cfg = ScenarioConfig.from_json(args.config)
    else:
        cfg = ScenarioConfig()
    overrides = {}
    if getattr(args, "seed", None) is not None:
        overrides["seed"] = args.seed
    if getattr(args, "policy", None):
        overrides["policy"] = args.policy
    if getattr(args, "ue_policy", None):
        overrides["ue_policy"] = args.ue_policy
    if getattr(args, "ttis", None) is not None:
        overrides["tti_count"] = args.ttis
    if overrides:
        cfg = replace(cfg, **overrides)
    return cfg


def _out_dir(path) -> Path:
    """The --out directory, created if missing; one that cannot be is a
    ConfigError naming the flag."""
    out = Path(path)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as err:
        raise ConfigError(f"--out {path} cannot be used as a directory: {err.strerror}") from None
    return out


def _cmd_run(args) -> int:
    cfg = _load_config(args)
    if args.trace:
        cfg = replace(cfg, keep_trace=True)
    validate(cfg)
    out = _out_dir(args.out)
    summary = run(cfg)
    row = summary_row(summary, cfg.policy, cfg.ue_policy, cfg.seed, cfg.loads_mbps)
    csv_path = out / f"run_{cfg.policy}_{cfg.ue_policy}_seed{cfg.seed}.csv"
    write_summary_csv(csv_path, [row])
    trace_note = ""
    if args.trace:
        trace_path = out / f"trace_{cfg.policy}_{cfg.ue_policy}_seed{cfg.seed}.csv"
        write_trace_csv(trace_path, summary.trace_rows)
        trace_note = f" trace={trace_path}"
    print(f"RESULT ok policy={cfg.policy} ue_policy={cfg.ue_policy} seed={cfg.seed} "
          f"ttis={summary.tti_count} mac_mbps={summary.mac_throughput_mbps:.4f} "
          f"jain={summary.jain:.4f} csv={csv_path}{trace_note}")
    return 0


def _cmd_sweep(args) -> int:
    cfg = _load_config(args)
    validate(cfg)
    out = _out_dir(args.out)
    rows = sweep(cfg, points_mbps=args.points, seeds=args.seeds, jobs=args.jobs)
    csv_path = out / f"sweep_{cfg.policy}_{cfg.ue_policy}.csv"
    write_summary_csv(csv_path, rows)
    print(f"RESULT ok policy={cfg.policy} rows={len(rows)} csv={csv_path}")
    return 0


def _cmd_example(args) -> int:
    name = args.name
    if name == "sec2-objective":
        (values, selected), problems = verify_scenario(name)
        for ue, val in enumerate(values, start=1):
            print(f"schedule UE{ue}: objective {val}")
        print(f"selected UE{selected + 1}")
    else:
        trace, problems = verify_scenario(name)
        print(format_trace(trace))
    if problems:
        for p in problems:
            print(f"MISMATCH: {p}", file=sys.stderr)
        print(f"RESULT golden-mismatch scenario={name}")
        return 3
    print(f"RESULT ok scenario={name}")
    return 0


def _cmd_validate(args) -> int:
    cfg = _load_config(args)
    validate(cfg)
    print(f"RESULT ok config={'(defaults)' if not args.config else args.config}")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {"run": _cmd_run, "sweep": _cmd_sweep,
                "example": _cmd_example, "validate": _cmd_validate}
    try:
        return handlers[args.command](args)
    except ValueError as exc:  # ConfigError and every model error
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
