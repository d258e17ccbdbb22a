"""Command-line entry points.

Exit codes: 0 success, 2 validation failure, 3 resource or accuracy failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .errors import AccuracyError, MeancltError, ResourceError
from .harness import (CSV_COLUMNS, PRESETS, ExperimentConfig, check_appendix,
                      diagnose_conditions, merge_reports, preset_config, read_process,
                      render_csv, run)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_RESOURCE = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="meanclt",
                                     description="Mean-CLT simulation and bound laboratory")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment from a JSON config")
    p_run.add_argument("--config", required=True, help="path to the config JSON")
    p_run.add_argument("--output", help="output path prefix (overrides config)")

    p_preset = sub.add_parser("preset", help="run a built-in experiment preset")
    p_preset.add_argument("name", help=" | ".join(PRESETS))
    p_preset.add_argument("--n-max", type=int, default=None)
    p_preset.add_argument("--reps", type=int, default=None)
    p_preset.add_argument("--seed", type=int, default=None)
    p_preset.add_argument("--output", default=None, help="output path prefix")

    p_app = sub.add_parser("check-appendix", help="fuzz the covariance inequalities")
    p_app.add_argument("--count", type=int, required=True)
    p_app.add_argument("--seed", type=int, required=True)
    p_app.add_argument("--output", help="write the JSON report here")

    p_diag = sub.add_parser("diagnose", help="condition diagnostics for a config")
    p_diag.add_argument("--config", required=True)
    p_diag.add_argument("--kmax", type=int, default=6)
    p_diag.add_argument("--window", type=int, default=3)
    p_diag.add_argument("--output", help="write the JSON report here")

    p_rep = sub.add_parser("report", help="merge manifest files into one table")
    p_rep.add_argument("manifests", nargs="+")
    p_rep.add_argument("--output", help="merged CSV path (stdout if omitted)")
    return parser


def _write_output(path: str, text: str) -> None:
    """Write an --output file, creating its parent directories as `run` does."""
    out = Path(path)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(text)


def _cmd_run(args) -> int:
    d = json.loads(Path(args.config).read_text())
    if args.output and isinstance(d, dict):  # built once: the config computes sigma2
        d = {**d, "output": args.output}
    config = ExperimentConfig.from_dict(d)
    manifest = run(config)
    if not config.output:
        print(manifest.to_json())
    else:
        print(f"wrote {config.output}.csv and {config.output}.manifest.json")
        if manifest.fit:
            print(f"rate-fit slope {manifest.fit['slope']:.4f} (r2 {manifest.fit['r2']:.4f})")
    return EXIT_OK


def _cmd_preset(args) -> int:
    config = preset_config(args.name, n_max=args.n_max, reps=args.reps,
                           seed=args.seed, output=args.output)
    manifest = run(config)
    if config.output:
        print(f"wrote {config.output}.csv and {config.output}.manifest.json")
    for rec in manifest.per_n:
        d1 = rec.get("d1_normalized")
        extra = f"  d1={d1:.6g}" if isinstance(d1, float) else ""
        print(f"n={rec['n']}{extra}")
    if manifest.fit:
        print(f"rate-fit slope {manifest.fit['slope']:.4f} (r2 {manifest.fit['r2']:.4f})")
    if not config.output:
        print(manifest.to_json())
    return EXIT_OK


def _cmd_check_appendix(args) -> int:
    report = check_appendix(args.count, args.seed)
    text = json.dumps(report.to_dict(), indent=2, sort_keys=True)
    if args.output:
        _write_output(args.output, text + "\n")
    print(f"covariance {report.covariance_passes}/{report.total}, "
          f"corollary {report.corollary_passes}/{report.total}, "
          f"dispersion {report.dispersion_passes}/{report.total}")
    if not report.all_pass:
        print(text)
        return EXIT_RESOURCE
    return EXIT_OK


def _cmd_diagnose(args) -> int:
    # a run config diagnoses as it is; keys no run reads are misspellings
    spec, obs = read_process(json.loads(Path(args.config).read_text()))
    report = diagnose_conditions(spec, obs, kmax=args.kmax, window=args.window)
    text = json.dumps(report.to_dict(), indent=2, sort_keys=True)
    if args.output:
        _write_output(args.output, text + "\n")
    for key, verdict in sorted(report.verdicts.items()):
        print(f"{key}: {verdict}")
    return EXIT_OK


def _cmd_report(args) -> int:
    rows = merge_reports(args.manifests)
    text = render_csv(rows, columns=tuple(CSV_COLUMNS) + ("seed",))
    if args.output:
        _write_output(args.output, text)
        print(f"wrote {args.output} ({len(rows)} rows)")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {"run": _cmd_run, "preset": _cmd_preset,
                "check-appendix": _cmd_check_appendix,
                "diagnose": _cmd_diagnose, "report": _cmd_report}
    try:
        return handlers[args.command](args)
    except (ResourceError, AccuracyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except (MeancltError, ValueError, TypeError, OSError, KeyError) as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
