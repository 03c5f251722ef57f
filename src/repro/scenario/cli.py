"""CLI driver: ``python -m repro campaign [subcommand] [options]``.

* default — run a seeded fuzzing campaign::

      python -m repro campaign --budget 200
      python -m repro campaign --budget 2000 --jobs 4 --seed 7

  Campaigns checkpoint after every batch and resume automatically: rerun
  the same command after an interruption and only the missing scenario
  indices execute.  ``--fresh`` discards the checkpoint instead.

* ``validate FILE ...`` — schema-check scenario files (JSON, or YAML by
  extension) and print every problem, field by field;
* ``exec FILE`` — run one scenario file and print its outcome row;
* ``shrink FILE`` — reduce a violating scenario file to its minimal
  repro (written next to the input as ``<name>.min.json``).

``python -m repro campaign ...`` reaches this driver through the
:mod:`repro.__main__` dispatcher.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace

from ..context import current, use
from ..errors import InvalidParameterError, ScenarioError
from .campaign import (
    DEFAULT_BATCH,
    DEFAULT_OUT_DIR,
    DEFAULT_REPORT,
    DEFAULT_SHRINK_LIMIT,
    Campaign,
)
from .runner import run_scenario
from .schema import scenario_errors, load_structured
from .shrink import shrink_violation
from .spec import Scenario

#: Default campaign seed (the repo-wide experiment seed).
DEFAULT_SEED = 20050717

#: Default scenario budget for an interactive run.
DEFAULT_BUDGET = 200

SUBCOMMANDS = ("validate", "exec", "shrink")


def _cmd_validate(argv) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro campaign validate",
        description="Schema-check scenario files without running anything.",
    )
    parser.add_argument("files", nargs="+", metavar="FILE")
    args = parser.parse_args(argv)
    failures = 0
    for path in args.files:
        try:
            data = load_structured(path)
        except ScenarioError as exc:
            print(f"{path}: {exc}")
            failures += 1
            continue
        problems = scenario_errors(data)
        if problems:
            failures += 1
            print(f"{path}: INVALID")
            for problem in problems:
                print(f"  {problem}")
        else:
            print(f"{path}: ok ({Scenario.from_dict(data).scenario_id()})")
    return 1 if failures else 0


def _cmd_exec(argv) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro campaign exec",
        description="Run one scenario file and print its outcome row.",
    )
    parser.add_argument("file", metavar="FILE")
    args = parser.parse_args(argv)
    try:
        scenario = Scenario.load(args.file)
    except ScenarioError as exc:
        parser.error(str(exc))
    row = run_scenario(scenario)
    json.dump(row, sys.stdout, indent=2, sort_keys=True)
    print()
    return 1 if row["violations"] else 0


def _cmd_shrink(argv) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro campaign shrink",
        description="Reduce a violating scenario file to its minimal repro.",
    )
    parser.add_argument("file", metavar="FILE")
    parser.add_argument(
        "--out",
        metavar="PATH",
        default=None,
        help="where to write the minimal scenario (default: FILE with a"
        " .min.json suffix)",
    )
    args = parser.parse_args(argv)
    try:
        scenario = Scenario.load(args.file)
        minimal, row, steps = shrink_violation(scenario)
    except ScenarioError as exc:
        parser.error(str(exc))
    out = args.out or os.path.splitext(args.file)[0] + ".min.json"
    minimal.dump(out)
    kinds = sorted({violation["kind"] for violation in row["violations"]})
    print(
        f"shrunk {scenario.scenario_id()} -> {minimal.scenario_id()}"
        f" in {steps} step(s); violation kinds preserved: {', '.join(kinds)}"
    )
    print(f"minimal repro written to {out}")
    return 0


def _cmd_run(argv) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro campaign",
        description="Fuzz seeded scenarios through the protocol zoo,"
        " checkpoint/resume, and shrink violations to minimal repros.",
    )
    parser.add_argument(
        "--budget",
        type=int,
        default=DEFAULT_BUDGET,
        metavar="N",
        help=f"how many scenarios to run (default {DEFAULT_BUDGET})",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=DEFAULT_SEED,
        help=f"campaign seed (default {DEFAULT_SEED}); every scenario is a"
        " pure function of (seed, index)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="worker processes (default 1; results are bit-identical at"
        " any value)",
    )
    parser.add_argument(
        "--out",
        metavar="DIR",
        default=DEFAULT_OUT_DIR,
        help=f"corpus / checkpoint directory (default {DEFAULT_OUT_DIR})",
    )
    parser.add_argument(
        "--report",
        metavar="PATH",
        default=DEFAULT_REPORT,
        help=f"standing campaign report (default {DEFAULT_REPORT})",
    )
    parser.add_argument(
        "--batch",
        type=int,
        default=DEFAULT_BATCH,
        metavar="N",
        help=f"scenarios per checkpoint flush (default {DEFAULT_BATCH})",
    )
    parser.add_argument(
        "--shrink",
        type=int,
        default=DEFAULT_SHRINK_LIMIT,
        metavar="K",
        dest="shrink_limit",
        help="how many violators get a minimal repro + flight trace"
        f" (default {DEFAULT_SHRINK_LIMIT}; 0 disables shrinking)",
    )
    parser.add_argument(
        "--crypto-backend",
        choices=["auto", "python", "gmpy2"],
        default=None,
        help="big-int arithmetic backend (bit-identical either way; see"
        " python -m repro.experiments --help)",
    )
    parser.add_argument(
        "--fresh",
        action="store_true",
        help="ignore (and remove) any existing checkpoint for this seed",
    )
    parser.add_argument(
        "--quiet", action="store_true", help="suppress progress output"
    )
    args = parser.parse_args(argv)
    if args.budget < 1:
        parser.error(f"--budget must be >= 1, got {args.budget}")
    if args.jobs < 1:
        parser.error(f"--jobs must be >= 1, got {args.jobs}")
    try:
        run_context = current()
        if args.crypto_backend is not None:
            run_context = replace(run_context, crypto_backend=args.crypto_backend)
    except InvalidParameterError as exc:
        parser.error(str(exc))

    campaign = Campaign(
        seed=args.seed,
        budget=args.budget,
        jobs=args.jobs,
        out_dir=args.out,
        report_path=args.report,
        batch=args.batch,
        shrink_limit=args.shrink_limit,
    )
    log = None if args.quiet else (lambda message: print(message, flush=True))
    with use(run_context):
        report = campaign.run(resume=not args.fresh, log=log)

    totals = report["totals"]
    print(
        f"campaign seed={args.seed}: {totals['scenarios']} scenarios,"
        f" {totals['violating']} violating,"
        f" {totals['unexpected']} unexpected guarantee breach(es)"
    )
    for entry in report.get("shrunk", []):
        print(
            f"  minimal repro {entry['id']}.min.json"
            f" ({entry['steps']} shrink step(s))"
        )
    print(f"report written to {args.report}")
    return 1 if totals["unexpected"] else 0


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    if argv and argv[0] in SUBCOMMANDS:
        handler = {
            "validate": _cmd_validate,
            "exec": _cmd_exec,
            "shrink": _cmd_shrink,
        }[argv[0]]
        return handler(argv[1:])
    return _cmd_run(argv)


if __name__ == "__main__":
    sys.exit(main())
