"""Command-line interface.

Subcommands: run, paper-suite, resolve, tor, ext, check, hh-graph,
verify, rigidity-search.  Exit codes: 0 all verdicts consistent, 1 a
verification failed, 2 input error, 3 a computation cap was exceeded.
Default caps may be set through REFLEXTOR_CAP_PAIRS,
REFLEXTOR_CAP_RESOLUTION and REFLEXTOR_TOR_WINDOW, read where the flag is
unset; a value that is not an integer is an input error.
"""

import argparse
import os
import sys

from . import __version__
from .caps import CapExceeded, ComputationCancelled
from .paper_suite import paper_suite, paper_suite_text
from .reports import (
    EXIT_CAP,
    EXIT_INPUT,
    render_text,
    report_json,
    run_session,
    )
from .session import SessionError, load_session_file, parse_caps
from .verify import PIPELINES


def _common_flags(suppress: bool):
    """Shared flags; subcommand copies must not clobber earlier values."""
    p = argparse.ArgumentParser(add_help=False)
    d = argparse.SUPPRESS if suppress else None
    p.add_argument("--cap-pairs", type=int, default=d,
                   help="maximum S-pair reductions per basis computation")
    p.add_argument("--cap-resolution", type=int, default=d,
                   help="maximum free resolution length")
    p.add_argument("--tor-window", type=int, default=d,
                   help="default Tor vanishing window")
    if suppress:
        p.add_argument("--json", action="store_true", default=argparse.SUPPRESS,
                       help="machine-readable output")
    else:
        p.add_argument("--json", action="store_true",
                       help="machine-readable output")
    return p


def build_parser():
    parser = argparse.ArgumentParser(
        prog="reflextor",
        description="graded commutative algebra: reflexivity, Tor/Ext, "
        "Serre conditions and rigidity pipelines over quotient rings",
        parents=[_common_flags(False)],
    )
    parser.add_argument("--version", action="version", version=__version__)
    common = _common_flags(True)
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute a session file", parents=[common])
    run_p.add_argument("session")

    sub.add_parser("paper-suite", help="replay the built-in worked examples",
                   parents=[common])

    res_p = sub.add_parser("resolve", help="minimal free resolution of a module",
                           parents=[common])
    res_p.add_argument("--session", required=True)
    res_p.add_argument("module")
    res_p.add_argument("--length", type=int, default=None)

    for name in ("tor", "ext"):
        t_p = sub.add_parser(name, help=f"{name} modules of a pair",
                             parents=[common])
        t_p.add_argument("--session", required=True)
        t_p.add_argument("left")
        t_p.add_argument("right")
        t_p.add_argument("--from", dest="lo", type=int, default=1)
        t_p.add_argument("--to", dest="hi", type=int, default=None)

    chk = sub.add_parser("check", help="reflexivity / torsionless / n-torsion-free",
                         parents=[common])
    chk.add_argument("property", choices=("reflexive", "torsionless", "ntf"))
    chk.add_argument("--session", required=True)
    chk.add_argument("module")
    chk.add_argument("-n", type=int, default=1, help="level for ntf")

    hh = sub.add_parser("hh-graph", help="graph on the minimal primes",
                        parents=[common])
    hh.add_argument("--session", required=True)

    ver = sub.add_parser("verify", help="run a verification pipeline",
                         parents=[common])
    ver.add_argument("pipeline", choices=tuple(PIPELINES))
    ver.add_argument("--session", required=True)
    ver.add_argument("left")
    ver.add_argument("right")
    ver.add_argument("-n", type=int, default=1, help="Serre level")
    ver.add_argument(
        "--rigidity", default=None,
        help="Tor-rigidity assertion class (e.g. finite-pd-hypersurface)",
    )

    rig = sub.add_parser("rigidity-search", help="Tor table rigidity falsifier",
                         parents=[common])
    rig.add_argument("--session", required=True)
    rig.add_argument("--window", type=int, default=3)
    rig.add_argument("--catalog", nargs="*", default=None)
    return parser


# (session caps key, flag attribute, environment variable)
_CAP_FLAGS = (("pairs", "cap_pairs", "REFLEXTOR_CAP_PAIRS"),
              ("resolution", "cap_resolution", "REFLEXTOR_CAP_RESOLUTION"),
              ("tor_window", "tor_window", "REFLEXTOR_TOR_WINDOW"))


def _caps_overrides(args):
    """The cap flags, each unset one read from its environment variable; a
    variable that is not an integer is an input error naming it."""
    out = {}
    for key, attr, env in _CAP_FLAGS:
        value = getattr(args, attr)
        if value is None and env in os.environ:
            try:
                value = int(os.environ[env])
            except ValueError:
                raise SessionError(f"environment variable {env} must be an "
                                   f"integer: {os.environ[env]!r}") from None
        out[key] = value
    return out


def _emit(args, report, text_renderer):
    if args.json:
        sys.stdout.write(report_json(report))
    else:
        sys.stdout.write(text_renderer(report))


def _single_task(args, task):
    session = load_session_file(args.session, _caps_overrides(args))
    session.tasks = [task]
    return run_session(session)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            session = load_session_file(args.session, _caps_overrides(args))
            report = run_session(session)
            _emit(args, report, render_text)
            return report["exit_code"]
        if args.command == "paper-suite":
            report = paper_suite(parse_caps(None, _caps_overrides(args)))
            _emit(args, report, paper_suite_text)
            return report["exit_code"]
        if args.command == "resolve":
            task = {"task": "resolve", "module": args.module}
            if args.length is not None:
                task["length"] = args.length
            report = _single_task(args, task)
        elif args.command in ("tor", "ext"):
            hi = args.hi if args.hi is not None else args.lo
            task = {
                "task": args.command,
                "left": args.left,
                "right": args.right,
                "range": [args.lo, hi],
            }
            report = _single_task(args, task)
        elif args.command == "check":
            if args.property == "ntf":
                task = {"task": "ntf", "module": args.module, "n": args.n}
            else:
                task = {"task": args.property, "module": args.module}
            report = _single_task(args, task)
        elif args.command == "hh-graph":
            report = _single_task(args, {"task": "hh-graph"})
        elif args.command == "verify":
            task = {
                "task": "verify",
                "pipeline": args.pipeline,
                "left": args.left,
                "right": args.right,
                "n": args.n,
            }
            if args.rigidity:
                task["rigidity"] = args.rigidity
            report = _single_task(args, task)
        elif args.command == "rigidity-search":
            task = {"task": "rigidity-search", "window": args.window}
            if args.catalog:
                task["catalog"] = args.catalog
            report = _single_task(args, task)
        else:  # pragma: no cover
            parser.error(f"unknown command {args.command}")
        _emit(args, report, render_text)
        return report["exit_code"]
    except SessionError as e:
        sys.stderr.write(f"input error: {e}\n")
        return EXIT_INPUT
    except (CapExceeded, ComputationCancelled) as e:
        sys.stderr.write(f"cap exceeded: {e}\n")
        return EXIT_CAP


if __name__ == "__main__":
    sys.exit(main())
