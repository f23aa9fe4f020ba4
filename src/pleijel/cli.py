"""Command-line interface.

Verbs:

* ``value N M QUANTITY``  -- one constant with its certified error bound;
* ``table QUANTITY``      -- a full table in markdown/csv/json/latex;
* ``check SUITE``         -- offline self-checks (exit 1 on any failure);
* ``exceptional``         -- certified classification against the
                             Pleijel threshold 1;
* ``htype N M OUT.json``  -- write a verified H-type matrix family
                             (exit 3 for inadmissible pairs, exit 2 over
                             2^22 dense matrix entries or where OUT.json
                             cannot be written).

``--eps`` exists on ``value`` and ``table`` only, whose cells, eps
decision and refusals are the ``cells`` module's: this module parses
their arguments and hands them over, so ``check``, ``exceptional`` and
``htype`` never compile that code.  ``main`` builds the parser of the
verb its first argument names, and of all five when it names none (no
argument, ``-h``, a misspelt verb); every usage, help and error text is
the same either way.  A ``PrecisionUnreachable`` from any verb is
refused with a one-line message on stderr and exit 2.

Output is deterministic byte-for-byte; ``check`` carries a timestamp in
its JSON trailer unless --no-timestamp is given.
"""

import argparse
import os
import sys

# The library modules are called through their module attributes, looked up when
# a verb runs: each verb then runs only the modules it calls (the package registers
# them lazily), and a wrapped module attribute is the one called.
from . import cells, checks, constants, htype_algebra
from .admissibility import admissible
from .core import InadmissiblePair, PrecisionUnreachable

QUANTITIES = ("gamma_tilde", "gamma_bar", "sobolev", "weyl", "c_series")
FORMATS = ("markdown", "csv", "json", "latex")
# checks.SUITES, then "all", spelled out so that building the parser runs no checks
SUITE_NAMES = ("tables", "consistency", "monotonicity", "admissibility", "algebra", "all")


# --------------------------------------------------------------------------
# subcommand implementations (`value` and `table` are `cells.cmd_value`, `cells.cmd_table`)

def _cmd_check(args) -> int:
    import json

    names = SUITE_NAMES[:-1] if args.suite == "all" else (args.suite,)
    results = [checks.run_suite(name) for name in names]
    for res in results:
        print(f"{'PASS' if res.passed else 'FAIL'} {res.name}")
        for line in res.details:
            print(f"    {line}")
    report = {
        "suites": [
            {"name": r.name, "passed": r.passed, "details": list(r.details)} for r in results
        ],
        "passed": all(r.passed for r in results),
    }
    if not args.no_timestamp:
        from datetime import datetime, timezone

        report["timestamp"] = datetime.now(timezone.utc).isoformat()
    print(json.dumps(report, sort_keys=True))
    return 0 if report["passed"] else 1


def _cmd_exceptional(args) -> int:
    result = constants.exceptional_set(args.n_max, args.m_max)
    titles = (f"exceptional pairs (certified gamma_tilde >= 1) "
              f"for 1 <= n <= {args.n_max}, 1 <= m <= {args.m_max}:",
              "uncertain (certified interval straddles 1):" if result.uncertain
              else "uncertain: none")
    for title, pairs in zip(titles, result):
        print(title)
        for p in pairs:
            low, high = constants.gamma_tilde_interval(p)
            print(f"  {p}  gamma_tilde in [{low:.8f}, {high:.8f}]")
    return 0


def _cmd_htype(args) -> int:
    # both refusals come before the family is built, whose cost grows with n
    verdict = admissible((args.n, args.m))
    if not verdict.admissible:
        print(f"error: {InadmissiblePair(verdict.pair, verdict.rho_2n)}", file=sys.stderr)
        return 3
    entries = args.m * (2 * args.n) ** 2  # htype 1024 1 (29 MB of JSON) is the largest m = 1
    if entries > 1 << 22:
        print(f"error: htype({args.n},{args.m}) would write {entries} dense matrix entries, "
              "over the limit of 2^22", file=sys.stderr)
        return 2
    try:
        htype_algebra.write_json(htype_algebra.construct(verdict.pair), args.output)
    except OSError as exc:  # the family is built and verified; the path is refused
        print(f"error: cannot write {args.output}: {exc.strerror}", file=sys.stderr)
        return 2
    print(f"wrote verified H-type structure ({args.n},{args.m}) to {args.output}")
    return 0


def _checked(convert, ok, requirement: str):
    """An argparse type: ``convert`` the text, then refuse a value failing ``ok``."""
    def parse(text: str):
        value = convert(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {requirement}, got {text}")
        return value

    parse.__name__ = convert.__name__  # a malformed value reads "invalid int value: ..."
    return parse


_EPS = _checked(float, lambda x: x > 0, "> 0")  # NaN fails x > 0 too
_PRECISION = _checked(int, lambda k: 1 <= k <= 12, "in [1, 12]")
_POSITIVE = _checked(int, lambda k: k >= 1, ">= 1")
_TABLE_SIDE = _checked(int, lambda k: 1 <= k <= 30, "in [1, 30]")


VERBS = ("value", "table", "check", "exceptional", "htype")


def build_parser(verb: str | None = None) -> argparse.ArgumentParser:
    """The parser of ``verb`` alone, or of every verb when ``verb`` names none."""
    parser = argparse.ArgumentParser(
        prog="pleijel",
        description="Certified spectral constants on H-type groups R^(2n) x R^m.",
    )
    one = verb in VERBS
    # one verb's parser names all five in its usage, as the full parser's default
    # metavar does; the full parser keeps the default, as its errors name "command"
    sub = parser.add_subparsers(dest="command", required=True,
                                metavar="{" + ",".join(VERBS) + "}" if one else None)
    names = (verb,) if one else VERBS

    def add_eps(p):
        p.add_argument("--eps", type=_EPS, default=1e-8,
                       help="series tolerance (default 1e-8); relative for derived "
                            "constants, absolute enclosure width for c_series")

    # the value and table commands are looked up when they run, so that building
    # their parsers runs no `cells`
    if "value" in names:
        p = sub.add_parser("value", help="one constant with certified error bound")
        p.add_argument("n", type=_POSITIVE)
        p.add_argument("m", type=_POSITIVE)
        p.add_argument("quantity", choices=QUANTITIES)
        p.add_argument("--precision", type=_PRECISION, default=4)
        add_eps(p)
        p.set_defaults(func=lambda args: cells.cmd_value(args))

    if "table" in names:
        p = sub.add_parser("table", help="emit a full table")
        p.add_argument("quantity", choices=QUANTITIES)
        p.add_argument("--n-max", type=_TABLE_SIDE, default=10)
        p.add_argument("--m-max", type=_TABLE_SIDE, default=10)
        p.add_argument("--format", choices=FORMATS, default="markdown")
        p.add_argument("--precision", type=_PRECISION, default=4)
        p.add_argument("--no-annotations", action="store_true",
                       help="plain numbers only (csv is always plain)")
        add_eps(p)
        p.set_defaults(func=lambda args: cells.cmd_table(args))

    if "check" in names:
        p = sub.add_parser("check", help="run offline self-check suites")
        p.add_argument("suite", choices=SUITE_NAMES)
        p.add_argument("--no-timestamp", action="store_true",
                       help="omit the timestamp from the JSON trailer (deterministic output)")
        p.set_defaults(func=_cmd_check)

    if "exceptional" in names:
        p = sub.add_parser("exceptional", help="classify pairs against the threshold 1")
        p.add_argument("--n-max", type=_POSITIVE, default=10)
        p.add_argument("--m-max", type=_POSITIVE, default=10)
        p.set_defaults(func=_cmd_exceptional)

    if "htype" in names:
        p = sub.add_parser("htype", help="export a verified H-type matrix family as JSON")
        p.add_argument("n", type=_POSITIVE)
        p.add_argument("m", type=_POSITIVE)
        p.add_argument("output")
        p.set_defaults(func=_cmd_htype)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser(argv[0] if argv else None).parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe shows here, not at interpreter exit
        return code
    except PrecisionUnreachable as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader went away: send what is still buffered to devnull, so the
        # interpreter's own flush at exit cannot fail again (Python docs, signal)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
