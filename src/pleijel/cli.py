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
``htype`` never compile that code.  Each verb's grammar is stated once,
in ``GRAMMAR``.  ``main`` reads a well-formed argv without argparse: the
verb, exactly its positionals, then each option at most once, spelt in
full, with its value as the next word, every value passing its check.
Only help, errors and other spellings (an abbreviation, ``--eps=1e-9``,
``--``, an option before a positional, a repeated option) import
argparse: ``main`` then builds the parser of the verb its first argument
names, and of all five when it names none (no argument, ``-h``, a
misspelt verb); every usage, help and error text is the same either
way.  A ``PrecisionUnreachable`` from any verb is refused with a
one-line message on stderr and exit 2.

Output is deterministic byte-for-byte; ``check`` carries a timestamp in
its JSON trailer unless --no-timestamp is given.
"""

import os
import sys
from types import SimpleNamespace
from typing import TYPE_CHECKING

# The library modules are called through their module attributes, looked up when
# a verb runs: each verb then runs only the modules it calls (the package registers
# them lazily), and a wrapped module attribute is the one called.
from . import cells, checks, constants, htype_algebra
from .admissibility import admissible
from .core import InadmissiblePair, PrecisionUnreachable

if TYPE_CHECKING:
    import argparse

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


# An argument's kind is a converter triple ``(convert, ok, requirement)``: the value
# is ``convert(text)``, refused when it fails ``ok``; or a tuple of choices; or None,
# any text for a positional and store-true for an option.
_EPS = (float, lambda x: x > 0, "> 0")  # NaN fails x > 0 too
_PRECISION = (int, lambda k: 1 <= k <= 12, "in [1, 12]")
_POSITIVE = (int, lambda k: k >= 1, ">= 1")
_TABLE_SIDE = (int, lambda k: 1 <= k <= 30, "in [1, 30]")

_EPS_OPTION = ("--eps", _EPS, 1e-8, "series tolerance (default 1e-8); relative for derived "
                                    "constants, absolute enclosure width for c_series")

# Each verb's grammar, read by both `build_parser` and `_read`: its help, its handler,
# its positionals as (dest, kind) and its options as (flag, kind, default, help).  The
# value and table handlers are looked up when they run, so that parsing runs no `cells`.
GRAMMAR = {
    "value": ("one constant with certified error bound", lambda args: cells.cmd_value(args),
              (("n", _POSITIVE), ("m", _POSITIVE), ("quantity", QUANTITIES)),
              (("--precision", _PRECISION, 4, None), _EPS_OPTION)),
    "table": ("emit a full table", lambda args: cells.cmd_table(args),
              (("quantity", QUANTITIES),),
              (("--n-max", _TABLE_SIDE, 10, None), ("--m-max", _TABLE_SIDE, 10, None),
               ("--format", FORMATS, "markdown", None), ("--precision", _PRECISION, 4, None),
               ("--no-annotations", None, False, "plain numbers only (csv is always plain)"),
               _EPS_OPTION)),
    "check": ("run offline self-check suites", _cmd_check,
              (("suite", SUITE_NAMES),),
              (("--no-timestamp", None, False,
                "omit the timestamp from the JSON trailer (deterministic output)"),)),
    "exceptional": ("classify pairs against the threshold 1", _cmd_exceptional, (),
                    (("--n-max", _POSITIVE, 10, None), ("--m-max", _POSITIVE, 10, None))),
    "htype": ("export a verified H-type matrix family as JSON", _cmd_htype,
              (("n", _POSITIVE), ("m", _POSITIVE), ("output", None)), ()),
}
VERBS = tuple(GRAMMAR)


def build_parser(verb: str | None = None) -> "argparse.ArgumentParser":
    """The parser of ``verb`` alone, or of every verb when ``verb`` names none."""
    import argparse

    def typed(convert, ok, requirement):
        def parse(text: str):
            value = convert(text)
            if not ok(value):
                raise argparse.ArgumentTypeError(f"must be {requirement}, got {text}")
            return value

        parse.__name__ = convert.__name__  # a malformed value reads "invalid int value: ..."
        return parse

    def checks_of(kind):
        if kind is None:
            return {}
        return {"choices": kind} if isinstance(kind[0], str) else {"type": typed(*kind)}

    parser = argparse.ArgumentParser(
        prog="pleijel",
        description="Certified spectral constants on H-type groups R^(2n) x R^m.",
    )
    one = verb in GRAMMAR
    # one verb's parser names all five in its usage, as the full parser's default
    # metavar does; the full parser keeps the default, as its errors name "command"
    sub = parser.add_subparsers(dest="command", required=True,
                                metavar="{" + ",".join(VERBS) + "}" if one else None)
    for name in (verb,) if one else VERBS:
        summary, func, positionals, options = GRAMMAR[name]
        p = sub.add_parser(name, help=summary)
        for dest, kind in positionals:
            p.add_argument(dest, **checks_of(kind))
        for flag, kind, default, text in options:
            p.add_argument(flag, default=default, help=text,
                           **(checks_of(kind) if kind else {"action": "store_true"}))
        p.set_defaults(func=func)
    return parser


def _value(kind, text: str):
    """``text`` read as ``kind``, or None where argparse would refuse it or read an option."""
    if text.startswith("-"):
        return None
    if kind is None:
        return text
    if isinstance(kind[0], str):
        return text if text in kind else None
    convert, ok, _ = kind
    try:
        value = convert(text)
    except ValueError:
        return None
    return value if ok(value) else None


def _read(argv: list[str]) -> SimpleNamespace | None:
    """What ``build_parser().parse_args(argv)`` returns, for a well-formed ``argv``
    (the module docstring says which); None for any other, which argparse reads."""
    if not argv or argv[0] not in GRAMMAR:
        return None
    _, func, positionals, options = GRAMMAR[argv[0]]
    if len(argv) <= len(positionals):
        return None
    args = {"command": argv[0], "func": func}
    for (dest, kind), text in zip(positionals, argv[1:]):
        args[dest] = _value(kind, text)
    unseen = {}
    for flag, kind, default, _ in options:
        dest = flag[2:].replace("-", "_")  # as argparse derives it
        unseen[flag] = dest, kind
        args[dest] = default
    words = iter(argv[1 + len(positionals):])
    for flag in words:
        if flag not in unseen:
            return None
        dest, kind = unseen.pop(flag)
        # a missing value reads as "-", which is declined
        args[dest] = True if kind is None else _value(kind, next(words, "-"))
    return None if None in args.values() else SimpleNamespace(**args)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _read(argv) or build_parser(argv[0] if argv else None).parse_args(argv)
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
