"""Command-line interface.

Verbs:

* ``value N M QUANTITY``  -- one constant with its certified error bound;
* ``table QUANTITY``      -- a full table in markdown/csv/json/latex;
* ``check SUITE``         -- offline self-checks (exit 1 on any failure);
* ``exceptional``         -- certified classification against the
                             Pleijel threshold 1 (exit 2 where a pair's
                             interval straddles 1);
* ``htype N M OUT.json``  -- write a verified H-type matrix family
                             (exit 3 for inadmissible pairs, exit 2 over
                             2^22 dense matrix entries or where OUT.json
                             cannot be written).

``--eps`` exists on ``value`` and ``table`` only.  This module holds what
every verb runs: each verb's grammar, stated once in ``GRAMMAR``, the strict
reader ``_read``, ``main`` and ``run``.  Each verb's handler sits beside its
work and is looked up when it runs, so a verb compiles only its own:
``cells.cmd_value``, ``render.cmd_table``, ``checks.cmd_check``,
``exceptional.cmd_exceptional`` and ``htype_algebra.cmd_htype``.

``main`` reads a well-formed argv without argparse: the verb, exactly its
positionals, then each option at most once, spelt in full, with its value
as the next word, every value passing its check.  Only help, errors and
other spellings (an abbreviation, ``--eps=1e-9``, ``--``, an option before
a positional, a repeated option) run the ``argparser`` module, which
imports argparse and builds the parser of all five verbs from ``GRAMMAR``.
A verb's handler raises its refusal (``core.Refused`` or ``InadmissiblePair``);
``main`` alone prints it as one ``error:`` line on stderr, and returns 3 for
``InadmissiblePair`` and 2 for any other.

Output is deterministic byte-for-byte; ``check`` carries a timestamp in
its JSON trailer unless --no-timestamp is given.  A process entered
through ``run`` ends once the exit handlers have run and its output is
flushed, past the interpreter's teardown; ``main(argv)`` in process
registers nothing.
"""

import os
import sys
from types import SimpleNamespace

# The modules of the verbs and the parser are called through their module attributes,
# looked up when a verb runs: each verb then runs only the modules it calls (the package
# registers them lazily), and a wrapped module attribute is the one called.
from . import argparser, cells, checks, exceptional, htype_algebra, render
from .core import InadmissiblePair, Refused

QUANTITIES = ("gamma_tilde", "gamma_bar", "sobolev", "weyl", "c_series")
FORMATS = ("markdown", "csv", "json", "latex")
# checks.SUITES, then "all", spelled out so that building the parser runs no checks
SUITE_NAMES = ("tables", "consistency", "monotonicity", "admissibility", "algebra", "all")


# An argument's kind is a converter triple ``(convert, ok, requirement)``: the value
# is ``convert(text)``, refused when it fails ``ok``; or a tuple of choices; or None,
# any text for a positional and store-true for an option.
_EPS = (float, lambda x: x > 0, "> 0")  # NaN fails x > 0 too
_PRECISION = (int, lambda k: 1 <= k <= 12, "in [1, 12]")
_POSITIVE = (int, lambda k: k >= 1, ">= 1")
_TABLE_SIDE = (int, lambda k: 1 <= k <= 30, "in [1, 30]")

_EPS_OPTION = ("--eps", _EPS, 1e-8, "series tolerance (default 1e-8); relative for derived "
                                    "constants, absolute enclosure width for c_series")

# Each verb's grammar, read by both `argparser.build_parser` and `_read`: its help, its
# handler, its positionals as (dest, kind) and its options as (flag, kind, default, help).
# Each handler is looked up in its module when it runs, so that parsing runs none of them.
GRAMMAR = {
    "value": ("one constant with certified error bound", lambda args: cells.cmd_value(args),
              (("n", _POSITIVE), ("m", _POSITIVE), ("quantity", QUANTITIES)),
              (("--precision", _PRECISION, 4, None), _EPS_OPTION)),
    "table": ("emit a full table", lambda args: render.cmd_table(args),
              (("quantity", QUANTITIES),),
              (("--n-max", _TABLE_SIDE, 10, None), ("--m-max", _TABLE_SIDE, 10, None),
               ("--format", FORMATS, "markdown", None), ("--precision", _PRECISION, 4, None),
               ("--no-annotations", None, False, "plain numbers only (csv is always plain)"),
               _EPS_OPTION)),
    "check": ("run offline self-check suites", lambda args: checks.cmd_check(args),
              (("suite", SUITE_NAMES),),
              (("--no-timestamp", None, False,
                "omit the timestamp from the JSON trailer (deterministic output)"),)),
    "exceptional": ("classify pairs against the threshold 1",
                    lambda args: exceptional.cmd_exceptional(args), (),
                    (("--n-max", _POSITIVE, 10, None), ("--m-max", _POSITIVE, 10, None))),
    "htype": ("export a verified H-type matrix family as JSON",
              lambda args: htype_algebra.cmd_htype(args),
              (("n", _POSITIVE), ("m", _POSITIVE), ("output", None)), ()),
}


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
    """What ``argparser.build_parser(GRAMMAR).parse_args(argv)`` returns, for a
    well-formed ``argv`` (the module docstring says which); None for any other, which
    argparse reads."""
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
    args = _read(argv) or argparser.build_parser(GRAMMAR).parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe shows here, not at interpreter exit
        return code
    except (Refused, InadmissiblePair) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, InadmissiblePair) else 2
    except BrokenPipeError:
        # the reader went away: send what is still buffered to devnull, so the
        # interpreter's own flush at exit cannot fail again (Python docs, signal)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


def run() -> int:
    """The process entry point: ``main()``, whose returned code then ends the process
    once the exit handlers have run and stdout and stderr are flushed, without the
    interpreter's teardown.  Called in process, it ends that process with that code."""
    code = main()
    import atexit

    run_exitfuncs = getattr(atexit, "_run_exitfuncs", None)
    if run_exitfuncs is None:
        return code

    def leave():
        # registered last, so called first: the handlers registered before it run as
        # they would, then what they and `main` buffered is written; a stream that is
        # gone or cannot be flushed is left to the ordinary exit, which reports it
        atexit.unregister(leave)
        run_exitfuncs()
        for stream in (sys.stdout, sys.stderr):
            if stream is None:
                return
            try:
                stream.flush()
            except (OSError, ValueError):
                return
        os._exit(code)

    atexit.register(leave)
    return code


if __name__ == "__main__":
    sys.exit(run())
