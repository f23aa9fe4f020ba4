"""The argparse parser of the CLI, built from its grammar table.

Only help, errors and other spellings run this module: ``cli.main`` reads a
well-formed argv itself and builds a parser only for an argv it declines
(see the ``cli`` docstring).  The grammar is passed in, so this module never
imports ``pleijel.cli``: under ``python -m pleijel.cli`` the running copy
of the CLI is ``__main__``, and an import would compile and run it again.
"""

import argparse


def build_parser(grammar: dict) -> argparse.ArgumentParser:
    """The parser of every verb of ``grammar``.

    ``grammar`` is ``cli.GRAMMAR``: each verb's help, handler, positionals as
    (dest, kind) and options as (flag, kind, default, help).
    """
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
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (summary, func, positionals, options) in grammar.items():
        p = sub.add_parser(name, help=summary)
        for dest, kind in positionals:
            p.add_argument(dest, **checks_of(kind))
        for flag, kind, default, text in options:
            p.add_argument(flag, default=default, help=text,
                           **(checks_of(kind) if kind else {"action": "store_true"}))
        p.set_defaults(func=func)
    return parser
