"""The four workloads: what one pass of each runs, generated from a seed.

Each op is one ``python -m pleijel.cli ARGS`` invocation.  See NOTES.md for
why each workload exists and which layers it is meant to move.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from oracle import admissible

WORKLOADS = ("interactive", "grid", "tight", "selfcheck")
QUANTITIES = ("gamma_tilde", "gamma_bar", "sobolev", "weyl", "c_series")

# Random one-shot `value` ops per interactive pass, next to its three fixed ops.
INTERACTIVE_VALUES = 20

# The two seed defects (see NOTES.md).  They run in every interactive run,
# are oracle-checked and reported, but stay outside the timed passes and
# the attempted/failed counts: the timed workload must have no failing op.
DEFECT_PROBES = (
    ("value", "200", "1", "gamma_tilde"),
    ("value", "150", "3", "gamma_tilde"),
)

BIG = ("--n-max", "30", "--m-max", "30")
JSON = ("--format", "json")


@dataclass(frozen=True)
class Op:
    """One CLI invocation.  ``output`` is the file an htype op writes."""

    args: tuple[str, ...]
    output: str | None = None

    @property
    def verb(self) -> str:
        return self.args[0]

    @property
    def key(self) -> str:
        """Stable name of the op (the htype output path is left out)."""
        return " ".join(self.args[:3] if self.verb == "htype" else self.args)


def option(args: tuple[str, ...], name: str, default: str) -> str:
    return args[args.index(name) + 1] if name in args else default


def box(args: tuple[str, ...]) -> tuple[int, int]:
    return int(option(args, "--n-max", "10")), int(option(args, "--m-max", "10"))


def admissible_pairs(n_max: int, m_max: int) -> list[tuple[int, int]]:
    return [(n, m) for n in range(1, n_max + 1) for m in range(1, m_max + 1)
            if admissible(n, m)]


def values_emitted(op: Op) -> int:
    """Certified values an op prints: table cells, a value line, classified pairs."""
    if op.verb == "value":
        return 1
    if op.verb == "table":
        n_max, m_max = box(op.args)
        return n_max * m_max
    if op.verb == "exceptional":
        return len(admissible_pairs(*box(op.args)))
    if op.verb == "htype":
        return 1
    return 0  # `check` prints verdicts, not certified values


def fixed_ops(workload: str, workdir: str) -> list[Op]:
    if workload == "interactive":
        return [Op(("table", "gamma_tilde")), Op(("table", "gamma_bar")), Op(("exceptional",))]
    if workload == "grid":
        # Markdown shows 4 decimals only, and nearly all 30x30 weyl and
        # c_series cells display 0.0000; the json tables print every cell's
        # value and error_bound, so every quantity's enclosures are checked.
        ops = [Op(("table", q) + BIG) for q in QUANTITIES]
        ops += [Op(("table", q) + BIG + JSON) for q in QUANTITIES]
        ops += [Op(("table", "gamma_tilde") + BIG + ("--format", f)) for f in ("csv", "latex")]
        return ops + [Op(("exceptional",) + BIG)]
    if workload == "tight":
        return [Op(("table", "weyl") + BIG + ("--eps", "1e-10") + JSON),
                Op(("value", "30", "1", "gamma_tilde", "--eps", "1e-12")),
                Op(("table", "gamma_tilde", "--eps", "1e-12") + JSON)]
    if workload == "selfcheck":
        ops = [Op(("check", "all", "--no-timestamp"))]
        for n, m in admissible_pairs(8, 8):  # every admissible pair with 2n <= 16
            path = f"{workdir}/htype_{n}_{m}.json"
            ops.append(Op(("htype", str(n), str(m), path), output=path))
        return ops
    raise ValueError(f"unknown workload {workload!r}")


def warmup_ops(ops: list[Op], workdir: str) -> list[Op]:
    """One small op per verb of a pass, run untimed before the timed passes.

    Every op imports the whole package, so these compile the .pyc files and
    fill the page cache without the cost of a whole pass.
    """
    small = {
        "value": ("value", "2", "1", "gamma_tilde"),
        "table": ("table", "gamma_tilde", "--n-max", "2", "--m-max", "2"),
        "exceptional": ("exceptional", "--n-max", "2", "--m-max", "2"),
        "check": ("check", "admissibility", "--no-timestamp"),
    }
    out = []
    for verb in dict.fromkeys(op.verb for op in ops):
        if verb == "htype":
            out.append(Op(("htype", "1", "1", f"{workdir}/htype_warmup.json"),
                          output=f"{workdir}/htype_warmup.json"))
        else:
            out.append(Op(small[verb]))
    return out


class PassStream:
    """Seeded stream of passes.  Every pass holds the workload's fixed ops,
    plus fresh random `value` one-shots on interactive, in a seeded order."""

    def __init__(self, workload: str, seed: int, workdir: str):
        self.workload = workload
        self.rng = random.Random(f"{workload}:{seed}")
        self.fixed = fixed_ops(workload, workdir)

    def next_pass(self) -> list[Op]:
        ops = list(self.fixed)
        if self.workload == "interactive":
            for _ in range(INTERACTIVE_VALUES):
                n, m = self.rng.randint(1, 30), self.rng.randint(1, 30)
                ops.append(Op(("value", str(n), str(m), self.rng.choice(QUANTITIES))))
        self.rng.shuffle(ops)
        return ops
