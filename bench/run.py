#!/usr/bin/env python3
"""Benchmark of the pleijel CLI, end to end and layer by layer.

    python3 bench/run.py --workload interactive --seed 1 --seconds 15 --trace 0

Workloads: interactive, grid, tight, selfcheck (see NOTES.md), or ``all``.
A single closed-loop client runs each op as a fresh ``python -m pleijel.cli``
process, one after the other, and checks every output against the oracle
in oracle.py.

--trace 0 times the workload: a small untimed op per verb, then whole passes
until --seconds have gone by (at least two), with fresh `import pleijel.cli`
processes for setup_s spread among the ops, and prints the end-to-end
metrics.  Every timed child is bracketed by a fixed reference process
(`python -I -S -c pass`, independent of the package), and its time is
scaled to the reference speed: seconds * REFERENCE_S / (mean of the two
reference times around it).  The host's speed drifts by a quarter over
minutes and by more from second to second; the scaling takes most of
that out.  The benchmark and all its children run on one CPU, so a
reference process and the op it brackets see the same CPU.

--trace 1 runs the same ops in this process, with spans around each
layer's public functions, and prints the per-layer metrics.

Every metric is printed on its own line with its unit and sample count;
the last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  The metric names and units are those of
BENCHMARK.json at the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import sys
import tempfile
import time
from importlib import metadata
from pathlib import Path

from tracing import Tracer
from verify import Outcome, failure, load_bounds
from workloads import DEFECT_PROBES, WORKLOADS, Op, PassStream, values_emitted, warmup_ops

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

SETUP_PER_PASS = 4  # about this many fresh `import pleijel.cli` processes per pass
IMPORT_REPEATS = 5  # `-X importtime` processes per traced run
MIN_PASSES = 2
TAIL_BEYOND = 10  # op_tail_s is the highest percentile with this many ops beyond it
# The reference process, and its typical time on the machine the bounds
# were set on (2-vCPU shared VM), so scaled times read close to seconds.
REFERENCE = ("-I", "-S", "-c", "pass")
REFERENCE_S = 0.0135

# Counts a traced pass must repeat exactly on the same inputs.
DETERMINISTIC = ("series.terms", "series.c_series.calls", "series.c_series.misses",
                 "series.unreachable", "htype_algebra.group_mul.calls", "cli.exit.0",
                 "cli.exit.1", "cli.exit.2", "cli.exit.3", "cli.tracebacks", "cli.bytes_out")


def loadavg() -> str:
    return " ".join(f"{x:.2f}" for x in os.getloadavg())


def environment() -> dict:
    cpu = "unknown"
    with open("/proc/cpuinfo", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {"python": platform.python_version(), "numpy": metadata.version("numpy"),
            "mpmath": metadata.version("mpmath"), "nproc": os.cpu_count(), "cpu": cpu}


class Spawner:
    """Runs fresh interpreters on the package source, closed loop, and reaps
    each with os.wait4 so its max RSS is read from the kernel's rusage."""

    def __init__(self, workdir: Path):
        self.out = workdir / "stdout"
        self.err = workdir / "stderr"
        self.env = {**os.environ, "PYTHONPATH": str(SRC)}

    def run(self, *argv: str):
        """(seconds, exit code, max RSS in KiB, stdout, stderr) of one process."""
        with open(self.out, "wb") as out, open(self.err, "wb") as err:
            start = time.perf_counter()
            pid = os.posix_spawn(sys.executable, [sys.executable, *argv], self.env,
                                 file_actions=[(os.POSIX_SPAWN_DUP2, out.fileno(), 1),
                                               (os.POSIX_SPAWN_DUP2, err.fileno(), 2)])
            try:
                _, status, usage = os.wait4(pid, 0)
            except BaseException:  # interrupted: stop the child before leaving
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                raise
            seconds = time.perf_counter() - start
        return (seconds, os.waitstatus_to_exitcode(status), usage.ru_maxrss,
                self.out.read_text(), self.err.read_text())

    def cli(self, op):
        seconds, code, rss, out, err = self.run("-m", "pleijel.cli", *op.args)
        written = Path(op.output).read_text() if op.output and code == 0 else None
        return Outcome(op, seconds, code, out, err, written, rss)

    def reference_seconds(self) -> float:
        seconds, code, _, _, err = self.run(*REFERENCE)
        if code != 0:
            raise RuntimeError(f"reference process failed:\n{err}")
        return seconds

    def setup_seconds(self) -> float:
        seconds, code, _, _, err = self.run("-c", "import pleijel.cli")
        if code != 0:
            raise RuntimeError(f"import pleijel.cli failed:\n{err}")
        return seconds

    def import_seconds(self) -> tuple[float, float]:
        """(import pleijel.cli, import numpy) cumulative seconds from -X importtime."""
        _, code, _, _, err = self.run("-X", "importtime", "-c", "import pleijel.cli")
        if code != 0:
            raise RuntimeError(f"import pleijel.cli failed:\n{err}")
        package = numpy = 0
        for line in err.splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            _, cumulative, name = line.split("|")
            if not cumulative.strip().isdigit():
                continue  # the header line
            if name.strip() == "numpy":
                numpy = int(cumulative)
            elif name.startswith(" pleijel"):  # top level: no nesting indent
                package += int(cumulative)
        return package / 1e6, numpy / 1e6


class Scaler:
    """Scales child times to the reference speed, with a reference process
    run before the first timed child and after each one."""

    def __init__(self, spawner: Spawner):
        self.spawner = spawner
        self.refs = [spawner.reference_seconds()]

    def __call__(self, seconds: float) -> float:
        self.refs.append(self.spawner.reference_seconds())
        return seconds * REFERENCE_S / ((self.refs[-2] + self.refs[-1]) / 2)


class Checker:
    """Oracle verdicts, cached per distinct output."""

    def __init__(self):
        self.bounds = load_bounds()
        self.cache: dict = {}

    def __call__(self, res, refusal_served: bool = False) -> str | None:
        key = (res.op.key, res.exit_code, res.stdout, res.stderr, res.written, refusal_served)
        if key not in self.cache:
            self.cache[key] = failure(res, self.bounds, refusal_served)
        return self.cache[key]


def tail(latencies: list[float]) -> tuple[float, str]:
    """The highest percentile with TAIL_BEYOND ops beyond it, and its label.

    With fewer than 2 * TAIL_BEYOND + 2 ops that percentile would not lie
    above the median, so the median stands in for it.
    """
    ordered = sorted(latencies)
    index = len(ordered) - TAIL_BEYOND - 1
    if index <= len(ordered) // 2:
        return statistics.median(ordered), f"p50 (too few ops for a tail with {TAIL_BEYOND} beyond it)"
    return ordered[index], f"p{100 * (index + 1) / len(ordered):.1f}"


class Report:
    """Metric lines for humans, and the values for the JSON result."""

    def __init__(self, workload: str, units: dict[str, str]):
        self.workload = workload
        self.units = units
        self.metrics: dict[str, dict] = {}

    def add(self, name: str, value: float, note: str) -> None:
        unit = self.units[name]
        print(f"{self.workload:<12} {name:<34} {value:<14.6g} {unit:<6} {note}")
        self.metrics[name] = {"value": value, "unit": unit}

    def note(self, text: str) -> None:
        print(f"{self.workload:<12} {text}")


def run_probes(spawner: Spawner, check: Checker, report: Report) -> int:
    """The known seed defects: run, check and report; never counted as timed ops."""
    failed = 0
    for args in DEFECT_PROBES:
        res = spawner.cli(Op(args))
        why = check(res, refusal_served=True)
        failed += why is not None
        report.note(f"known defect   {' '.join(args)}: exit {res.exit_code}, "
                    + (f"FAILS: {why}" if why else "now passes the oracle"))
    return failed


def timed(workload: str, seed: int, seconds: float, workdir: Path, report: Report):
    spawner, check = Spawner(workdir), Checker()
    stream = PassStream(workload, seed, str(workdir))
    first = stream.next_pass()
    for op in warmup_ops(first, str(workdir)):  # .pyc files and page cache
        spawner.cli(op)

    # A pass's wall time is the sum of its ops' scaled latencies.  The set-up
    # samples are spread over the passes, so they see the same machine as the ops.
    scale = Scaler(spawner)
    walls, raw_walls, outcomes, latency, setup, raw_setup = [], [], [], [], [], []
    start = time.perf_counter()
    while len(walls) < MIN_PASSES or time.perf_counter() - start < seconds:
        ops = first or stream.next_pass()
        first = None
        stride = max(1, len(ops) // SETUP_PER_PASS)
        done = []
        for i, op in enumerate(ops):
            if i % stride == 0:
                raw_setup.append(spawner.setup_seconds())
                setup.append(scale(raw_setup[-1]))
            done.append(spawner.cli(op))
            latency.append(scale(done[-1].seconds))
        walls.append(sum(latency[-len(done):]))
        raw_walls.append(sum(res.seconds for res in done))
        outcomes += done

    failures = [(res, why) for res in outcomes if (why := check(res))]
    values = sum(values_emitted(res.op) for res in outcomes if check(res) is None)
    # An op that every pass repeats counts once, with its median latency, so
    # the percentiles do not hop between clusters of op types from run to run.
    by_op: dict[str, list[float]] = {}
    for res, seconds in zip(outcomes, latency):
        by_op.setdefault(res.op.key, []).append(seconds)
    latencies = [statistics.median(v) for v in by_op.values()]
    tail_s, tail_label = tail(latencies)
    n, distinct = len(outcomes), f"{len(latencies)} distinct ops"
    report.add("setup_s", statistics.median(setup),
               f"median of {len(setup)} fresh `import pleijel.cli` processes "
               f"({statistics.median(raw_setup):.4f} s unscaled)")
    report.add("wall_s", statistics.median(walls),
               f"median of {len(walls)} passes ({statistics.median(raw_walls):.4f} s unscaled)")
    report.add("cells_per_s", values / sum(walls), f"{values} certified values in {len(walls)} passes")
    report.add("op_p50_s", statistics.median(latencies), f"p50 of {distinct} ({n} ops run)")
    report.add("op_tail_s", tail_s, f"{tail_label} of {distinct} ({n} ops run)")
    report.add("peak_rss_mb", max(res.maxrss_kb for res in outcomes) / 1024,
               f"largest child max RSS over {n} ops")
    report.note(f"reference      median {statistics.median(scale.refs) * 1e3:.2f} ms of "
                f"{len(scale.refs)} `python {' '.join(REFERENCE)}` processes; "
                f"times above are scaled to {REFERENCE_S * 1e3:g} ms")
    for res, why in failures[:5]:
        report.note(f"failed op      {res.op.key}: {why}")
    share = f"failed_share   {len(failures) / n:.4f} ({len(failures)} of {n} timed ops failed)"
    if workload == "interactive":
        probed = run_probes(spawner, check, report)
        both, total = len(failures) + probed, n + len(DEFECT_PROBES)
        share += f"; with the known-defect probes {both / total:.4f} ({both} of {total})"
    report.note(share)
    return n, len(failures), True


def traced(workload: str, seed: int, seconds: float, workdir: Path, report: Report):
    spawner, check = Spawner(workdir), Checker()
    imports = [spawner.import_seconds() for _ in range(IMPORT_REPEATS)]
    tracer = Tracer(SRC)
    ops = PassStream(workload, seed, str(workdir)).next_pass()
    if workload == "interactive":
        ops += [Op(args) for args in DEFECT_PROBES]
    probes = {Op(args).key for args in DEFECT_PROBES}

    outcomes = []

    def run_pass() -> float:
        t0 = time.perf_counter()
        outcomes.extend(tracer.run(op) for op in ops)
        return time.perf_counter() - t0

    run_pass()  # warm-up, untraced
    # untraced and traced passes alternate, so a disturbance hits both sides
    untraced_walls, passes = [], []
    start = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - start < seconds:
        untraced_walls.append(run_pass())
        tracer.reset()
        with tracer.installed():
            wall = run_pass()
        outs = outcomes[-len(ops):]
        metrics = tracer.layer_metrics(wall)
        for code in range(4):
            metrics[f"cli.exit.{code}"] = sum(res.exit_code == code for res in outs)
        metrics["cli.tracebacks"] = sum(res.traceback for res in outs)
        metrics["cli.bytes_out"] = sum(len(res.stdout.encode()) for res in outs)
        passes.append(metrics)

    unsteady = [k for k in DETERMINISTIC if len({p[k] for p in passes}) > 1]
    first = passes[0]
    wall = statistics.median(p["trace.wall_s"] for p in passes)
    untraced_wall = statistics.median(untraced_walls)
    for name in report.units:
        if name.startswith("import."):
            continue
        if name == "trace.overhead_share":
            value = (wall - untraced_wall) / untraced_wall
        elif isinstance(first.get(name), int):
            value = first[name]
        else:
            value = statistics.median(p[name] for p in passes)
        report.add(name, value, f"{'count of one pass' if isinstance(value, int) else 'median'}"
                                f" of {len(passes)} traced passes")
    report.add("import.pleijel_cli_s", statistics.median(i[0] for i in imports),
               f"median of {IMPORT_REPEATS} -X importtime runs")
    report.add("import.numpy_s", statistics.median(i[1] for i in imports),
               f"median of {IMPORT_REPEATS} -X importtime runs")
    report.note(f"in-process pass: untraced median {untraced_wall:.4f} s, "
                f"traced median {wall:.4f} s")
    if unsteady:
        report.note(f"NOT DETERMINISTIC across traced passes: {', '.join(unsteady)}")

    timed_outcomes = [res for res in outcomes if res.op.key not in probes]
    failures = [(res, why) for res in timed_outcomes if (why := check(res))]
    for res, why in failures[:5]:
        report.note(f"failed op      {res.op.key}: {why}")
    return len(timed_outcomes), len(failures), not unsteady


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated run still stops its child and removes its scratch directory
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    # One CPU for this process and every child it starts, so that the
    # reference processes and the ops they bracket run on the same CPU.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

    if not (SRC / "pleijel" / "cli.py").is_file():
        print(f"error: no package source at {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    group = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in group}

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    env = environment()
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    with tempfile.TemporaryDirectory(prefix=".bench-", dir=ROOT) as tmp:
        for workload in workloads:
            report = Report(workload, units)
            before = loadavg()
            measure = traced if args.trace else timed
            attempted, failed, steady = measure(workload, args.seed, args.seconds, Path(tmp),
                                                report)
            env_line = {**env, "workload": workload, "seed": args.seed,
                        "loadavg_before": before, "loadavg_after": loadavg()}
            print(f"{workload:<12} env {json.dumps(env_line)}")
            result["correct"] &= failed == 0 and steady
            result["attempted"] += attempted
            result["failed"] += failed
            prefix = f"{workload}." if args.workload == "all" else ""
            result["metrics"].update({prefix + k: v for k, v in report.metrics.items()})
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
