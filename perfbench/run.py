"""Benchmark of the dnnreuse CLI on one workload.

    python3 perfbench/run.py --workload zoo --seed 1 --seconds 35 --trace 0

Run it from the root of a source checkout. The package is imported from
./src. One client sends one command at a time (a closed loop), and child
processes run one at a time.

A run writes the workload's inputs and runs its command sequence once in
process. This warm-up pass is the checked one: its stdout is compared
with the independent computations in oracle.py. Then, with --trace 0,
the run measures for --seconds:

  setup_s       seconds for a fresh interpreter to run `import dnnreuse.cli`
                (median of SETUP_SAMPLES)
  peak_rss_mib  peak resident memory of one fresh process that runs the
                whole sequence (sequence.py)
  warm_ref      one in-process pass of the sequence through the CLI entry
                point, in reference-loop times: each command's time over
                the median time of the reference loops run just before and
                just after it, the median of that ratio over the run, summed
                over the commands

The host's speed drifts by a third within minutes, and seconds measured
a few minutes apart differ by more than that. The reference loop, fixed
interpreter-bound work that uses nothing of dnnreuse, slows with the host
and cancels most of the drift. The in-process seconds are printed on
stderr. A workload may time other commands in process than the sequence
(Workload.units): zoo times one `analyze` per document.

Every command must print exactly what the checked pass printed. With
--trace 1 the run alternates untraced and traced in-process passes. It
reports the per-layer figures of spans.layer_metrics, the cumulative
import time of dnnreuse.stats under `-X importtime`, and the tracing
overhead, which is traced minus untraced pass seconds. The spans of the
last traced pass go to perfbench/out/trace-<workload>.tsv.gz.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics. An operation is one CLI command.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import pathlib
import statistics
import subprocess
import sys
import time

import click
import yaml

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 3
MIN_SAMPLES = 3  # in-process samples of each command in a run
MIN_PAIRS = 2  # untraced and traced pass pairs of a traced run
REF_LOOPS = 2  # reference loops before and after each in-process command
COUNTS = ("calls", "layers", "rows")  # per-layer figures that are counts, not seconds


def child_env() -> dict:
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))


def spawn(argv: list[str]) -> tuple[int, bytes, float]:
    """Run one child to its end: (exit code, stdout, peak RSS in MiB).

    The child's stderr passes through. The child is reaped with wait4,
    which gives its own peak RSS.
    """
    with subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE) as proc:
        out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out, usage.ru_maxrss / 1024


class MismatchError(Exception):
    """A timed or memory-measured command printed other output than the checked pass."""


class Runner:
    """Runs CLI commands and counts them as attempted and failed operations."""

    def __init__(self, commands, main):
        self.commands = commands
        self.main = main
        self.attempted = 0
        self.failed = 0

    def count(self, args, code, where: str):
        self.attempted += 1
        if code != 0:
            self.failed += 1
            print(f"{where}: `dnnreuse {' '.join(args)}` exited {code}", file=sys.stderr)

    def invoke(self, args, tracer=None) -> tuple[int, str, float]:
        """One command in process, through the CLI entry point: (exit code, stdout, seconds)."""
        buf = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(buf), (tracer.span("cli") if tracer else contextlib.nullcontext()):
            try:
                code = self.main.main(args=args, prog_name="dnnreuse", standalone_mode=False) or 0
            except click.ClickException as exc:  # usage errors; the CLI exits with exc.exit_code
                exc.show()
                code = exc.exit_code
            except SystemExit as exc:  # the CLI's own exit codes 2 and 3
                code = exc.code or 0
        return code, buf.getvalue(), time.perf_counter() - start

    def call(self, args, expected=None, tracer=None) -> tuple[float, str]:
        """One counted command in process: (seconds, stdout).

        With expected, a command that succeeds must print exactly that.
        """
        code, out, elapsed = self.invoke(args, tracer)
        self.count(args, code, "warm")
        if expected is not None and code == 0 and out != expected:
            raise MismatchError(f"`dnnreuse {' '.join(args)}` printed other output than the checked pass")
        return elapsed, out

    def warm(self, expected=None, tracer=None) -> tuple[float, list[str]]:
        """One in-process pass of the sequence: (seconds, stdouts)."""
        expected = expected or [None] * len(self.commands)
        timed = [self.call(args, want, tracer) for args, want in zip(self.commands, expected)]
        return sum(t for t, _ in timed), [out for _, out in timed]


# The reference loop's document: a fixed layer list in block-style YAML.
REF_DOCUMENT = "\n".join(
    f"- name: l{i}\n  kind: conv\n  inputs: [l{i - 1}]\n  out_channels: {16 * i}\n  kernel_h: 3" for i in range(1, 7)
)


def reference_loop() -> float:
    """Seconds for one pass of a fixed loop that uses nothing of dnnreuse.

    It parses REF_DOCUMENT with PyYAML's pure-Python safe loader, then
    sorts, indexes and formats 800 tuples: interpreter-bound work like
    the program's, about 4 ms on a 2.1 GHz Xeon.
    """
    start = time.perf_counter()
    yaml.load(REF_DOCUMENT, Loader=yaml.SafeLoader)
    rows = sorted(((i % 13, str(i), i * 0.5) for i in range(800)), key=lambda r: (r[0], r[1]))
    index = {r[1]: r for r in rows}
    ",".join(f"{k}:{v[2]:.3f}" for k, v in index.items())
    return time.perf_counter() - start


def reference_ratio(runner: Runner, args, expected: str) -> tuple[float, float]:
    """One in-process command and the reference loops around it: (seconds, ratio).

    The ratio is the command's time over the median time of the
    reference loops run just before and just after it.
    """
    before = [reference_loop() for _ in range(REF_LOOPS)]
    elapsed, _ = runner.call(args, expected)
    after = [reference_loop() for _ in range(REF_LOOPS)]
    return elapsed, elapsed / statistics.median(before + after)


def sequence_rss(runner: Runner, outputs: list[str]) -> float:
    """Peak RSS in MiB of one fresh process that runs the whole sequence (sequence.py)."""
    code, out, rss = spawn([sys.executable, str(HERE / "sequence.py"), json.dumps(runner.commands)])
    if code != 0:
        raise RuntimeError(f"sequence.py exited {code}")
    results = json.loads(out)
    for args, (code, text), want in zip(runner.commands, results, outputs):
        runner.count(args, code, "memory")
        if code == 0 and text != want:
            raise MismatchError(f"`dnnreuse {' '.join(args)}` printed other output than the checked pass in sequence.py")
    return rss


def measure(runner: Runner, outputs: list[str], units, seconds: float) -> dict:
    """Set-up, memory and reference-relative in-process times, for seconds in all.

    units: (args, expected stdout) of the in-process timings, taken in
    turn until the next one would end past the budget, with at least
    MIN_SAMPLES of each.
    """
    gc.collect()
    gc.freeze()  # the benchmark's own objects stay out of the program's collections
    start = time.perf_counter()
    setup = []
    for _ in range(SETUP_SAMPLES):
        t = time.perf_counter()
        code, _, _ = spawn([sys.executable, "-c", "import dnnreuse.cli"])
        setup.append(time.perf_counter() - t)
        if code != 0:
            raise RuntimeError(f"`import dnnreuse.cli` exited {code}")
    rss = sequence_rss(runner, outputs)
    seconds_of = [[] for _ in units]
    ratios = [[] for _ in units]
    turn = 0
    while True:
        i = turn % len(units)
        done = all(len(r) >= MIN_SAMPLES for r in ratios)
        if done and time.perf_counter() - start + (seconds_of[i][-1] if seconds_of[i] else 0.0) > seconds:
            break
        elapsed, ratio = reference_ratio(runner, *units[i])
        seconds_of[i].append(elapsed)
        ratios[i].append(ratio)
        turn += 1
    warm_s = sum(map(statistics.median, seconds_of))
    print(f"setup {setup}; warm_s {warm_s:.4f} over {min(map(len, ratios))}+ samples of each of {len(units)} commands",
          file=sys.stderr)
    return {
        "setup_s": (statistics.median(setup), "s"),
        "warm_ref": (sum(map(statistics.median, ratios)), "ref"),
        "peak_rss_mib": (rss, "MiB"),
    }


def import_stats_seconds() -> float:
    """Cumulative import time of dnnreuse.stats in a fresh `import dnnreuse.cli`."""
    argv = [sys.executable, "-X", "importtime", "-c", "import dnnreuse.cli"]
    proc = subprocess.run(argv, cwd=ROOT, env=child_env(), capture_output=True, text=True, check=True)
    for line in proc.stderr.splitlines():
        fields = line.split("|")
        if len(fields) == 3 and fields[2].strip() == "dnnreuse.stats":
            return int(fields[1]) / 1e6
    raise RuntimeError("`-X importtime` did not report dnnreuse.stats")


def measure_traced(runner: Runner, outputs: list[str], seconds: float, workload: str) -> dict:
    from spans import Tracer, layer_metrics

    start = time.perf_counter()
    tracer = Tracer()
    imports = [import_stats_seconds() for _ in range(SETUP_SAMPLES)]
    plain, traced, layers = [], [], []
    last = 0.0
    while len(traced) < MIN_PAIRS or time.perf_counter() - start + last <= seconds:
        t = time.perf_counter()
        plain.append(runner.warm(outputs)[0])
        tracer.reset()
        with tracer.installed():
            traced.append(runner.warm(outputs, tracer)[0])
        layers.append(layer_metrics(*tracer.self_times(), tracer.tallies))
        last = time.perf_counter() - t
    out = ROOT / "perfbench" / "out"
    out.mkdir(exist_ok=True)
    tracer.dump(out / f"trace-{workload}.tsv.gz")
    metrics = {
        name: (statistics.median(m[name] for m in layers), "count" if name.endswith(COUNTS) else "s")
        for name in layers[0]
    }
    metrics["import.stats_s"] = (statistics.median(imports), "s")
    metrics["trace.overhead_s"] = (statistics.median(traced) - statistics.median(plain), "s")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "dnnreuse" / "cli.py").is_file():
        print(f"error: no dnnreuse sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.chdir(ROOT)
    from dnnreuse.cli import main as cli_main

    from oracle import CheckError
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload](args.seed)
    runner = Runner(workload.commands(), cli_main)
    _, outputs = runner.warm()
    correct = True
    try:
        workload.check(outputs)
    except CheckError as exc:
        correct = False
        print(f"check failed: {exc}", file=sys.stderr)
    try:
        if args.trace:
            metrics = measure_traced(runner, outputs, args.seconds, workload.name)
        else:
            metrics = measure(runner, outputs, workload.units(outputs), args.seconds)
    except MismatchError as exc:
        correct = False
        print(exc, file=sys.stderr)
        metrics = {}
    result = {
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
