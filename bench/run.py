"""Benchmark of the `transversals` command-line tool.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
`src/`. The workload's input is generated from the seed (see
`workloads.py`), then the driver runs the CLI as a subprocess, one run at
a time: a closed loop with one client, which reads all of the child's
stdout as it arrives. Runs repeat until `--seconds` are used up (at
least five). Between runs the driver times set-up probes: a child that
imports the package and parses the input, then exits. Right before and
right after each run it times a fixed piece of reference work
(`reference.py`), and reports the run's times as multiples of it; the
driver and its children stay on one CPU so that both see the same core.

Every run must pass the workload's correctness gate, exit 0 and report
the same search counters (`--stats`) as every other run of the seed;
otherwise it counts as failed.

With `--trace 1` a further run calls `transversals.cli.main` inside this
process with the timing wrappers of `layers.py` installed, and the
per-layer metrics replace the end-to-end ones in the result.

The last stdout line is one JSON object: `correct`, `attempted`,
`failed` and `metrics` (each a value with its unit). Lines before it
describe the run context and the samples behind each median.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import re
import selectors
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import reference
from layers import Tracer
from workloads import WORKLOADS, Gate, Input, build_input

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CHILD = Path(__file__).resolve().parent / "child.py"
WORK = ROOT / ".bench_work"

MIN_RUNS = 5
SETUP_PROBES_PER_RUN = 1
TRACED_COST = 1.7
RUN_TIMEOUT_S = 30.0
# Every invocation ends well inside the 180 s a caller may allow it.
HARD_LIMIT_S = 150.0

STATS_RE = re.compile(r"^stats: nodes=(\d+) leaves=(\d+) max_depth=(\d+) outputs=(\d+)$", re.M)
CHILD_RE = re.compile(r"^bench-child: main_s=(\S+) vmhwm_kb=(\d+)$", re.M)


@dataclass
class Spawned:
    """One finished child: its timings, exit code and captured streams."""

    wall_s: float
    cpu_s: float
    first_output_s: float | None
    code: int
    stdout: bytes
    stderr: bytes
    timed_out: bool


@dataclass
class Run:
    """One CLI run as the driver judged it, with the reference work timed around it."""

    spawned: Spawned
    stats: tuple[int, int, int, int] | None
    main_s: float | None
    vmhwm_kb: int | None
    error: str | None
    ref_wall_s: float
    ref_cpu_s: float


def spawn(argv: list[str], env: dict[str, str], timeout: float) -> Spawned:
    """Run argv to completion, reading stdout and stderr as they arrive.

    Wall time runs from just before the spawn until wait4 returns; CPU
    time is the child's user plus system time from wait4.
    """
    first = None
    out: list[bytes] = []
    err: list[bytes] = []
    timed_out = False
    started = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, cwd=ROOT)
    try:
        with selectors.DefaultSelector() as sel:
            sel.register(proc.stdout, selectors.EVENT_READ, out)
            sel.register(proc.stderr, selectors.EVENT_READ, err)
            deadline = started + timeout
            while sel.get_map():
                left = deadline - time.perf_counter()
                if left <= 0:
                    timed_out = True
                    proc.kill()
                    break
                for key, _ in sel.select(left):
                    data = os.read(key.fd, 1 << 16)
                    if not data:
                        sel.unregister(key.fileobj)
                    else:
                        if key.data is out and first is None:
                            first = time.perf_counter() - started
                        key.data.append(data)
    except BaseException:
        proc.kill()
        raise
    finally:
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - started
        proc.returncode = os.waitstatus_to_exitcode(status)
        proc.stdout.close()
        proc.stderr.close()
    return Spawned(
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        first_output_s=first,
        code=proc.returncode,
        stdout=b"".join(out),
        stderr=b"".join(err),
        timed_out=timed_out,
    )


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("PYTHONUNBUFFERED", None)  # keep the CLI's normal block-buffered stdout
    return env


def parse_stats(stderr: str) -> tuple[int, int, int, int] | None:
    found = STATS_RE.search(stderr)
    return tuple(int(g) for g in found.groups()) if found else None


def judge(spawned: Spawned, gate: Gate, expected_outputs: int, refs: list[tuple[float, float]]) -> Run:
    """Parse a finished CLI child and apply the workload's gate.

    refs are the (wall, CPU) times of the reference work before and after it.
    """
    stderr = spawned.stderr.decode("utf-8", "replace")
    stats = parse_stats(stderr)
    report = CHILD_RE.search(stderr)
    main_s = float(report.group(1)) if report else None
    vmhwm = int(report.group(2)) if report else None
    if spawned.timed_out:
        error = "timed out"
    elif spawned.code != 0:
        error = f"exit code {spawned.code}: {stderr.strip()[-200:]}"
    elif stats is None or report is None:
        error = "missing --stats or child report on stderr"
    elif stats[3] != expected_outputs:
        error = f"search.outputs={stats[3]}, want {expected_outputs}"
    else:
        error = gate.check(spawned.stdout.decode("utf-8"))
    ref_wall = statistics.fmean(wall for wall, _ in refs)
    ref_cpu = statistics.fmean(cpu for _, cpu in refs)
    return Run(spawned, stats, main_s, vmhwm, error, ref_wall, ref_cpu)


def check_counters(results: list) -> None:
    """Search counters of one seed must repeat exactly; a mismatch fails the run.

    Each result has `stats` and `error`; the most common counters among the
    passing results are the reference.
    """
    seen = Counter(r.stats for r in results if r.error is None)
    if not seen:
        return
    reference = seen.most_common(1)[0][0]
    for r in results:
        if r.error is None and r.stats != reference:
            r.error = f"search counters {r.stats} differ from {reference}"


@dataclass
class Traced:
    """The in-process run with the layer wrappers installed."""

    tracer: Tracer
    wall_s: float
    stats: tuple[int, int, int, int] | None
    output: str
    error: str | None


class TracedRunTimeout(Exception):
    """Raised by the alarm that bounds the in-process traced run."""


def _alarm(signum, frame):
    raise TracedRunTimeout


def traced_run(cli_args: list[str], out_path: Path, gate: Gate, expected_outputs: int, deadline: float) -> Traced:
    """One in-process CLI run with the layer wrappers installed, judged like a timed run."""
    from transversals import cli

    tracer = Tracer()
    err = io.StringIO()
    code = None
    previous = signal.signal(signal.SIGALRM, _alarm)
    started = time.perf_counter()
    try:
        with open(out_path, "w", encoding="utf-8") as out:
            signal.setitimer(signal.ITIMER_REAL, max(0.001, deadline - started))
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), tracer.installed():
                started = time.perf_counter()
                code = cli.main(cli_args)
                out.flush()
                wall = time.perf_counter() - started
    except TracedRunTimeout:
        wall = time.perf_counter() - started
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    stderr = err.getvalue()
    stats = parse_stats(stderr)
    output = out_path.read_text(encoding="utf-8")
    if code is None:
        error = f"traced run stopped after {wall:.1f} s"
    elif code != 0 or stats is None:
        error = f"traced run exit code {code}: {stderr.strip()[-200:]}"
    elif stats[3] != expected_outputs:
        error = f"traced search.outputs={stats[3]}, want {expected_outputs}"
    elif not tracer.reconciles(wall):
        error = "trace self times do not add up to the traced wall time"
    else:
        error = gate.check(output)
    return Traced(tracer, wall, stats, output, error)


def git_commit() -> str | None:
    """HEAD of the checkout when it is a git work tree, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def pin_to_one_cpu() -> int | None:
    """Keep this process and every child it starts on one CPU, so the
    reference work runs on the same core as the run it brackets."""
    try:
        cpu = min(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
        return cpu
    except (AttributeError, OSError):
        return None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def sample_line(name: str, values: list[float], unit: str) -> str:
    """Median, extremes and the highest percentile with ten samples above it."""
    if not values:
        return f"# {name}: no samples"
    n = len(values)
    tail = f", p{100 * (n - 10) // n} {sorted(values)[n - 11]:.6g}" if n > 10 else ""
    return (
        f"# {name}: median {statistics.median(values):.6g} {unit} over {n} samples "
        f"(min {min(values):.6g}, max {max(values):.6g}{tail})"
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.perf_counter() + HARD_LIMIT_S

    if not (SRC / "transversals" / "cli.py").is_file():
        sys.stderr.write(f"error: no package source at {SRC / 'transversals'}; run from a checkout\n")
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    sys.path.insert(0, str(SRC))

    workload = WORKLOADS[args.workload]
    inp: Input = build_input(workload, args.seed)
    gate = Gate(inp)
    env = child_env()
    pinned_cpu = pin_to_one_cpu()
    context = {
        "workload": workload.name,
        "seed": args.seed,
        "command": ["transversals", workload.command, "--stats", "<input>"],
        "input": inp.describe(),
        "git_commit": git_commit(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "loadavg_1m_before": os.getloadavg()[0],
        "pinned_cpu": pinned_cpu,
    }

    def child(argv: list[str]) -> Spawned:
        return spawn(argv, env, max(0.0, min(RUN_TIMEOUT_S, deadline - time.perf_counter())))

    work = WORK / f"{workload.name}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        input_path = work / "input.hg"
        input_path.write_text(inp.text, encoding="utf-8")
        cli_args = [workload.command, "--stats", str(input_path)]
        run_argv = [sys.executable, str(CHILD), "run", *cli_args]
        setup_argv = [sys.executable, str(CHILD), "setup", str(input_path)]

        # The first probe compiles bytecode in a fresh checkout; users pay
        # that once, so it is not a sample.
        setup_failures = 0 if child(setup_argv).code == 0 else 1
        setup: list[float] = []
        runs: list[Run] = []
        began = time.perf_counter()
        while True:
            for _ in range(SETUP_PROBES_PER_RUN):
                probe = child(setup_argv)
                if probe.code == 0:
                    setup.append(probe.wall_s)
                else:
                    setup_failures += 1
            before = reference.timed()
            spawned = child(run_argv)
            after = reference.timed()
            runs.append(judge(spawned, gate, inp.expected_outputs, [before, after]))
            now = time.perf_counter()
            per_round = (now - began) / len(runs)
            # A traced run costs about TRACED_COST untraced runs; it shares the budget.
            reserve = TRACED_COST * per_round if args.trace else 0.0
            if runs[-1].spawned.timed_out or now + per_round + reserve > deadline:
                break
            if len(runs) >= MIN_RUNS and now - began + per_round + reserve > args.seconds:
                break

        traced = None
        if args.trace:
            traced = traced_run(cli_args, work / "traced.out", gate, inp.expected_outputs, deadline)
        check_counters(runs + ([traced] if traced else []))
        context["loadavg_1m_after"] = os.getloadavg()[0]
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()

    good = [r for r in runs if r.error is None]
    basis = good or runs
    walls = [r.spawned.wall_s for r in basis]
    cpus = [r.spawned.cpu_s for r in basis]
    firsts = [r.spawned.first_output_s for r in basis if r.spawned.first_output_s is not None]
    rss = [r.vmhwm_kb / 1024 for r in basis if r.vmhwm_kb is not None]
    mains = [r.main_s for r in basis if r.main_s is not None]
    refs = [r.ref_wall_s for r in basis]
    wall_rel = [r.spawned.wall_s / r.ref_wall_s for r in basis]
    cpu_rel = [r.spawned.cpu_s / r.ref_cpu_s for r in basis]
    first_rel = [r.spawned.first_output_s / r.ref_wall_s for r in basis if r.spawned.first_output_s is not None]

    attempted = len(runs) + (1 if traced else 0)
    failed = sum(1 for r in runs if r.error is not None) + (1 if traced and traced.error else 0)
    context["runs"] = len(runs)
    context["setup_probes"] = len(setup)
    context["error_rate"] = failed / attempted
    print("# context: " + json.dumps(context, sort_keys=True))
    print(sample_line("wall_s", walls, "s"))
    print(sample_line("cpu_s", cpus, "s"))
    print(sample_line("first_output_s", firsts, "s"))
    print(sample_line("reference wall time around each run", refs, "s"))
    print(sample_line("wall_rel", wall_rel, "ref"))
    print(sample_line("cpu_rel", cpu_rel, "ref"))
    print(sample_line("first_output_rel", first_rel, "ref"))
    print(sample_line("setup_s", setup, "s"))
    print(sample_line("peak_rss_mb", rss, "MB"))
    print(sample_line("main_s (time inside cli.main, in the child)", mains, "s"))
    for r in runs:
        if r.error is not None:
            print(f"# failed run: {r.error}")
    if setup_failures:
        print(f"# failed set-up probes: {setup_failures}")

    if traced is None:
        wanted = spec["end_to_end"]
        values = {
            "wall_rel": median_or_nan(wall_rel),
            "cpu_rel": median_or_nan(cpu_rel),
            "first_output_rel": median_or_nan(first_rel),
            "setup_s": median_or_nan(setup),
            "peak_rss_mb": median_or_nan(rss),
        }
    else:
        wanted = spec["per_layer"]
        if traced.error:
            print(f"# failed traced run: {traced.error}")
        if traced.tracer.missing:
            print("# trace could not wrap: " + ", ".join(traced.tracer.missing))
        untraced_main = median_or_nan(mains)
        print(f"# traced run: cli.main {traced.wall_s:.6g} s vs untraced median {untraced_main:.6g} s")
        values = layer_metrics(traced, untraced_main)

    print(
        json.dumps(
            {
                "correct": failed == 0 and setup_failures == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {m["name"]: {"value": number(values[m["name"]]), "unit": m["unit"]} for m in wanted},
            }
        )
    )
    return 0


def median_or_nan(values: list[float]) -> float:
    return statistics.median(values) if values else math.nan


def number(value: float) -> float | None:
    """JSON has no NaN; a metric without samples (only after failed runs) is null."""
    return None if isinstance(value, float) and math.isnan(value) else value


def layer_metrics(traced: Traced, untraced_main_s: float) -> dict[str, float]:
    nodes, leaves, depth, outputs = traced.stats or (0, 0, 0, 0)
    layer = traced.tracer.layer_metrics(traced.wall_s)
    layer.update(
        {
            "cli.lines": traced.output.count("\n"),
            "cli.bytes": len(traced.output.encode("utf-8")),
            "search.nodes": nodes,
            "search.leaves": leaves,
            "search.outputs": outputs,
            "search.max_depth": depth,
            "search.useful_leaf_ratio": outputs / leaves if leaves else 0.0,
            "search.us_per_node": untraced_main_s / nodes * 1e6 if nodes else 0.0,
            "trace.overhead_frac": traced.wall_s / untraced_main_s - 1,
        }
    )
    return layer


if __name__ == "__main__":
    sys.exit(main())
