"""opturan benchmark: drive `opturan.cli.main` in-process over one workload.

    python3 bench/run.py --workload oracle_sweep --seed 1 --seconds 12 --trace 0

Run from anywhere inside a checkout; opturan is imported from the
checkout's own src/ and nowhere else, so a directory without src/ exits 2.
One process, one closed-loop client: each op starts when the previous one
has ended, and the oracle is always run with `--jobs 1`.

--trace 0 measures whole passes over the workload's ops until --seconds
have elapsed and prints the end-to-end metrics. --trace 1 runs an
untraced, a traced (see layers.py) and another untraced pass, and prints
the per-layer metrics of the traced pass with the tracing overhead; it
ignores --seconds, so its counts are exact and repeat for a seed. Files the CLI writes and the span log go to .bench_build/ at
the checkout root. The last stdout line is the JSON result.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import math
import random
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import layers
import workloads

ROOT = Path(__file__).resolve().parent.parent
# set-up is repeated until both limits are reached and the median is reported
SETUP_MIN_REPEATS = 9
SETUP_MIN_SECONDS = 3.0


class SetupError(Exception):
    pass


def import_cli():
    """Fresh import of opturan.cli from ROOT/src, dropping any earlier copy."""
    src = ROOT / "src"
    if not (src / "opturan" / "__init__.py").is_file():
        raise SetupError(f"no opturan package under {src}")
    for name in [m for m in sys.modules if m == "opturan" or m.startswith("opturan.")]:
        del sys.modules[name]
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    cli = importlib.import_module("opturan.cli")
    if src.resolve() not in Path(cli.__file__).resolve().parents:
        raise SetupError(f"opturan was imported from {cli.__file__}, not from {src}")
    return cli


class Runner:
    """Runs ops, checks them, and keeps what the metrics need."""

    def __init__(self, cli) -> None:
        self.cli = cli
        self.tracer: layers.Tracer | None = None
        self.digests: dict[str, str] = {}
        self.latencies: list[float] = []  # seconds per op, failed ops included
        self.ok_flags: list[bool] = []
        self.failures: dict[str, int] = {}
        self.wrong: list[str] = []
        self.ops_run = 0

    def run(self, op: workloads.Op, out_dir: Path) -> int:
        """Run one op with {out} = out_dir; returns the bytes of the files it wrote."""
        if self.tracer is not None:
            self.tracer.begin_op(self.ops_run)
        self.ops_run += 1
        out = str(out_dir)
        argvs = [[arg.replace("{out}", out) for arg in argv] for argv in op.argvs]
        outs: list[tuple[int, str]] = []
        error = None
        start = time.perf_counter()
        try:
            for argv in argvs:
                stdout, stderr = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                    rc = self.cli.main(argv)
                outs.append((rc, stdout.getvalue().replace(out, "{out}")))
        except Exception as exc:  # a crash is a failed op, not the end of the run
            error = type(exc).__name__
        elapsed = time.perf_counter() - start
        self.latencies.append(elapsed)
        rcs = tuple(rc for rc, _ in outs)
        if error is None and rcs != op.expect_rc:
            error = f"exit {rcs}"
        if error is not None:
            self.failures[error] = self.failures.get(error, 0) + 1
            if error != op.known_failure:
                self.wrong.append(f"{op.key}: {error}")
            self.ok_flags.append(False)
            return 0
        files: dict[str, bytes] = {}
        wrong = self._check(op, outs, out, files)
        if wrong is not None:
            self.wrong.append(f"{op.key}: {wrong}")
        self.ok_flags.append(wrong is None)
        return sum(len(data) for data in files.values())

    def _check(self, op: workloads.Op, outs: list[tuple[int, str]], out: str, files: dict[str, bytes]) -> str | None:
        try:
            for name in op.outputs:
                files[name] = Path(name.replace("{out}", out)).read_bytes()
            wrong = op.check(outs, files)
        except (KeyError, IndexError, ValueError, OSError) as exc:
            return f"unreadable output ({type(exc).__name__}: {exc})"
        if wrong is not None:
            return wrong
        # invocations identical up to {out} must give byte-identical stdout and files
        digest = hashlib.sha256()
        for _, text in outs:
            digest.update(text.encode())
        for name in op.outputs:
            digest.update(files[name])
        seen = self.digests.setdefault(op.key, digest.hexdigest())
        if seen != digest.hexdigest():
            return "output differs from an earlier identical invocation"
        return None

    def run_pass(self, ops: list[workloads.Op], rng: random.Random, out_dir: Path) -> tuple[float, int]:
        """One pass over the ops in seeded order: (seconds inside ops, bytes written)."""
        order = list(ops)
        rng.shuffle(order)
        out_dir.mkdir(parents=True)
        before = sum(self.latencies)
        written = sum(self.run(op, out_dir) for op in order)
        shutil.rmtree(out_dir)  # cheap while the files are young, see workloads.py
        return sum(self.latencies) - before, written


def setup(workload: str, seed: int, work: Path):
    """Import, input generation and warm-up in the new directory `work`; returns (cli, ops)."""
    cli = import_cli()
    work.mkdir(parents=True)
    ops = workloads.WORKLOADS[workload](seed, work)
    warm = Runner(cli)
    for op in workloads.warmup_ops(workload, work):
        warm.run(op, work)
    if not all(warm.ok_flags):
        raise SetupError(f"warm-up failed: {warm.failures or warm.wrong}")
    return cli, ops


def nearest_rank(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def end_to_end(runner: Runner, pass_rates: list[float], setup_s: float, out_bytes: int) -> dict[str, tuple[float, str]]:
    busy = sum(runner.latencies)
    # a failed op ranks slower than any success: it stands in as the whole run's op time
    ranked = [t if good else busy for t, good in zip(runner.latencies, runner.ok_flags)]
    return {
        "ok_ops_per_s": (statistics.median(pass_rates), "ops/s"),
        "op_p50_ms": (nearest_rank(ranked, 0.5) * 1e3, "ms"),
        "op_p90_ms": (nearest_rank(ranked, 0.9) * 1e3, "ms"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        "out_bytes": (out_bytes, "bytes"),
        "setup_s": (setup_s, "s"),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # each run works in a directory of its own; only the span log of a traced run stays
    work = ROOT / ".bench_build" / "opturan" / args.workload / f"run{time.time_ns()}"
    setup_times: list[float] = []
    try:
        while len(setup_times) < SETUP_MIN_REPEATS or sum(setup_times) < SETUP_MIN_SECONDS:
            if setup_times:
                shutil.rmtree(inputs)
            inputs = work / f"setup{len(setup_times)}"
            started = time.perf_counter()
            cli, ops = setup(args.workload, args.seed, inputs)
            setup_times.append(time.perf_counter() - started)
            gc.collect()  # frees the previous import, so set-up does not raise peak RSS
    except (SetupError, ImportError) as exc:
        print(f"bench: set-up failed: {exc}", file=sys.stderr)
        return 2
    setup_s = statistics.median(setup_times)

    rng = random.Random(args.seed)
    runner = Runner(cli)
    lines = [f"workload={args.workload} seed={args.seed} trace={args.trace} ops_per_pass={len(ops)}"]
    if args.trace:
        # untraced, traced, untraced: the overhead is taken against the mean of both bare passes
        first_s, out_bytes = runner.run_pass(ops, random.Random(args.seed), work / "untraced0")
        tracer = layers.Tracer()
        runner.tracer = tracer
        tracer.install()
        try:
            traced_s, _ = runner.run_pass(ops, random.Random(args.seed), work / "traced")
        finally:
            tracer.uninstall()
            runner.tracer = None
        second_s, _ = runner.run_pass(ops, random.Random(args.seed), work / "untraced1")
        untraced_s = (first_s + second_s) / 2
        spans_path = work / f"spans_seed{args.seed}.jsonl"
        tracer.write_jsonl(spans_path)
        metrics = tracer.metrics()
        metrics["trace.untraced_pass_s"] = (untraced_s, "s")
        metrics["trace.overhead_s"] = (traced_s - untraced_s, "s")
        lines.append(
            f"untraced passes {first_s:.3f} s and {second_s:.3f} s, traced pass {traced_s:.3f} s, "
            f"overhead {traced_s - untraced_s:.3f} s ({len(tracer.spans)} spans in {spans_path})"
        )
    else:
        started = time.perf_counter()
        pass_rates: list[float] = []
        out_bytes = 0
        while not pass_rates or time.perf_counter() - started < args.seconds:
            ok_before = sum(runner.ok_flags)
            busy, written = runner.run_pass(ops, rng, work / f"pass{len(pass_rates)}")
            pass_rates.append((sum(runner.ok_flags) - ok_before) / busy)
            out_bytes = out_bytes or written
        metrics = end_to_end(runner, pass_rates, setup_s, out_bytes)
        lines.append(f"passes={len(pass_rates)} wall={time.perf_counter() - started:.3f} s")

    shutil.rmtree(inputs)
    if not args.trace:
        work.rmdir()
    attempted = len(runner.ok_flags)
    failed = attempted - sum(runner.ok_flags)
    lines += summary(runner, setup_times, attempted, failed)
    lines += [f"{name} = {value:.6g} {unit}" for name, (value, unit) in metrics.items()]
    print("\n".join(lines))
    result = {
        "correct": not runner.wrong,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def summary(runner: Runner, setup_times: list[float], attempted: int, failed: int) -> list[str]:
    """Human-readable lines: set-up repeats, error share, failure kinds, wrong outputs."""
    lines = [
        f"setup_s is the median of {len(setup_times)} set-ups",
        f"ops attempted={attempted} ok={attempted - failed} failed={failed} "
        f"error_rate = {failed / attempted:.4f} ratio",
    ]
    if runner.failures:
        lines.append("failures: " + ", ".join(f"{kind} x{count}" for kind, count in sorted(runner.failures.items())))
    lines += [f"WRONG {detail}" for detail in runner.wrong[:10]]
    return lines


if __name__ == "__main__":
    sys.exit(main())
