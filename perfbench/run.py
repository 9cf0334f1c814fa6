"""Benchmark of the sentihier CLI: end-to-end and per-layer timings.

Run from the root of a checkout:

    python3 perfbench/run.py --workload train-jira --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10

Workloads are train-jira, predict-batch and crossval-apps (see
workloads.py); `all` runs each of them untraced and traced, each run in a
process of its own, and ends with one JSON line holding every run's
metrics under `<workload>.<metric>`. Commands run one at a time in this process (a closed loop with one
client) with the CLI's defaults, against the `sentihier` sources under
`src/` of the checkout, on one BLAS thread.

With --trace 0 the run sets up several times, timing only set-up, then
repeats the workload's operation until --seconds have passed. The only
instrument is one timestamp per command, at its first call into the work,
which splits set-up from work. With --trace 1 the run skips the set-up
repeats, makes the same untraced operations and then one traced operation,
and reports per-layer metrics (tracing.py); the tracing overhead is the
traced operation's work time against the untraced median.

The last line of standard output is a JSON object with the keys correct,
attempted, failed and metrics. The exit code is 0 only when every check
passed.
"""

import argparse
import ctypes
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import ExitStack, contextmanager, redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

if __name__ == "__main__":
    # One BLAS thread, set before numpy loads. On a 2-core machine shared
    # with other work, the installed default of one thread per core made one
    # train command take 5.4-7.0 s of wall time for twice that in CPU time,
    # while one thread took 5.3 s +/- 4%. The roadmap's time budget is also
    # for one core.
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402  (the benchmark's own modules sit next to this file)
import workloads  # noqa: E402

SETUP_REPEATS = 5   # set-up-only commands before each operation

END_TO_END = {   # name -> unit
    "docs_per_s": "docs/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
# docs_per_s under the name the workload's own report gives it.
THROUGHPUT_NAMES = {"train-jira": "train_docs_per_s", "predict-batch": "predict_docs_per_s",
                    "crossval-apps": "crossval_docs_per_s"}


class WorkEntered(BaseException):
    """Ends a command at its first call into the work, when only set-up is timed.

    A BaseException, so the CLI's own error handling does not catch it.
    """


@dataclass
class Command:
    argv: list
    code: int | None
    start: float
    entered: float | None      # first call into the work; None if never reached
    end: float
    out: str
    err: str
    error: str = ""

    @property
    def setup_s(self) -> float:
        return self.entered - self.start

    @property
    def work_s(self) -> float:
        return self.end - self.entered


def _first_call(fn, marks, stop):
    def marked(*args, **kwargs):
        if not marks:
            marks.append(time.perf_counter())
            if stop:
                raise WorkEntered
        return fn(*args, **kwargs)
    return marked


@contextmanager
def work_boundary(cli, boundary: str, marks: list, stop: bool):
    """Marks the command's first call into the work.

    `fit` and `cross_validate` are wrapped where the CLI looks them up. The
    first `forward` is reached through the model `load_checkpoint` returns.
    """
    name = "load_checkpoint" if boundary == "forward" else boundary
    original = getattr(cli, name)
    if boundary == "forward":
        def replacement(*args, **kwargs):
            model = original(*args, **kwargs)

            def first_forward(*a, **k):
                # Back to the class's method; this also breaks the
                # model -> wrapper -> model cycle, which would keep every
                # loaded model alive until the cycle collector ran.
                del model.forward
                return _first_call(model.forward, marks, stop)(*a, **k)
            model.forward = first_forward
            return model
    else:
        replacement = _first_call(original, marks, stop)
    setattr(cli, name, replacement)
    try:
        yield
    finally:
        setattr(cli, name, original)


def run_command(cli, argv, boundary=None, stop=False) -> Command:
    """Runs one CLI command in this process, capturing its output."""
    out, err = io.StringIO(), io.StringIO()
    marks = []
    code, error = None, ""
    start = time.perf_counter()
    with ExitStack() as stack:
        stack.enter_context(redirect_stdout(out))
        stack.enter_context(redirect_stderr(err))
        if boundary:
            stack.enter_context(work_boundary(cli, boundary, marks, stop))
        try:
            code = cli.main(argv)
        except WorkEntered:
            pass
        except Exception:  # a traceback reaching the user is a failure to report, not a crash
            error = traceback.format_exc(limit=3)
    end = time.perf_counter()
    return Command(argv, code, start, marks[0] if marks else None, end,
                   out.getvalue(), err.getvalue(), error)


def environment(root: Path) -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"numpy": np.__version__, "blas": blas.get("name"),
            "blas_version": blas.get("version"), "blas_threads": _blas_threads(np),
            "cpu_count": os.cpu_count(), "python": platform.python_version(),
            "commit": _commit(root)}


def _blas_threads(np):
    """Thread count of the OpenBLAS bundled with numpy, if it can be asked."""
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")) if libs.is_dir() else []:
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def _commit(root: Path) -> str:
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def measure(cli, workload, seconds: float, trace_on: bool):
    """Runs the workload; returns (outcome, metrics, report lines, record)."""
    outcome = workloads.Outcome(attempted=0)
    setups, rates, records = [], [], []

    def op(tracer=None):
        workload.reset()
        with (tracer.installed() if tracer else ExitStack()):
            cmds = [run_command(cli, argv, workload.boundary) for argv in workload.op()]
        result = workload.check(cmds)
        outcome.attempted += result.attempted
        outcome.failed += result.failed
        outcome.problems += result.problems
        outcome.extras.update(result.extras)
        if outcome.digests and result.digests != outcome.digests:
            outcome.problems.append("a rerun produced different output bytes")
        outcome.digests = result.digests
        entered = [c for c in cmds if c.entered is not None]
        work = sum(c.work_s for c in entered)
        setups.extend(c.setup_s for c in entered)
        if len(entered) == len(cmds) and not result.problems:
            rates.append(workload.docs_per_op() / work)
        records.append({"commands": [{"argv": c.argv, "code": c.code,
                                      "setup_s": c.setup_s if c.entered else None,
                                      "wall_s": c.end - c.start} for c in cmds]})
        return work

    def setup_only():
        cmd = run_command(cli, workload.op()[0], workload.boundary, stop=True)
        if cmd.entered is None:
            outcome.problems.append(f"set-up of {cmd.argv[0]} never reached the work: "
                                    f"{(cmd.error or cmd.err).strip()[-300:]}")
            outcome.attempted += 1
            outcome.failed += 1
        else:
            setups.append(cmd.setup_s)

    works = []
    deadline = time.perf_counter() + seconds
    while not outcome.problems:
        # Set-up samples spread over the whole run, not bunched at its start.
        for _ in range(0 if trace_on else SETUP_REPEATS):
            setup_only()
        works.append(op())
        if time.perf_counter() >= deadline:
            break
    if trace_on:
        # One traced operation, so that its counts repeat exactly across runs.
        tracer = tracing.Tracer()
        traced = op(tracer)
        metrics = tracer.metrics()
        untraced = statistics.median(works) if works else 0.0
        metrics["trace.overhead_pct"] = 100.0 * (traced / untraced - 1.0) if untraced else 0.0
        spans = workload.work / "spans.jsonl"
        tracer.write(spans)
        if tracer.missing:
            outcome.problems.append(f"traced names not found: {tracer.missing}")
        return outcome, metrics, _trace_lines(tracer, spans), records
    metrics = {}
    if rates and setups:
        metrics = {"docs_per_s": statistics.median(rates),
                   "setup_s": statistics.median(setups),
                   "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    lines = [f"operations {len(records)}, set-up samples {len(setups)}"]
    if rates:
        lines.append(f"report {THROUGHPUT_NAMES[workload.name]} = "
                     f"{metrics['docs_per_s']:.6g} docs/s")
    if workload.name == "crossval-apps" and records:
        walls = [sum(c["wall_s"] for c in r["commands"]) for r in records]
        lines.append(f"report crossval_s = {statistics.median(walls):.6g} s")
    for name, value in sorted(outcome.extras.items()):
        lines.append(f"report {name} = {value:.6g} ratio")
    lines.append(f"report error_rate = {outcome.failed / max(outcome.attempted, 1):.6g} ratio")
    return outcome, metrics, lines, records


def _trace_lines(tracer, spans_path) -> list:
    """Self-time shares of the traced operation, largest first."""
    own = tracing.self_times(tracer.spans)
    total = sum(own.values())
    shares = {}
    for s in tracer.spans:
        shares[s[1]] = shares.get(s[1], 0.0) + own[s[0]]
    lines = [f"spans {len(tracer.spans)} written to {spans_path}",
             f"traced time {total:.3f} s; self-time shares:"]
    for name, t in sorted(shares.items(), key=lambda kv: -kv[1]):
        lines.append(f"  {name:40s} {100.0 * t / total:6.2f}%  {t * 1e3:10.1f} ms")
    return lines


def per_layer_units() -> dict:
    units = {}
    for name in tracing.SPANS:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_ms"] = "ms"
    units["model.forward.infer.p50_ms"] = "ms"
    units["model.forward.infer.p99_ms"] = "ms"
    for name, (unit, _, _) in tracing.COUNTS.items():
        units[name] = unit
    units["trace.overhead_pct"] = "%"
    return units


def result_line(correct: bool, attempted: int, failed: int, metrics: dict, units: dict) -> str:
    """The final JSON line: every metric by name, with its unit."""
    return json.dumps({"correct": correct, "attempted": max(attempted, 1), "failed": failed,
                       "metrics": {name: {"value": metrics.get(name, 0.0), "unit": unit}
                                   for name, unit in units.items()}})


def run_one(root: Path, name: str, seed: int, seconds: float, trace_on: bool) -> int:
    from sentihier import cli
    workload = workloads.WORKLOADS[name]()
    print(f"perfbench {name} seed={seed} seconds={seconds} trace={int(trace_on)}")
    env = environment(root)
    print("env " + json.dumps(env, sort_keys=True))
    problems = workload.prepare(root, seed, lambda argv: run_command(cli, argv))
    outcome, metrics, lines, records = (workloads.Outcome(attempted=1, failed=1), {}, [], [])
    if not problems:
        outcome, metrics, lines, records = measure(cli, workload, seconds, trace_on)
        problems = outcome.problems
    units = per_layer_units() if trace_on else END_TO_END
    correct = not problems and outcome.failed == 0 and set(units) <= set(metrics)
    for line in lines:
        print(line)
    if outcome.digests:
        listing = "".join(f"{k} {v}\n" for k, v in sorted(outcome.digests.items()))
        print(f"digest {workloads.sha256(listing.encode())} over {len(outcome.digests)} "
              f"outputs: {', '.join(sorted(outcome.digests))[:200]}")
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    for metric, unit in units.items():
        print(f"metric {metric} = {metrics.get(metric, 0.0):.6g} {unit}")
    results = workloads.WORK_ROOT / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{name}-seed{seed}-trace{int(trace_on)}.json").write_text(json.dumps({
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace_on, "env": env,
        "correct": correct, "problems": problems, "metrics": metrics,
        "digests": outcome.digests, "operations": records}, indent=1) + "\n")
    print(result_line(correct, outcome.attempted, outcome.failed, metrics, units))
    return 0 if correct else 1


def run_all(seed: int, seconds: float) -> int:
    """Every workload, untraced then traced, each in a process of its own."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in workloads.WORKLOADS:
        for trace_flag in ("0", "1"):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", trace_flag],
                capture_output=True, text=True, timeout=900)
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
            if result is None:
                correct, failed, attempted = False, failed + 1, attempted + 1
                continue
            correct = correct and result["correct"] and proc.returncode == 0
            attempted += result["attempted"]
            failed += result["failed"]
            for metric, value in result["metrics"].items():
                metrics[f"{name}.{metric}"] = value
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    src = root / "src"
    if not (src / "sentihier" / "cli.py").is_file() or not (root / "configs").is_dir():
        print(f"perfbench: {root} is not the root of a sentihier checkout "
              "(no src/sentihier or configs/)", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    sys.path.insert(0, str(src))
    return run_one(root, args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
