"""The nblgc benchmark: ORL-shaped workloads through the CLI and library.

    python3 perfbench/run.py --workload orl-p2-knn --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25
    python3 perfbench/run.py --workload all --quick --seconds 0

Each run generates its tree from --seed under perfbench/_work, then runs
the workload's commands in fresh child processes, one after another (a
closed loop with one client): at least two passes, and more while the
next one is likely to end within --seconds. Every output is checked.
Children run pinned to a fixed set of CPUs, and their wall times are
scaled to a reference CPU speed sampled on those CPUs while they ran
(speed.py), so the host's changing speed does not spread the results.
--trace 0 prints the end-to-end metrics; --trace 1 runs untraced and
traced passes in turn and prints the per-layer metrics, with the
tracing overhead. The last line of standard output is one JSON object;
the full record, with provenance, goes to perfbench/results/. The exit
code is 1 when any check fails. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

import checks
import gen
import spans
import speed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
CHILD = BENCH / "child.py"
CHILD_TIMEOUT_S = 170
SETUP_REPEATS = 7
PROBE_IMAGES = 40


@dataclass(frozen=True)
class Workload:
    name: str
    binary: bool  # P5 tree when true, else P2
    steps: tuple[str, ...]  # CLI commands, or "svm" for the library path
    workers: int


WORKLOADS = {
    w.name: w
    for w in (
        Workload("orl-p2-knn", binary=False, steps=("evaluate",), workers=1),
        Workload("orl-p5-svm", binary=True, steps=("svm",), workers=1),
        Workload("orl-p5-sweep", binary=True, steps=("extract", "kfold", "roc"),
                 workers=min(2, os.cpu_count() or 1)),
    )
}


@dataclass
class Run:
    """Everything one benchmark run measured and found."""

    workload: Workload
    sizes: checks.Sizes
    seed: int
    data: Path
    work: Path
    images: dict
    oracles: object
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    facts: dict = field(default_factory=dict)
    setup_s: list[float] = field(default_factory=list)
    setup_scaled_s: float = 0.0
    ref_job_s: float = 0.0  # mean reference job time over the run
    # pass wall times, scaled to the reference speed (see speed.py), and raw
    walls: dict[bool, list[float]] = field(default_factory=lambda: {False: [], True: []})
    raw_walls: dict[bool, list[float]] = field(default_factory=lambda: {False: [], True: []})
    step_s: dict[str, list[float]] = field(default_factory=dict)
    query_ms: list[float] = field(default_factory=list)
    import_s: list[float] = field(default_factory=list)
    model_bytes: list[int] = field(default_factory=list)
    peak_rss_kb: int = 0
    spans: list[dict] = field(default_factory=list)
    probe: list[dict] = field(default_factory=list)
    first_outputs: dict[str, dict[str, str]] = field(default_factory=dict)

    def record(self, op: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{op}: {p}" for p in problems)


def child_env(work: Path) -> dict[str, str]:
    env = dict(os.environ)
    env.pop("NBLGC_WORKERS", None)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["TMPDIR"] = str(work)
    return env


def kill_group(proc: subprocess.Popen) -> None:
    """Kill a child and every process it started (its pool workers)."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def run_child(argv: list[str], log: Path, env: dict) -> tuple[int, float, int]:
    """Run one child to completion: (exit code, wall seconds, peak RSS KiB).

    os.wait4 gives the child's own resource usage, which includes the
    pool processes it waited for. The child leads its own process group,
    which is killed when it overruns or the benchmark is interrupted.
    """
    with open(log, "wb") as fh:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=fh, stderr=subprocess.STDOUT, env=env, cwd=ROOT,
                                start_new_session=True)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, kill_group, (proc,))
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            kill_group(proc)
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss


def cli_args(run: Run, step: str, out: Path) -> list[str]:
    s = run.sizes
    args = [step, "--data", str(run.data), "--resize", f"{s.resize[0]}x{s.resize[1]}",
            "--out", str(out), "--workers", str(run.workload.workers)]
    if step in ("evaluate", "roc"):
        args += ["--train-per-class", str(s.train_per_class)]
    if step == "kfold":
        args += ["--folds", str(s.folds)]
    return args


def images_per_pass(run: Run) -> int:
    per_step = {"extract": run.sizes.images, "kfold": run.sizes.images}
    return sum(per_step.get(step, run.sizes.test_images) for step in run.workload.steps)


def step_outputs(out: Path) -> dict[str, str]:
    """Digest of every byte-stable file a step wrote."""
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.iterdir())
        if p.suffix == ".csv" or p.name in ("config.json", "model.txt")
    }


def check_step(run: Run, step: str, out: Path, result: dict) -> list[str]:
    s, facts = run.sizes, run.facts
    if step == "evaluate":
        return checks.check_report(out / "report.csv", s, facts)
    if step == "kfold":
        return checks.check_folds(out / "folds.csv", s, facts)
    if step == "roc":
        return checks.check_roc(out / "roc.csv", s, facts)
    if step == "extract":
        return checks.check_features(out / "features.csv", s, run.images, run.oracles, run.seed, facts)
    return checks.check_svm(result, s, facts)


def run_step(run: Run, step: str, out: Path, traced: bool, env: dict) -> tuple[float, int]:
    out.mkdir(parents=True)
    result_path = out / "result.json"
    spans_path = out / "spans.jsonl"
    trace_args = ["--spans", str(spans_path), "--run-id", out.parent.name + "/" + step] if traced else []
    if step == "svm":
        s = run.sizes
        argv = [sys.executable, str(CHILD), "--result", str(result_path), *trace_args, "svm",
                "--data", str(run.data), "--resize", f"{s.resize[0]}x{s.resize[1]}",
                "--model", str(out / "model.txt"), "--train-per-class", str(s.train_per_class),
                "--workers", str(run.workload.workers)]
    elif traced:
        argv = [sys.executable, str(CHILD), "--result", str(result_path), *trace_args,
                "cli", *cli_args(run, step, out)]
    else:
        argv = [sys.executable, "-m", "nblgc", *cli_args(run, step, out)]
    code, wall, rss = run_child(argv, out / "log.txt", env)
    problems = [] if code == 0 else [f"exit code {code}: " + (out / "log.txt").read_text(errors="replace")[-400:]]
    result = json.loads(result_path.read_text()) if result_path.is_file() else {}
    if not problems:
        try:
            problems = check_step(run, step, out, result)
        except (OSError, ValueError, KeyError, IndexError) as err:
            problems = [f"unreadable output: {err!r}"]
    if traced:
        if "import_s" in result:
            run.import_s.append(result["import_s"])
        if spans_path.is_file():
            run.spans.extend(spans.load_spans(spans_path))
    elif step == "svm" and (out / "model.txt").is_file():
        run.model_bytes.append((out / "model.txt").stat().st_size)
        run.query_ms.extend(result.get("query_ms", []))
    if not problems:
        outputs = step_outputs(out)
        if step == "svm":
            outputs["predictions"] = json.dumps([result["trained"], result["loaded"]])
        first = run.first_outputs.setdefault(step, outputs)
        if outputs != first:
            changed = sorted(k for k in outputs if outputs[k] != first.get(k))
            problems = [f"rerun output differs from the first run: {changed}"]
    (out / "model.txt").unlink(missing_ok=True)  # 70 MB each; its digest is kept
    run.record(f"{out.parent.name}/{step}", problems)
    return wall, rss


def run_pass(run: Run, number: int, traced: bool, env: dict, cpu_speed: speed.SpeedProbe) -> None:
    pass_dir = run.work / f"pass{number:02d}-{'traced' if traced else 'plain'}"
    wall = 0.0
    start = time.perf_counter()
    for step in run.workload.steps:
        seconds, rss = run_step(run, step, pass_dir / step, traced, env)
        wall += seconds
        run.peak_rss_kb = max(run.peak_rss_kb, rss)
        if not traced:
            run.step_s.setdefault(step, []).append(seconds)
    run.raw_walls[traced].append(wall)
    run.walls[traced].append(cpu_speed.scaled(wall, start, time.perf_counter()))


def repeat(seconds: float, minimum: int, body) -> int:
    """Call body(1), body(2), ... at least `minimum` times, then stop
    before a further call would likely end past `seconds`."""
    start = time.perf_counter()
    done = 0
    while True:
        done += 1
        body(done)
        elapsed = time.perf_counter() - start
        if done >= minimum and elapsed * (done + 1) / done > seconds:
            return done


def measure_setup(run: Run, env: dict) -> None:
    """Median-ready samples of `python -m nblgc --help` after one warm-up,
    so the compiled-bytecode cache is filled as it is for a user. They
    run on one CPU, and their median is scaled by the speed sampled on it
    over all of them."""
    with speed.SpeedProbe(speed.child_cpus(1)) as cpu_speed:
        start = time.perf_counter()
        for i in range(SETUP_REPEATS + 1):
            log = run.work / f"setup{i}.txt"
            code, wall, _ = run_child([sys.executable, "-m", "nblgc", "--help"], log, env)
            ok = code == 0 and "usage" in log.read_text()
            run.record("setup", [] if ok else [f"--help exit code {code}"])
            if i:
                run.setup_s.append(wall)
        median = statistics.median(run.setup_s)
        run.setup_scaled_s = cpu_speed.scaled(median, start, time.perf_counter())


def run_probe(run: Run, env: dict) -> None:
    out = run.work / "probe"
    out.mkdir()
    s = run.sizes
    argv = [sys.executable, str(CHILD), "--result", str(out / "result.json"),
            "--spans", str(out / "spans.jsonl"), "--run-id", "probe", "probe",
            "--data", str(run.data), "--resize", f"{s.resize[0]}x{s.resize[1]}",
            "--count", str(PROBE_IMAGES)]
    code, _, _ = run_child(argv, out / "log.txt", env)
    run.record("probe", [] if code == 0 else [f"exit code {code}"])
    if code == 0:
        run.probe = spans.load_spans(out / "spans.jsonl")


def end_to_end(run: Run) -> dict[str, tuple[float, str]]:
    wall = statistics.median(run.walls[False])
    return {
        "setup_s": (run.setup_scaled_s, "s"),
        "wall_s": (wall, "s"),
        "images_per_s": (images_per_pass(run) / wall, "1/s"),
        "peak_rss_mb": (run.peak_rss_kb / 1024.0, "MB"),
    }


def command_metrics(run: Run) -> dict[str, tuple[float, str]]:
    """Metrics of one command or of one workload only, and raw (unscaled)
    times. They are printed and recorded but are not in BENCHMARK.json,
    whose end-to-end metrics must exist, be nonzero and be steady on
    every workload."""
    out = {f"{step}_s": (statistics.median(v), "s") for step, v in run.step_s.items()}
    out["raw_wall_s"] = (statistics.median(run.raw_walls[False]), "s")
    out["raw_setup_s"] = (statistics.median(run.setup_s), "s")
    out["ref_job_ms"] = (1e3 * run.ref_job_s, "ms")
    if run.query_ms:
        out["query_ms_p50"] = (statistics.median(run.query_ms), "ms")
        out["query_ms_p90"] = (statistics.quantiles(run.query_ms, n=10, method="inclusive")[8], "ms")
    if run.model_bytes:
        out["model_mb"] = (run.model_bytes[0] / 1e6, "MB")
    out["fail_ratio"] = (run.failed / max(run.attempted, 1), "ratio")
    return out


def per_layer(run: Run, passes: int) -> dict[str, tuple[float, str]]:
    out = spans.per_layer_metrics(run.spans, run.probe, passes)
    out["cli.import_s"] = (statistics.median(run.import_s) if run.import_s else 0.0, "s")
    overhead = statistics.median(run.walls[True]) - statistics.median(run.walls[False])
    out["trace.overhead_s"] = (overhead, "s")
    return out


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
    return done.stdout.strip() or None


def cpu_model() -> str:
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.is_file():
        for line in cpuinfo.read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    return platform.processor()


def provenance(run: Run, args, trace: int) -> dict:
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "nblgc").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_commit": git_commit(),
        "src_sha256": src.hexdigest(),
        "workload": run.workload.name,
        "seed": run.seed,
        "seconds": args.seconds,
        "trace": trace,
        "quick": args.quick,
        "workers": run.workload.workers,
        "cpus": sorted(speed.child_cpus(run.workload.workers)),
        "ref_job_nominal_s": speed.REF_JOB_S,
        "tree": asdict(run.sizes.tree),
        "resize": list(run.sizes.resize),
        "train_per_class": run.sizes.train_per_class,
        "folds": run.sizes.folds,
    }


def run_workload(workload: Workload, args, trace: int) -> tuple[Run, dict[str, tuple[float, str]]]:
    sizes = checks.QUICK if args.quick else checks.FULL
    tag = f"{workload.name}-seed{args.seed}-trace{trace}{'-quick' if args.quick else ''}"
    work = BENCH / "_work" / f"{tag}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        images = gen.generate(sizes.tree, args.seed)
        data = work / "data"
        gen.write_tree(data, images, workload.binary)
        run = Run(workload, sizes, args.seed, data, work, images, checks.load_oracles(ROOT))
        env = child_env(work)
        if not trace:
            measure_setup(run, env)
        with speed.SpeedProbe(speed.child_cpus(workload.workers)) as cpu_speed:
            if trace:

                def pair(number):
                    run_pass(run, number, False, env, cpu_speed)
                    run_pass(run, number, True, env, cpu_speed)

                passes = repeat(args.seconds, 1, pair)
                run_probe(run, env)
                metrics = per_layer(run, passes)
            else:
                repeat(args.seconds, 2, lambda number: run_pass(run, number, False, env, cpu_speed))
                metrics = end_to_end(run)
            run.ref_job_s = cpu_speed.job_s(0.0, time.perf_counter())
    finally:
        shutil.rmtree(work, ignore_errors=True)
    record = {
        "provenance": provenance(run, args, trace),
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "problems": run.problems,
        "facts": run.facts,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "ref_job_s": run.ref_job_s,
        "samples_s": {"setup": run.setup_s, "plain": run.raw_walls[False], "traced": run.raw_walls[True],
                      "plain_scaled": run.walls[False], "traced_scaled": run.walls[True]},
    }
    if trace:
        record["layer_self_s"] = spans.layer_summary(run.spans)
    else:
        record["command_metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in command_metrics(run).items()}
    results = BENCH / "results"
    results.mkdir(exist_ok=True)
    (results / f"{tag}.json").write_text(json.dumps(record, indent=2) + "\n")
    if trace:
        with open(results / f"{tag}-spans.jsonl", "w") as fh:
            fh.writelines(json.dumps(s, sort_keys=True) + "\n" for s in run.spans + run.probe)
    report(record)
    return run, metrics


def report(record: dict) -> None:
    p = record["provenance"]
    print(f"== {p['workload']} seed={p['seed']} trace={p['trace']} workers={p['workers']} "
          f"nproc={p['nproc']} python={p['python']} numpy={p['numpy']} commit={p['git_commit']}")
    sections = [("metrics", record["metrics"]), ("command metrics", record.get("command_metrics", {})),
                ("layer self time", {k: {"value": v, "unit": "s"} for k, v in record.get("layer_self_s", {}).items()})]
    for title, metrics in sections:
        if metrics:
            print(f"-- {title}")
            for name, m in metrics.items():
                print(f"   {name:<30} {m['value']:>14.6g} {m['unit']}")
    for name, value in record["facts"].items():
        print(f"   check {name:<24} {value:>14.6g}")
    print(f"-- {record['attempted']} operations, {record['failed']} failed")
    for problem in record["problems"]:
        print(f"   FAIL {problem}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--quick", action="store_true", help="tiny tree: every path and check in seconds")
    args = parser.parse_args()
    # SIGTERM unwinds like an error, so every child is killed and reaped
    signal.signal(signal.SIGTERM, lambda signum, _frame: sys.exit(128 + signum))
    missing = [p for p in ("src/nblgc/__init__.py", "tests/oracles.py") if not (ROOT / p).is_file()]
    if missing:
        print(f"perfbench: not in a checkout of the repository, missing {missing}", file=sys.stderr)
        return 2

    if args.workload != "all":
        runs = [(*run_workload(WORKLOADS[args.workload], args, args.trace), "")]
    else:
        runs = [
            (*run_workload(workload, args, trace), f"{workload.name}:")
            for workload in WORKLOADS.values()
            for trace in (0, 1)
        ]
    attempted = sum(r.attempted for r, _, _ in runs)
    failed = sum(r.failed for r, _, _ in runs)
    line = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {prefix + k: {"value": v, "unit": u} for _, m, prefix in runs for k, (v, u) in m.items()},
    }
    print(json.dumps(line))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
