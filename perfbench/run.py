"""theta2 benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The first run in a checkout builds:
it runs the cold north-star command `theta2 --jobs 2 structure` once into
perfbench/_work/build-<source hash>/cache (about five minutes on two
cores) and keeps the filled cache for later runs.  Each run then sets up
its workload's starting state, runs operations in fresh processes until
--seconds have passed (at least one), checks every report against the
paper, and prints a summary followed by one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics; --trace 1 runs the operation
in-process twice, plain and with the layer wrappers of tracing.py, and
reports the per-layer metrics.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

RUN_DEADLINE_S = 170        # one run must exit within 180 s
BUILD_TIMEOUT_S = 850       # the first run in a checkout may take 900 s
SETUPS_BEFORE_OPS = 2       # plus one before every operation: at least 3

# per-layer metrics printed in the JSON line of a traced run: times of spans
# both listed workloads enter, and counts that are not 0 on both (README.md)
PER_LAYER = [
    "thetaring.self_s",
    "groebner.self_s",
    "symbolic.self_s",
    "thetaring.StructurePipeline.kernel_seed.s",
    "thetaring.StructurePipeline.total_kernel.s",
    "thetaring.StructurePipeline.total_kernel.size",
    "thetaring.RelationOracle.calls",
    "thetaring.StructurePipeline.m_pair.calls",
    "thetaring.StructurePipeline.chi5_m.size",
    "groebner.buchberger_engine.calls",
    "groebner.buchberger_engine.s",
    "groebner.buchberger_engine.rows_out",
    "groebner.intersect_pair_engine.calls",
    "groebner.intersect_pair_engine.useful_ratio",
    "groebner.EngineBasis.normal_form.calls",
    "groebner.EngineBasis.normal_form.s",
    "groebner.BasisCache.load.hits",
    "groebner.BasisCache.load.misses",
    "groebner.BasisCache.load.s",
    "groebner.BasisCache.load.bytes",
    "groebner.BasisCache.store.calls",
    "symbolic.element_to_text.calls",
    "symbolic.element_to_text.s",
    "symbolic.element_from_text.calls",
    "numerics.theta_values.calls",
    "numerics.grad_values.calls",
    "numerics.relation_residual.calls",
    "trace.overhead_ratio",
]


def layer_unit(name: str) -> str:
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith((".s", "self_s")):
        return "s"
    return "bytes" if name.endswith(".bytes") else "count"


class BenchError(Exception):
    """The benchmark cannot run in this directory; no result is printed."""


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------

def tail_percentile(values: list[float]) -> tuple[int, float] | None:
    """The highest whole percentile p (nearest rank) with at least ten
    samples above it, and its value; None below eleven samples."""
    xs = sorted(values)
    n = len(xs)
    for p in range(99, 0, -1):
        rank = math.ceil(p * n / 100)
        if rank >= 1 and n - rank >= 10:
            return p, xs[rank - 1]
    return None


# ---------------------------------------------------------------------------
# processes
# ---------------------------------------------------------------------------

@dataclass
class Sample:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    code: int


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_process(argv: list[str], out_path: Path, timeout: float) -> Sample:
    """Run argv from the checkout root with stdout to out_path; measure wall
    time and, from wait4, the CPU time and peak RSS of the process and the
    workers it waited for.  A process past its timeout is killed with its
    process group."""
    err_path = out_path.with_suffix(".stderr")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=ROOT,
                                env=child_env(), start_new_session=True)
        fd = os.pidfd_open(proc.pid)
        try:
            ready, _, _ = select.select([fd], [], [], max(timeout, 0.0))
            if not ready:
                os.killpg(proc.pid, signal.SIGKILL)
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            os.close(fd)
        wall = time.perf_counter() - t0
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    if not ready:
        code = -9
    return Sample(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, code)


def python_cmd(*args: str) -> list[str]:
    return [sys.executable, *args]


# ---------------------------------------------------------------------------
# build: the filled cache, once per checkout and source tree
# ---------------------------------------------------------------------------

def source_hash() -> str:
    h = hashlib.sha256(sys.version.encode())
    for path in sorted((SRC / "theta2").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def ensure_build(src_hash: str) -> dict:
    """Fill the basis cache with one cold `theta2 --jobs 2 structure` run,
    unless this source tree's build exists already."""
    final = WORK / f"build-{src_hash}"
    if (final / "build.json").is_file():
        return json.loads((final / "build.json").read_text())
    tmp = WORK / f"build-{src_hash}.tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    (tmp / "cache").mkdir(parents=True)
    cache_rel = os.path.relpath(tmp / "cache", ROOT)
    print(f"build: cold `theta2 --jobs 2 structure` into {cache_rel}", flush=True)
    sample = run_process(python_cmd("-m", "theta2.cli", "--jobs", "2", "--cache-dir",
                                    cache_rel, "structure"),
                         tmp / "report.json", BUILD_TIMEOUT_S)
    if sample.code != 0:
        raise BenchError(f"build: structure exited {sample.code}")
    problems = checks.check_structure(json.loads((tmp / "report.json").read_text()))
    if problems:
        raise BenchError(f"build: structure report fails: {problems}")
    info = {"command": "theta2 --jobs 2 structure (cold cache)",
            "wall_s": sample.wall_s, "cpu_s": sample.cpu_s,
            "peak_rss_mb": sample.peak_rss_mb, "finished": time.time()}
    (tmp / "build.json").write_text(json.dumps(info, indent=2))
    os.replace(tmp, final)
    return info


# ---------------------------------------------------------------------------
# one run
# ---------------------------------------------------------------------------

def loadavg() -> list[str] | None:
    try:
        return Path("/proc/loadavg").read_text().split()[:3]
    except OSError:
        return None


def environment() -> dict:
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                    capture_output=True, text=True,
                                    timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    return {"nproc": os.cpu_count(), "python": sys.version.split()[0],
            "numpy": numpy_version, "loadavg_start": loadavg(),
            "git_commit": commit}


class Run:
    def __init__(self, workload, seed: int, src_hash: str):
        self.workload = workload
        self.seed = seed
        self.src_hash = src_hash
        self.build_cache = WORK / f"build-{src_hash}" / "cache"
        self.state = WORK / "state" / workload.name
        self.ops_dir = WORK / "ops" / workload.name
        self.deadline = time.perf_counter() + RUN_DEADLINE_S
        self.setups: list[float] = []
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.first_report: bytes | None = None

    @property
    def cache_rel(self) -> str:
        return os.path.relpath(self.state / "cache", ROOT)

    def remaining(self) -> float:
        return self.deadline - time.perf_counter()

    def setup(self) -> None:
        """Fresh starting state for one operation, then a CLI start probe."""
        t0 = time.perf_counter()
        shutil.rmtree(self.state, ignore_errors=True)
        self.state.mkdir(parents=True)
        if self.workload.uses_cache:
            shutil.copytree(self.build_cache, self.state / "cache")
        else:
            (self.state / "cache").mkdir()
        shutil.rmtree(self.ops_dir, ignore_errors=True)
        self.ops_dir.mkdir(parents=True)
        probe = run_process(python_cmd("-m", "theta2.cli", "catalog", "dtable"),
                            self.ops_dir / "probe.json", self.remaining())
        self.setups.append(time.perf_counter() - t0)
        if probe.code != 0:
            raise BenchError(f"setup probe exited {probe.code}")
        problems = checks.check_dtable(json.loads((self.ops_dir / "probe.json").read_text()))
        if problems:
            raise BenchError(f"setup probe: {problems}")

    def judge(self, sample: Sample, report: Path) -> None:
        """Count one attempted operation, failed on a non-zero exit, a check
        that fails, or report bytes that differ from earlier ones."""
        self.attempted += 1
        problems = [] if sample.code == 0 else [f"exit code {sample.code}"]
        data = report.read_bytes() if report.is_file() else b""
        try:
            problems += self.workload.checker(json.loads(data))
        except ValueError as exc:
            problems.append(f"report is not JSON: {exc}")
        else:
            if self.first_report is None:
                self.first_report = data
            if data != self.first_report:
                problems.append("report differs from the run's first report")
            if not digest_matches(self.src_hash, self.workload.name, self.seed, data):
                problems.append(f"report differs from an earlier run with seed {self.seed}")
        if problems:
            self.failed += 1
            self.problems += problems

    def inprocess_op(self, trace: bool) -> Sample:
        out = self.ops_dir / ("traced" if trace else "plain")
        out.mkdir()
        argv = python_cmd(str(HERE / "inprocess.py"), "--workload", self.workload.name,
                          "--seed", str(self.seed), "--cache-dir", self.cache_rel,
                          "--out-dir", os.path.relpath(out, ROOT))
        sample = run_process(argv + (["--trace"] if trace else []), out / "stdout.txt",
                             self.remaining())
        self.judge(sample, out / "report.json")
        return sample

    def op(self) -> Sample:
        """One untraced operation: the real CLI, or inprocess.py for fold-step."""
        self.setup()
        if self.workload.cli_args is None:
            return self.inprocess_op(trace=False)
        report = self.ops_dir / "report.json"
        argv = self.workload.cli_args(self.seed, self.cache_rel)
        sample = run_process(python_cmd("-m", "theta2.cli", *argv), report, self.remaining())
        self.judge(sample, report)
        return sample


def digest_matches(src_hash: str, workload: str, seed: int, data: bytes) -> bool:
    """Reports of one source tree, workload and seed must stay byte-identical
    across runs; the first run records the digest."""
    path = WORK / "digests.json"
    store = json.loads(path.read_text()) if path.is_file() else {}
    key = f"{src_hash}:{workload}:{seed}"
    digest = hashlib.sha256(data).hexdigest()
    if store.setdefault(key, digest) != digest:
        return False
    path.write_text(json.dumps(store, indent=1, sort_keys=True))
    return True


def timed_runs(run: Run, seconds: float) -> dict:
    for _ in range(SETUPS_BEFORE_OPS):
        run.setup()
    samples: list[Sample] = []
    t0 = time.perf_counter()
    while not samples or (time.perf_counter() - t0 < seconds
                          and run.remaining() > 1.5 * samples[-1].wall_s + 5):
        samples.append(run.op())
    return {
        "samples": [s.__dict__ for s in samples],
        "metrics": {
            "run_s": (statistics.median(s.wall_s for s in samples), "s"),
            "cpu_s": (statistics.median(s.cpu_s for s in samples), "s"),
            "peak_rss_mb": (max(s.peak_rss_mb for s in samples), "MB"),
            "setup_s": (statistics.median(run.setups), "s"),
        },
    }


def traced_runs(run: Run) -> dict:
    for _ in range(SETUPS_BEFORE_OPS):
        run.setup()
    run.setup()
    plain = run.inprocess_op(trace=False)
    run.setup()
    traced = run.inprocess_op(trace=True)
    spans_path = run.ops_dir / "traced" / "spans.jsonl"
    spans = [json.loads(line) for line in spans_path.read_text().splitlines()] \
        if spans_path.is_file() else []
    layers = tracing.aggregate(spans)
    layers["trace.overhead_ratio"] = traced.wall_s / plain.wall_s - 1.0
    metrics = {name: (layers.get(name, 0), layer_unit(name)) for name in PER_LAYER}
    return {"samples": [plain.__dict__, traced.__dict__], "layers": layers,
            "metrics": metrics, "spans": str(spans_path.relative_to(ROOT))}


def summarize(workload: str, src_hash: str, result: dict, env: dict, build: dict,
              run: Run, trace: bool) -> list[str]:
    lines = [
        f"theta2 benchmark: workload {workload}, seed {run.seed}, trace {int(trace)}",
        f"environment: nproc {env['nproc']}, python {env['python']}, numpy {env['numpy']}, "
        f"loadavg {' '.join(env['loadavg_start'] or ['?'])} -> "
        f"{' '.join(env['loadavg_end'] or ['?'])}, commit {env['git_commit'] or 'n/a'}, "
        f"source {src_hash}",
        f"build (once per checkout): {build['command']}: {build['wall_s']:.1f} s wall, "
        f"{build['cpu_s']:.1f} s cpu, {build['peak_rss_mb']:.0f} MB peak",
    ]
    history = load_history(src_hash, workload, trace)
    for name, (value, unit) in result["metrics"].items():
        line = f"  {name} = {value:.6g} {unit}"
        if not trace and name != "peak_rss_mb":
            key = {"run_s": "wall_s", "cpu_s": "cpu_s"}.get(name)
            past = ([s[key] for h in history for s in h["samples"]] if key
                    else [h["metrics"][name][0] for h in history])
            tail = tail_percentile(past)
            lines.append(line + f"; all runs of this source: median "
                         f"{statistics.median(past):.6g} {unit}, " + (
                             f"p{tail[0]} {tail[1]:.6g} {unit}" if tail
                             else "no percentile with 10 samples beyond") + f" (n={len(past)})")
        else:
            lines.append(line)
    if trace:
        lines.append("  all layers (the JSON line carries the subset in PER_LAYER):")
        for name in sorted(result["layers"]):
            if result["layers"][name]:
                lines.append(f"    {name} = {result['layers'][name]:.6g}")
    lines.append(f"attempted {run.attempted}, failed {run.failed}, fail_ratio "
                 f"{run.failed / max(run.attempted, 1):.3g}")
    lines += [f"  problem: {p}" for p in run.problems]
    return lines


def load_history(src_hash: str, workload: str, trace: bool) -> list[dict]:
    folder = WORK / "results" / src_hash / workload
    if not folder.is_dir():
        return []
    out = []
    for path in sorted(folder.glob(f"*-trace{int(trace)}.json")):
        out.append(json.loads(path.read_text()))
    return out


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    try:
        if not (SRC / "theta2" / "cli.py").is_file():
            raise BenchError(f"no theta2 sources under {SRC}; run from a checkout root")
        env = environment()
        src_hash = source_hash()
        WORK.mkdir(exist_ok=True)
        build = ensure_build(src_hash)
        run = Run(WORKLOADS[args.workload], args.seed, src_hash)
        result = traced_runs(run) if args.trace else timed_runs(run, args.seconds)
    except BenchError as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2
    env["loadavg_end"] = loadavg()
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "environment": env, "build": build, "setups": run.setups,
              "attempted": run.attempted, "failed": run.failed,
              "problems": run.problems, **result}
    folder = WORK / "results" / src_hash / args.workload
    folder.mkdir(parents=True, exist_ok=True)
    (folder / f"{time.time_ns()}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True, default=str))
    for line in summarize(args.workload, src_hash, result, env, build, run, bool(args.trace)):
        print(line)
    print(json.dumps({
        "correct": run.failed == 0 and not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
