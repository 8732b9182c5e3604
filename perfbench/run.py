"""rainbowindex benchmark: four CLI workloads run in-process through ``rainbowindex.cli.main``.

    python3 perfbench/run.py --workload verify-exact --seed 1 --seconds 20 --trace 0

Run it from the root of a source checkout; it imports the package from
``src/`` and exits 2 when that is missing. One closed-loop client (no
``--workers``) runs the workload's fixed list of operations round-robin
until ``--seconds`` have passed, always completing at least one full pass.
Inputs come from ``--seed`` and are written under ``.bench_build/perfbench``
before timing starts, then removed.

``--trace 0`` prints the end-to-end metrics. Times are scaled to the
reference speed of the cores (see ``SpeedScale``); stderr also gives the
list time as measured.

* ``setup_s``: median time for a fresh interpreter to import
  ``rainbowindex.cli`` (which loads numpy and mpmath);
* ``wall_s``: time of the fixed list, the sum over its operations of each
  one's median time;
* ``ksets_per_s``, ``samples_per_s``: k-sets and colorings the list
  decides, per second of ``wall_s``;
* ``peak_rss_mb``: peak resident memory of the process after the timed loop.

``--trace 1`` runs one warm-up pass, then alternates untraced passes with
traced ones (see ``tracing.py``) until ``--seconds`` have passed, and
prints the per-layer metrics of the list, each the median over traced
passes, and ``trace.overhead_ratio``.

Every operation's exit code and stdout are checked (``workloads.py``); on
the default seed they must also match ``goldens.json``. An execution fails
when its operation's checks fail or its output differs from the first
execution of the same operation. Stdout holds a provenance line (git SHA,
CPU, Python, numpy and its BLAS, mpmath, seed) and ends with one JSON line:
``{"correct", "attempted", "failed", "metrics"}``; stderr repeats the
metrics as a table with ``failed_ops``. ``--record-goldens`` rewrites the
workload's goldens from a run on the default seed.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"
GOLDENS = HERE / "goldens.json"
DEFAULT_SEED = 1
SETUP_REPEATS = 7
PROBE_REF_S = 0.005  # probe() on the reference machine, a 2-core Intel Xeon VM, at full speed

END_TO_END = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("ksets_per_s", "k-sets/s"),
    ("samples_per_s", "colorings/s"),
    ("peak_rss_mb", "MiB"),
]


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-goldens", action="store_true")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if args.record_goldens and args.seed != DEFAULT_SEED:
        parser.error(f"goldens are recorded on the default seed {DEFAULT_SEED}")
    return args


def git_sha() -> str | None:
    """HEAD of the checkout's git directory, read from its files; None outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def blas() -> str:
    import numpy as np

    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy before 1.26 prints only
        return "unknown"
    return f"{info.get('name')} {info.get('version')}"


def provenance(workload: str, seed: int) -> dict:
    import mpmath
    import numpy as np

    return {
        "workload": workload,
        "seed": seed,
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas(),
        "mpmath": mpmath.__version__,
    }


def probe() -> float:
    """Time a fixed pure-Python task: integer loops, dict updates and JSON encoding."""
    start = time.perf_counter()
    total = 0
    for i in range(40_000):
        total += (i * 7) & 15
    counts: dict[int, int] = {}
    for i in range(10_000):
        counts[i % 331] = counts.get(i % 331, 0) + 1
    json.dumps([[i, i + 1, {"count": i}] for i in range(600)])
    return time.perf_counter() - start


class SpeedScale:
    """Scale measured times to the reference speed of the cores.

    The shared cores this benchmark was tuned on run all code up to 1.5x
    slower for seconds to minutes at a time, which moves the medians of
    whole runs. A probe timed just before and just after each measurement
    tells how fast the cores ran meanwhile; each time is multiplied by
    PROBE_REF_S over the mean of the two probes.
    """

    def __init__(self):
        self.last = probe()

    def __call__(self, elapsed: float) -> float:
        after = probe()
        factor = 2 * PROBE_REF_S / (self.last + after)
        self.last = after
        return elapsed * factor


def measure_setup() -> float:
    """Median time, at the reference speed, of a fresh interpreter importing rainbowindex.cli."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    scale = SpeedScale()
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import rainbowindex.cli"],
                       cwd=ROOT, env=env, check=True)
        times.append(scale(time.perf_counter() - start))
    return median(times)


class Runner:
    """Runs operations in-process and keeps what the checks need."""

    def __init__(self, cli, ops):
        self.cli = cli
        self.ops = ops
        self.times = [[] for _ in ops]
        self.first = [None] * len(ops)  # (exit code, stdout) of each operation's first run
        self.executions = []  # (operation, exit code, stdout digest)

    def run(self, index: int) -> tuple[float, str]:
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            start = time.perf_counter()
            try:
                code = self.cli.main(list(self.ops[index].argv))
            except SystemExit as exc:  # argparse rejected the argv
                code = exc.code
            except Exception:
                code = None
                print(traceback.format_exc(), file=sys.__stderr__)
            elapsed = time.perf_counter() - start
        text = out.getvalue()
        self.times[index].append(elapsed)
        if self.first[index] is None:
            self.first[index] = (code, text)
        self.executions.append((index, code, hashlib.sha256(text.encode()).hexdigest()))
        return elapsed, text

    def run_pass(self, scale, tracer=None) -> tuple[float, int]:
        """One pass over the list: its time scaled by ``scale`` and its stdout bytes."""
        wall = 0.0
        size = 0
        for index in range(len(self.ops)):
            if tracer is not None:
                tracer.op = index
            elapsed, text = self.run(index)
            wall += scale(elapsed)
            size += len(text.encode())
        return wall, size


def check_all(workload, runner: Runner, goldens) -> tuple[int, list]:
    """Failed executions, and the work of each operation from its first run."""
    bad = []
    works = []
    for index, op in enumerate(runner.ops):
        code, text = runner.first[index]
        try:
            errors, work = workload.check(op, code, text)
        except Exception:
            errors, work = [traceback.format_exc()], None
        if goldens is not None:
            want = goldens[index]
            digest = hashlib.sha256(text.encode()).hexdigest()
            if (code, digest) != (want["exit_code"], want["sha256"]):
                errors.append(f"exit {code}, sha256 {digest[:12]} differ from the golden")
        for error in errors:
            print(f"{workload.name} op {index}: {error}", file=sys.stderr)
        bad.append(bool(errors))
        works.append(work)
    reference = [(code, hashlib.sha256(text.encode()).hexdigest()) for code, text in runner.first]
    failed = sum(1 for index, code, digest in runner.executions
                 if bad[index] or (code, digest) != reference[index])
    return failed, works


def untraced(runner: Runner, seconds: float) -> list[list[float]]:
    """Run the list round-robin; each operation's times at the reference speed."""
    deadline = time.perf_counter() + seconds
    scale = SpeedScale()
    scaled = [[] for _ in runner.ops]
    done = 0
    while done < len(runner.ops) or time.perf_counter() < deadline:
        index = done % len(runner.ops)
        elapsed, _ = runner.run(index)
        scaled[index].append(scale(elapsed))
        done += 1
    return scaled


def traced(runner: Runner, seconds: float) -> dict:
    """Alternate untraced and traced passes; per-layer metrics of the list."""
    import tracing

    deadline = time.perf_counter() + seconds
    scale = SpeedScale()
    runner.run_pass(scale)  # warm-up, so that first-run costs do not count as untraced time
    plain_walls, traced_walls, passes = [], [], []
    while not passes or time.perf_counter() < deadline:
        plain_walls.append(runner.run_pass(scale)[0])
        tracer = tracing.Tracer()
        with tracing.patched(tracer):
            wall, size = runner.run_pass(scale, tracer)
        traced_walls.append(wall)
        metrics = tracing.layer_metrics(tracer.spans)
        metrics["cli.output_bytes"] = size
        passes.append(metrics)
    out = {name: median(p[name] for p in passes) for name, _ in tracing.PER_LAYER
           if name != "trace.overhead_ratio"}
    out["trace.overhead_ratio"] = median(traced_walls) / median(plain_walls) - 1
    return {name: {"value": out[name], "unit": unit} for name, unit in tracing.PER_LAYER}


def end_to_end(runner: Runner, scaled, works, setup_s: float, rss_mb: float) -> dict:
    wall = sum(median(times) for times in scaled)
    print(f"list time {sum(median(times) for times in runner.times):.4f} s as measured, "
          f"{wall:.4f} s at the reference speed", file=sys.stderr)
    ksets = sum(w.ksets for w in works if w is not None)
    colorings = sum(w.colorings for w in works if w is not None)
    values = {"setup_s": setup_s, "wall_s": wall, "ksets_per_s": ksets / wall,
              "samples_per_s": colorings / wall, "peak_rss_mb": rss_mb}
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def record_goldens(workload, runner: Runner) -> None:
    doc = json.loads(GOLDENS.read_text()) if GOLDENS.exists() else {}
    doc[workload.name] = [{"exit_code": code, "sha256": hashlib.sha256(text.encode()).hexdigest()}
                          for code, text in runner.first]
    GOLDENS.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "rainbowindex" / "cli.py").is_file():
        print(f"error: no rainbowindex sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import rainbowindex
    from rainbowindex import cli
    from workloads import WORKLOADS, seed_rng

    if Path(rainbowindex.__file__).resolve().parent != SRC / "rainbowindex":
        print(f"error: imported rainbowindex from {rainbowindex.__file__}", file=sys.stderr)
        return 2
    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; pick one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    goldens = None
    if args.seed == DEFAULT_SEED and not args.record_goldens:
        goldens = json.loads(GOLDENS.read_text())[workload.name]

    workdir = WORK / f"{workload.name}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        runner = Runner(cli, workload.prepare(seed_rng(args.seed), workdir))
        if args.trace:
            metrics = traced(runner, args.seconds)
        else:
            setup_s = measure_setup()
            scaled = untraced(runner, args.seconds)
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        failed, works = check_all(workload, runner, goldens)
    finally:
        shutil.rmtree(workdir)
    if not args.trace:
        metrics = end_to_end(runner, scaled, works, setup_s, rss_mb)
    if args.record_goldens:
        record_goldens(workload, runner)

    print(json.dumps({"provenance": provenance(workload.name, args.seed)}))
    for name, metric in metrics.items():
        print(f"{workload.name:>13}  {name:<44} {metric['value']:>14.6g} {metric['unit']}",
              file=sys.stderr)
    print(f"{workload.name:>13}  {'failed_ops':<44} {failed:>14d} of {len(runner.executions)}",
          file=sys.stderr)
    print(json.dumps({"correct": failed == 0, "attempted": len(runner.executions),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
