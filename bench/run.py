"""gridtrade benchmark: one workload, one process, one JSON result line.

    python3 bench/run.py --workload sweep --seed 1 --seconds 30 --trace 0

Workloads are `sweep`, `large_n` and `follower_tight` (see workloads.py and
spec.json). Run from a checkout of the repository: the program is imported
from its `src/` directory. With `--trace 0` the run sets the workload up
five times (setup_s is the median), runs a closed loop over its fixed item
set for `--seconds`, then checks every output against the closed form and
prints the end-to-end metrics. With `--trace 1` it runs the same untraced
loop, then one traced pass over the item set, and prints the per-layer
metrics; the spans go to `.bench_out/` in the checkout. The line before the
last one records the environment; the last line is the result object.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUPS = 5
WORKLOAD_NAMES = ("sweep", "large_n", "follower_tight")

_IMPORT_PROBE = (
    "import sys, time\n"
    "t0 = time.perf_counter()\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import gridtrade\n"
    "print(time.perf_counter() - t0)\n"
)


def import_seconds() -> float:
    """Time `import gridtrade` (numpy included) in a fresh interpreter."""
    out = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, str(SRC)],
                         capture_output=True, text=True, check=True, cwd=ROOT,
                         timeout=60)
    return float(out.stdout.strip().splitlines()[-1])


def environment() -> dict:
    describe = "unavailable"
    if (ROOT / ".git").exists():
        try:
            out = subprocess.run(["git", "describe", "--always", "--dirty"],
                                 capture_output=True, text=True, cwd=ROOT, timeout=30)
            describe = out.stdout.strip() or describe
        except OSError:
            pass
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "git_describe": describe}


# The shared machine's speed drifts by tens of percent within a minute, so
# every step's wall time is scaled to a fixed machine speed: a calibration
# kernel runs between chunks of steps, and a chunk's factor is CAL_REF_S
# over the mean kernel time around it. A step's scaled time is its wall time
# on a machine where the kernel takes exactly CAL_REF_S. The kernel mixes
# the operations the program spends its time in (small numpy calls, fsum,
# float conversions, dict building and json.dumps) and uses no gridtrade
# code, so a change to the program cannot move it.
CAL_REF_S = 0.010
CHUNK_S = 0.25
_CAL_VECTOR = np.linspace(0.0, 1.0, 64)


def _kernel() -> None:
    v = _CAL_VECTOR
    for i in range(64):
        x = np.clip(v - i * 1e-3, 0.0, 0.9)
        math.fsum(x)
        float(np.linalg.norm(x - v))
        {"head": [float(e) for e in x[:8]], "n": i}
        json.dumps({"round": i, "payload": {"id": i, "energy": float(x[1])}}, sort_keys=True)
        float(np.where(x > 0.5, x, 0.0).sum() + (x * v).sum())


def calibrate() -> float:
    """Five times the median of five kernel runs, so that a preemption
    during one run does not pass for a slow machine."""
    runs = []
    for _ in range(5):
        t0 = time.perf_counter()
        _kernel()
        runs.append(time.perf_counter() - t0)
    return 5 * statistics.median(runs)


class Outcome:
    """What a sequence of steps produced: per-step wall time, scaled time,
    item count and summary (None for a step that raised)."""

    def __init__(self):
        self.wall: list[float] = []
        self.seconds: list[float] = []
        self.items: list[int] = []
        self.summaries: list = []

    def run_step(self, wl, j: int) -> None:
        t0 = time.perf_counter()
        try:
            result = wl.step(j)
            dt = time.perf_counter() - t0
            summary = wl.summarize(result)
        except Exception:
            dt = time.perf_counter() - t0
            traceback.print_exc(file=sys.stderr)
            summary = None
        self.wall.append(dt)
        self.items.append(wl.items(summary))
        self.summaries.append(summary)

    def scale_chunk(self, cal_before: float, cal_after: float) -> None:
        factor = 2.0 * CAL_REF_S / (cal_before + cal_after)
        self.seconds += [dt * factor for dt in self.wall[len(self.seconds):]]

    def medians(self, steps_per_pass: int) -> dict[int, tuple[float, int]]:
        """Step of the item set -> (median scaled seconds over its
        repetitions, items in it)."""
        reps = {}
        for j, (s, n) in enumerate(zip(self.seconds, self.items)):
            reps.setdefault(j % steps_per_pass, []).append(s)
        return {k: (statistics.median(v), self.items[k]) for k, v in reps.items()}


def run_for(wl, seconds: float, min_steps: int = 1, tracer=None) -> Outcome:
    """Closed loop over the workload's steps: at least `min_steps`, and
    until `seconds` of wall time have passed."""
    out = Outcome()
    gc.collect()
    cal = calibrate()
    chunk = 0.0
    start = time.perf_counter()
    j = 0
    while j < min_steps or time.perf_counter() - start < seconds:
        if tracer is not None:
            tracer.item = j
        out.run_step(wl, j)
        chunk += out.wall[-1]
        j += 1
        if chunk >= CHUNK_S:
            cal_after = calibrate()
            out.scale_chunk(cal, cal_after)
            cal, chunk = cal_after, 0.0
            gc.collect()
    if chunk:
        out.scale_chunk(cal, calibrate())
    return out


def check_all(wl, outcomes) -> tuple[int, int, list[float]]:
    """(attempted, failed, per-item gaps of the good items)."""
    refs = wl.references()
    attempted = failed = 0
    gaps = []
    for outcome in outcomes:
        for n_items, summary in zip(outcome.items, outcome.summaries):
            attempted += n_items
            item_gaps = [None] * n_items if summary is None else wl.check(summary, refs)
            good = [g for g in item_gaps if g is not None]
            failed += n_items - len(good)
            gaps += good
    return attempted, failed, gaps


def set_up(wl_class, seed: int, workdir: Path, times: int):
    """Set the workload up `times` times: the import (in a fresh
    interpreter), the inputs and one warm-up item. Returns the last
    workload and the scaled set-up times."""
    setups = []
    for _ in range(times):
        cal_before = calibrate()
        wall = import_seconds()
        t0 = time.perf_counter()
        wl = wl_class(seed, workdir)
        wl.warm_up()
        wall += time.perf_counter() - t0
        setups.append(wall * 2.0 * CAL_REF_S / (cal_before + calibrate()))
    return wl, setups


def quantile(values: list[float], p: int) -> float:
    """The p-th percentile (inclusive method); the value itself for one."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def end_to_end(medians: dict, good_share: float, ref_digits: float,
               setups: list[float]) -> dict:
    """The untraced metrics. Each step of the workload's fixed item set is
    timed by the median over its repetitions in the run, so a stall during
    one repetition does not count and the figures cover the whole item set
    whatever the number of passes. Throughput is the checked share of the
    items over the time of one such pass."""
    pass_s = sum(s for s, _ in medians.values())
    pass_items = sum(n for _, n in medians.values())
    latencies = [1e3 * s / n for s, n in medians.values() if n]
    return {
        "items_per_s": (good_share * pass_items / pass_s, "1/s"),
        "item_ms_p50": (quantile(latencies, 50), "ms"),
        "item_ms_p90": (quantile(latencies, 90), "ms"),
        "ref_digits": (ref_digits, "digits"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "setup_s": (statistics.median(setups), "s"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be nonnegative and --seconds positive")
    if not (SRC / "gridtrade" / "__init__.py").is_file():
        print(f"no gridtrade sources under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import gridtrade
    import tracing
    import workloads

    if Path(gridtrade.__file__).resolve().parent != SRC / "gridtrade":
        print(f"imported gridtrade from {gridtrade.__file__}, not {SRC}", file=sys.stderr)
        return 2
    bound = tracing.bindings()

    with tempfile.TemporaryDirectory(prefix=".bench-tmp-", dir=ROOT) as tmp:
        wl, setups = set_up(workloads.WORKLOADS[args.workload], args.seed, Path(tmp),
                            1 if args.trace else SETUPS)
        live = tracing.live_wrappers(bound)
        if live:
            raise RuntimeError(f"tracing wrappers live before an untraced run: {live}")
        untraced = run_for(wl, args.seconds)
        outcomes = [untraced]
        if args.trace:
            tracer = tracing.Tracer()
            tracer.install(bound)
            try:
                traced = run_for(wl, 0.0, min_steps=wl.steps_per_pass, tracer=tracer)
            finally:
                tracer.restore()
            live = tracing.live_wrappers(bound)
            if live:
                raise RuntimeError(f"tracing wrappers not restored: {live}")
            outcomes.append(traced)
        attempted, failed, gaps = check_all(wl, outcomes)

    medians = untraced.medians(wl.steps_per_pass)
    info = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "env": environment(), "steps": len(untraced.wall), "items": sum(untraced.items),
            "distinct_steps": len(medians),
            "wall_items_per_s": sum(untraced.items) / sum(untraced.wall),
            "speed_factor": sum(untraced.seconds) / sum(untraced.wall)}
    if not args.trace:
        ref_digits = min(map(workloads.digits, gaps)) if gaps else 0.0
        metrics = end_to_end(medians, 1.0 - failed / attempted, ref_digits, setups)
    else:
        metrics = tracer.layer_metrics()
        # Traced over untraced time of the same steps, each untraced step
        # taken at its median.
        seen = [j for j in range(len(traced.seconds)) if j in medians]
        metrics["trace.overhead_ratio"] = (
            sum(traced.seconds[j] for j in seen) / sum(medians[j][0] for j in seen), "ratio")
        outdir = ROOT / ".bench_out"
        outdir.mkdir(exist_ok=True)
        spans_path = outdir / f"trace-{args.workload}-seed{args.seed}.jsonl"
        spans_path.write_text("".join(json.dumps(r) + "\n" for r in tracer.records()))
        info.update(traced_items=sum(traced.items), spans=str(spans_path.relative_to(ROOT)))

    print(json.dumps(info))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
