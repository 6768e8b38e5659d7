#!/usr/bin/env python3
"""bundleobs benchmark: seeded scenario workloads through ``cli.run_scenario``.

Run from the repository root:

    python3 perfbench/run.py --workload attitude_track --seed 1 --seconds 30 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The load, the output
checks, the calibration and the metrics are defined in ``README.md``; the
workloads and why they were chosen in ``workloads.py``.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

SETUP_REPEATS = 9
SETUP_CODE = (
    "import sys\n"
    "from pathlib import Path\n"
    "from bundleobs import cli\n"
    "for p in sys.argv[1:]:\n"
    "    cli.parse_scenario(Path(p))\n"
)
TAYLOR_ANGLE = 1e-6  # small-angle branch threshold of groups.exp

# The machine's momentary speed, read from a fixed loop of the same kind of
# work as the library (Python calls and small numpy operations).  On a shared
# host the speed of the benchmark's core swings by up to 2x within seconds;
# every timing is scaled by CAL_SECONDS / (the loop's time measured around
# it), so timings read as on the machine at its reference speed.
CAL_ITERS = 1000
CAL_SECONDS = 5e-3  # reference loop time; the loop read 3.3 to 10 ms where this was built
SEGMENT_SECONDS = 0.25  # longest stretch of a scenario run between two calibrations
_CAL_A = np.eye(4)
_CAL_V = np.ones(3)


def calibration_loop() -> float:
    """Median wall seconds of three runs of the fixed calibration loop."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        for _ in range(CAL_ITERS):
            _CAL_A @ _CAL_A
            np.linalg.norm(_CAL_V)
            np.array([0.0, 1.0, 2.0])
            sum(range(10))
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


REPORT_KEYS = {
    "attitude": ("final_Ve", "final_error_angle_rad"),
    "slam_continuous": ("final_Ve", "final_error_twist_norm"),
    "slam_discrete": ("final_Ve", "max_recovery_error"),
    "sphere_split_demo": ("final_Ve", "max_split_residual"),
}

# Functions called inside the integrator's step loop: calls_per_step and us.
STEP_FUNCS = (
    "groups.GroupElement", "groups.exp", "groups.compose", "groups.inverse",
    "groups.project_to_group",
    "actions.act", "actions.Point",
    "observer.zeta_e", "observer.zeta_e_numeric", "observer.preobserver_split_rate",
    "observer.group_error", "observer.error_cost",
    "systems.attitude_zeta_e", "systems.measure_attitude", "systems.measure_landmarks",
)
# Functions called per output row after integration: calls_per_row and us.
ROW_FUNCS = ("systems.slam_discrete_recover", "bundle.givens_section", "bundle.sphere_split")


class Meter:
    """Calibrated wall time.

    Measured time is cut into segments, at most ``segment_seconds`` long
    inside a scenario run, by calibration loops whose own time is left out.
    A segment's wall time and its step intervals are scaled by
    ``2 * CAL_SECONDS`` over the sum of the two loop times around it.
    """

    def __init__(self, segment_seconds: float):
        self.segment_seconds = segment_seconds
        self.cal = calibration_loop()
        self.seg_start = time.perf_counter()
        self.pending: list[float] = []  # raw step intervals of the open segment
        self.intervals: list[float] = []  # calibrated step intervals
        self.seconds = 0.0  # calibrated seconds of closed segments
        self.speed: list[float] = []  # scale factor of each segment

    def start(self) -> None:
        self.seg_start = time.perf_counter()

    def checkpoint(self, now: float | None = None) -> float:
        """Close the open segment at ``now`` (default: the current time),
        calibrate, and open the next one; returns when it opened."""
        end = time.perf_counter() if now is None else now
        cal = calibration_loop()
        scale = 2 * CAL_SECONDS / (self.cal + cal)
        self.cal = cal
        self.speed.append(scale)
        self.seconds += (end - self.seg_start) * scale
        self.intervals += [x * scale for x in self.pending]
        self.pending.clear()
        self.seg_start = time.perf_counter()
        return self.seg_start

    def step(self, now: float, interval: float | None) -> float:
        """A sample read at ``now``, ``interval`` after the one before.
        Returns the time the next interval starts from."""
        if interval is not None:
            self.pending.append(interval)
        if now - self.seg_start >= self.segment_seconds:
            return self.checkpoint(now)
        return now


def _fail_setup(msg: str) -> int:
    print(f"perfbench: {msg}", file=sys.stderr)
    return 2


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _source_digest() -> str:
    """Digest of the library and benchmark sources, which fix outputs and counts."""
    h = hashlib.sha256()
    for path in sorted([*(SRC / "bundleobs").glob("*.py"), *HERE.glob("*.py")]):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def measure_setup(paths: list[Path]) -> list[float]:
    """Calibrated wall seconds from a fresh interpreter to ``bundleobs.cli``
    imported and every scenario parsed; one untimed warm-up run fills the
    bytecode cache.  The child shares the parent's core."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, "-c", SETUP_CODE, *map(str, paths)]
    calibrated = []
    cal = calibration_loop()
    for i in range(SETUP_REPEATS + 1):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, env=env, capture_output=True, timeout=60, check=False)
        dt = time.perf_counter() - t0
        if proc.returncode != 0:
            raise RuntimeError(f"setup run failed: {proc.stderr.decode(errors='replace')}")
        cal_before, cal = cal, calibration_loop()
        if i:
            calibrated.append(dt * 2 * CAL_SECONDS / (cal_before + cal))
    return calibrated


class Probes:
    """Counters computed from the arguments of traced calls."""

    def __init__(self):
        self.exp_calls = 0
        self.exp_taylor = 0
        self.drift_max = 0.0
        self.zeta_calls = 0
        self.zeta_unique = 0
        self._zeta_keys: set[bytes] = set()

    def new_scenario(self):
        self._zeta_keys = set()

    def exp(self, zeta):
        self.exp_calls += 1
        self.exp_taylor += bool(np.linalg.norm(zeta.vec[-3:]) < TAYLOR_ANGLE)

    def project_to_group(self, m, kind):
        block = np.asarray(m, dtype=float)[:3, :3]
        self.drift_max = max(self.drift_max, float(np.linalg.norm(block.T @ block - np.eye(3))))

    def zeta_e(self, prob, g_est, y):
        parts = y.value if isinstance(y.value, tuple) else (y.value,)
        key = g_est.matrix.tobytes() + b"".join(np.asarray(v).tobytes() for v in parts)
        self.zeta_calls += 1
        if key not in self._zeta_keys:
            self._zeta_keys.add(key)
            self.zeta_unique += 1

    def by_span(self) -> dict:
        return {"groups.exp": self.exp, "groups.project_to_group": self.project_to_group,
                "observer.zeta_e": self.zeta_e}


def _report(path: Path) -> dict:
    out = {}
    for line in path.read_text().splitlines():
        key, _, value = line.partition(": ")
        out[key] = value
    return out


def check_first(scen: dict, out_dir: Path, workload: str) -> tuple[list[str], dict]:
    """Full output checks for a scenario's first run.

    Returns (problems, facts) where facts holds rows, hashes and the Ve column.
    """
    name, system = scen["name"], scen["system"]
    csv_path = out_dir / f"{name}_trajectory.csv"
    rep_path = out_dir / f"{name}_report.txt"
    problems: list[str] = []
    if not (csv_path.is_file() and rep_path.is_file()):
        return [f"{name}: missing output files"], {"rows": 0}
    lines = csv_path.read_text().splitlines()
    rows = len(lines) - 1
    facts = {"rows": rows, "csv_sha256": _sha256(csv_path), "report_sha256": _sha256(rep_path)}
    if rows != workloads.expected_rows(scen):
        problems.append(f"{name}: {rows} rows, expected {workloads.expected_rows(scen)}")
    report = _report(rep_path)
    try:
        values = {k: float(report[k]) for k in REPORT_KEYS[system]}
        verdict = report["Ve_monotone_nonincreasing"]
    except (KeyError, ValueError) as exc:
        return problems + [f"{name}: report does not parse ({exc!r})"], facts
    if not all(np.isfinite(v) for v in values.values()) or verdict not in ("yes", "no"):
        problems.append(f"{name}: non-finite or malformed report values")
    ve = np.array([float(line.rsplit(", ", 2)[1]) for line in lines[1:]])
    facts["Ve"] = ve
    if system in ("attitude", "slam_continuous") and scen["noise"] == 0.0:
        frac = workloads.CONVERGENCE_FRACTION[workload]
        if verdict != "yes":
            problems.append(f"{name}: Ve not monotone non-increasing")
        if not ve[-1] < frac * ve[0]:
            problems.append(f"{name}: final Ve {ve[-1]:.3e} not below {frac} x initial {ve[0]:.3e}")
    if system == "slam_discrete" and scen["noise"] == 0.0:
        if not values["max_recovery_error"] <= workloads.RECOVERY_TOL:
            problems.append(f"{name}: max_recovery_error {values['max_recovery_error']:.3e}")
    if system == "sphere_split_demo":
        if not values["max_split_residual"] <= workloads.SPLIT_TOL:
            problems.append(f"{name}: max_split_residual {values['max_split_residual']:.3e}")
    return problems, facts


class Run:
    """One benchmark invocation: passes over the workload's scenarios."""

    def __init__(self, cli, workload, paths, autonomy_groups, out_dir, meter):
        self.cli = cli
        self.meter = meter
        # parsed before any tracing, so the checks add no traced calls
        self.scenarios = {p.stem: cli.parse_scenario(p) for p in paths}
        self.workload = workload
        self.paths = paths
        self.autonomy_groups = autonomy_groups
        self.out_dir = out_dir
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.first: dict[str, dict] = {}
        # per scenario: calibrated seconds of each run
        self.seconds: dict[str, list[float]] = {p.stem: [] for p in paths}
        self.step_samples = 0
        # per percentile: the calibrated value of each pass, in µs
        self.pass_percentiles: dict[int, list[float]] = {50: [], 90: []}
        self.pass_seconds: list[float] = []  # wall seconds of each pass

    def _run_one(self, path: Path) -> int:
        before = self.meter.seconds
        self.meter.start()
        try:
            rc = self.cli.run_scenario(path, self.out_dir)
        except Exception:  # a traceback is a failed run, not a crashed benchmark
            traceback.print_exc(file=sys.stderr)
            rc = -1
        self.meter.checkpoint()
        self.seconds[path.stem].append(self.meter.seconds - before)
        return rc

    def one_pass(self, probes: Probes | None) -> None:
        failed_names = set()
        t0 = time.perf_counter()
        for path in self.paths:
            if probes is not None:
                probes.new_scenario()
            rc = self._run_one(path)
            self.attempted += 1
            name = path.stem
            problems = [] if rc == 0 else [f"{name}: exit code {rc}"]
            if name not in self.first:
                found, facts = check_first(self.scenarios[name], self.out_dir, self.workload)
                problems += found
                self.first[name] = facts
            else:
                facts = self.first[name]
                for kind, suffix in (("csv_sha256", "_trajectory.csv"),
                                     ("report_sha256", "_report.txt")):
                    out = self.out_dir / f"{name}{suffix}"
                    if not out.is_file() or _sha256(out) != facts.get(kind):
                        problems.append(f"{name}: {suffix} differs from the first run")
            if problems:
                failed_names.add(name)
                self.problems += problems
        if not self.pass_seconds:
            failed_names |= self._check_autonomy()
        self.failed += len(failed_names)
        self.pass_seconds.append(time.perf_counter() - t0)
        # keep percentiles, not samples, so memory does not grow with passes
        intervals = self.meter.intervals
        if intervals:
            for q, values in self.pass_percentiles.items():
                values.append(float(np.percentile(intervals, q)) * 1e6)
        self.step_samples += len(intervals)
        intervals.clear()

    @property
    def passes(self) -> int:
        return len(self.pass_seconds)

    @property
    def pass_rows(self) -> int:
        return sum(f["rows"] for f in self.first.values())

    def step_us(self, q: int) -> float | None:
        """Median over passes of the q-th percentile of a pass's step
        intervals (every pass runs the same steps)."""
        values = self.pass_percentiles[q]
        return statistics.median(values) if values else None

    def steps_per_s(self) -> float:
        """Rows of one pass per second of a median pass, in which each
        scenario takes the median of its calibrated run times."""
        return self.pass_rows / sum(statistics.median(v) for v in self.seconds.values())

    def _check_autonomy(self) -> set:
        bad = set()
        for group in self.autonomy_groups:
            cols = [self.first[n].get("Ve") for n in group]
            if any(c is None for c in cols) or len({c.shape for c in cols}) != 1:
                bad |= set(group)
                continue
            worst = max(float(np.max(np.abs(c - cols[0]))) for c in cols[1:])
            if not worst <= workloads.AUTONOMY_TOL:
                bad |= set(group)
                self.problems.append(f"{group}: Ve columns differ by {worst:.3e}")
        return bad

    def hashes(self) -> dict:
        return {n: f.get("csv_sha256", "") for n, f in sorted(self.first.items())}


def _manifest_check(path: Path, key: str, current: dict, problems: list[str]) -> None:
    """Compare ``current`` with what an earlier run of the same program,
    workload and seed stored under ``key``; store it if absent."""
    stored = json.loads(path.read_text()) if path.is_file() else {}
    if key in stored and stored[key] != current:
        problems.append(f"{key} differ from an earlier run of the same seed")
    stored.setdefault(key, current)
    path.write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n")


def layer_metrics(tracer: spans.Tracer, probes: Probes, clock: spans.StepClock,
                  rows: int, speed: float) -> dict:
    """Per-layer metrics; times are calibrated by the run's median ``speed``."""
    s = tracer.summary()
    zero = {"calls": 0, "step_calls": 0, "self_s": 0.0, "total_s": 0.0}
    steps = clock.steps
    m = {}

    def us(name):
        e = s.get(name, zero)
        return e["self_s"] / e["calls"] * 1e6 * speed if e["calls"] else 0.0

    for name in STEP_FUNCS:
        m[f"{name}.calls_per_step"] = (s.get(name, zero)["step_calls"] / steps, "1/step")
        m[f"{name}.us"] = (us(name), "us")
    for name in ROW_FUNCS:
        m[f"{name}.calls_per_row"] = (s.get(name, zero)["calls"] / rows, "1/row")
        m[f"{name}.us"] = (us(name), "us")
    m["integrate.step.us"] = (
        s.get("integrate.integrate_system", zero)["self_s"] / steps * 1e6 * speed, "us")
    m["cli.parse_scenario.us"] = (us("cli.parse_scenario"), "us")
    m["cli.write_csv.us_per_row"] = (
        s.get("cli.write_csv", zero)["self_s"] / rows * 1e6 * speed, "us")
    traced_wall = s["cli.run_scenario"]["total_s"]
    for layer in spans.LAYERS:
        share = sum(e["self_s"] for n, e in s.items() if n.startswith(layer + "."))
        m[f"{layer}.self_share"] = (share / traced_wall, "frac")
    m["groups.exp.taylor_frac"] = (
        probes.exp_taylor / probes.exp_calls if probes.exp_calls else 0.0, "frac")
    m["groups.project_to_group.drift_max"] = (probes.drift_max, "norm")
    m["observer.zeta_e.unique_frac"] = (
        probes.zeta_unique / probes.zeta_calls if probes.zeta_calls else 0.0, "frac")
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        return _fail_setup("--seconds must be positive")
    if not (SRC / "bundleobs" / "cli.py").is_file():
        return _fail_setup(f"library sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    try:
        from bundleobs import cli, integrate
    except ImportError as exc:
        return _fail_setup(f"cannot import bundleobs: {exc}")

    # one core for the run and its set-up children, so the calibration loop
    # times the core the measured work runs on
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    run_dir = WORK / f"run-{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    try:
        return _bench(args, cli, integrate, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def _bench(args, cli, integrate, run_dir: Path) -> int:
    paths, autonomy_groups = workloads.generate(args.workload, args.seed, run_dir / "scn")
    out_dir = run_dir / "out"
    out_dir.mkdir(parents=True)
    setup = [] if args.trace else measure_setup(paths)

    # a traced run calibrates only between scenario runs: a loop inside one
    # would be charged to the span around it
    meter = Meter(float("inf") if args.trace else SEGMENT_SECONDS)
    clock = spans.StepClock(meter)
    run = Run(cli, args.workload, paths, autonomy_groups, out_dir, meter)
    clock.install(integrate)
    tracer = probes = None
    if args.trace:
        modules = {layer: sys.modules[f"bundleobs.{layer}"] for layer in spans.LAYERS}
        tracer, probes = spans.Tracer(), Probes()
        tracer.install(modules, probes.by_span())
        clock.tracer = tracer

    pass_counts = []
    t_start = time.perf_counter()
    # whole passes, at least two; stop at the pass boundary nearest --seconds
    while run.passes < 2 or (time.perf_counter() - t_start
                             + 0.5 * statistics.mean(run.pass_seconds) < args.seconds):
        mark = len(tracer.name_id) if tracer else 0
        run.one_pass(probes)
        if tracer:
            ids = np.array(tracer.name_id[mark:], dtype=np.int32)
            pass_counts.append(np.bincount(ids, minlength=len(tracer.names)).tolist())

    WORK.mkdir(exist_ok=True)
    manifest = WORK / f"manifest-{args.workload}-{args.seed}-{_source_digest()[:16]}.json"
    _manifest_check(manifest, "csv_sha256", run.hashes(), run.problems)
    if tracer:
        if any(c != pass_counts[0] for c in pass_counts):
            run.problems.append("traced call counts differ between passes")
        counts = dict(zip(tracer.names, pass_counts[0]))
        _manifest_check(manifest, "calls_per_pass", counts, run.problems)
        np.savez(WORK / f"spans-{args.workload}.npz", names=np.array(tracer.names),
                 **tracer.arrays())

    rows = run.pass_rows * run.passes
    facts = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "cores": os.cpu_count(), "python": platform.python_version(),
        "numpy": np.__version__, "passes": run.passes,
        "scenario_runs": run.attempted, "rows": rows, "step_samples": run.step_samples,
        "setup_samples": len(setup),
        "pass_steps_per_s": [round(run.pass_rows / s, 1) for s in run.pass_seconds],
        "speed_median": statistics.median(meter.speed),
        "speed_range": [min(meter.speed), max(meter.speed)],
    }
    if args.trace:
        metrics = layer_metrics(tracer, probes, clock, rows, statistics.median(meter.speed))
        metrics["traced.steps_per_s"] = (run.steps_per_s(), "1/s")
    else:
        metrics = {
            "steps_per_s": (run.steps_per_s(), "1/s"),
            "step_us_p50": (run.step_us(50), "us"),
            "step_us_p90": (run.step_us(90), "us"),
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        }
    failed_frac = run.failed / run.attempted
    correct = run.failed == 0 and not run.problems

    for key, value in facts.items():
        print(f"# {key}: {value}")
    for name, sha in run.hashes().items():
        print(f"# sha256 {name}_trajectory.csv {sha}")
    for problem in run.problems:
        print(f"# FAILED {problem}")
    for name, (value, unit) in metrics.items():
        print(f"{name:<48} {value:>16.6g} {unit}")
    print(f"{'failed_frac':<48} {failed_frac:>16.6g} frac ({run.failed}/{run.attempted})")
    result = {
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
