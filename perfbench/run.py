"""The kostka benchmark: seeded closed-loop request streams with checked outputs.

    python3 perfbench/run.py --workload rays --seed 1 --seconds 10 --trace 0

One client, one thread, closed loop: each request (``kostka.cli.main`` run
in-process with stdout captured, or a library cross-check) starts when the
previous one has returned.  Requests come in whole blocks of a fixed mix
(see ``workloads``).  A run is a fixed number of blocks, the fewest that
take at least ``--seconds`` of timed work for the seed program at the
reference speed (``workloads.BLOCK_SECONDS``) and hold at least MIN_ITEMS
requests, so a seed gives the same requests however fast the host is at
the moment and however fast the program has become.  Every output is
checked right after its request, outside the timed region.

Timings (latencies, rates and ``setup_s``) are reported at a fixed
reference host speed, measured with a calibration loop that runs between
the requests and in each set-up interpreter (see ``hostspeed``), so a shared
host's changes of speed do not show as changes of the program.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the same
requests untraced, then again with spans around every call into kostka's
modules, and prints the per-layer metrics.  Human-readable lines come
first; the last line of stdout is one JSON object.

A request fails if it raises, exits through SystemExit, exits non-zero
where success is required (refusals included), prints an output that fails
its check, or reports that its own oracle disagrees (``oracle: MISMATCH``).
``failed`` counts them against ``attempted``.  ``correct`` is false if any
output failed a check, that is if the program gave a wrong answer without
saying so, or if traced outputs differ from untraced ones.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

import checks
import hostspeed
import workloads
from spans import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
MIN_ITEMS = 100           # p90 then has at least 10 samples beyond it
SETUP_REPS = 10           # timed fresh interpreters per run, after one warm-up
# wall-time guards from process start: the whole run must end within 180 s
STOP_WALL_S = 100.0       # no new block after this (half of it when tracing follows)
ABORT_WALL_S = 160.0      # stop mid-request-stream after this
T0 = perf_counter()

END_TO_END = {  # name: unit
    "items_per_s": "1/s", "rows_per_s": "1/s", "latency_p50_ms": "ms",
    "latency_p90_ms": "ms", "peak_rss_mb": "MB", "setup_s": "s",
}

# per-layer metric: (unit, span names or counter); "calls:"/"self:" sum over spans
PER_LAYER = {
    "linalg.solve_unique.calls": ("count", "calls:linalg.solve_unique"),
    "linalg.solve_unique.self_s": ("s", "self:linalg.solve_unique"),
    "linalg.solve_unique.n3": ("count", "count:linalg.solve_unique.n3"),
    "linalg.solve_unique.failed": ("count", "count:linalg.solve_unique.failed"),
    "linalg.det.calls": ("count", "calls:linalg.det"),
    "linalg.det.self_s": ("s", "self:linalg.det"),
    "linalg.invert.calls": ("count", "calls:linalg.invert"),
    "linalg.invert.self_s": ("s", "self:linalg.invert"),
    "linalg.rank.calls": ("count", "calls:linalg.rank"),
    "linalg.rank.self_s": ("s", "self:linalg.rank"),
    "cone.is_extremal_ray.calls": ("count", "calls:cone.is_extremal_ray"),
    "cone.is_extremal_ray.self_s": ("s", "self:cone.is_extremal_ray"),
    "cone.cone_inequalities.calls": ("count", "calls:cone.cone_inequalities"),
    "cone.cone_inequalities.self_s": ("s", "self:cone.cone_inequalities"),
    "cone.cone_contains.self_s": ("s", "self:cone.cone_contains"),
    "cone.vertex.calls": ("count", "calls:cone.vertex"),
    "cone.vertex.self_s": ("s", "self:cone.vertex"),
    "cone.polytope_vertices.self_s": ("s", "self:cone.polytope_vertices"),
    "cone.vertices.emitted": ("count", "count:cone.vertices.emitted"),
    "cone.vertex.useful_ratio": ("ratio", None),
    "cone.rays_for_node.self_s": ("s", "self:cone.rays_for_node"),
    "cone.rays.emitted": ("count", "count:cone.rays.emitted"),
    "rootdata.connected_subsets.self_s": ("s", "self:rootdata.connected_subsets_containing"),
    "rootdata.connected_subsets.out": ("count", "count:rootdata.connected_subsets.out"),
    "rootdata.coords.calls": ("count", "calls:rootdata.fw_to_root_coords,rootdata.root_coords_to_fw"),
    "rootdata.coords.self_s": ("s", "self:rootdata.fw_to_root_coords,rootdata.root_coords_to_fw"),
    "rootdata.root_system.self_s": ("s", "self:rootdata.root_system"),
    "weyl.orbit.calls": ("count", "calls:weyl.orbit"),
    "weyl.orbit.points": ("count", "count:weyl.orbit.points"),
    "weyl.orbit.self_s": ("s", "self:weyl.orbit"),
    "weyl.parabolic_average.self_s": ("s", "self:weyl.parabolic_average"),
    "oracle.table_build.self_s": ("s", "self:oracle.table_build"),
    "oracle.multiplicity.calls": ("count", "calls:oracle.multiplicity"),
    "oracle.multiplicity.self_s": ("s", "self:oracle.multiplicity"),
    "oracle.brute_force_vertices.self_s": ("s", "self:oracle.brute_force_vertices"),
    "oracle.disagreements": ("count", "count:oracle.disagreements"),
    "levi.induce.calls": ("count", "calls:levi.induce"),
    "levi.induce.self_s": ("s", "self:levi.induce"),
    "levi.levi_root_coords.self_s": ("s", "self:levi.levi_root_coords"),
    "cli.main.calls": ("count", "calls:cli.main"),
    # the whole cli module: parsing, dispatch and Fraction rendering
    "cli.main.self_s": ("s", "self:cli.*"),
    "cli.stdout_bytes": ("bytes", None),
    "trace.overhead_ratio": ("ratio", None),
    "trace.items": ("count", None),
}

# the set-up, then the host's speed in the same interpreter (see hostspeed)
SETUP_CODE = """\
import statistics, sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import kostka.cli
for spec in sys.argv[2].split():
    kostka.root_system(spec[0], int(spec[1:]))
dt = time.perf_counter() - t0
sys.path.insert(0, sys.argv[3])
import hostspeed
print(repr(dt), repr(statistics.mean(hostspeed.sample() for _ in range(15))))
"""


def load_kostka():
    """Import kostka from this checkout's src, refusing any other copy."""
    if not (SRC / "kostka" / "__init__.py").is_file():
        sys.exit(f"error: no kostka sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import kostka.cli
    if Path(kostka.__file__).resolve().parent != SRC / "kostka":
        sys.exit(f"error: imported kostka from {kostka.__file__}, not {SRC}")
    return kostka


def time_setup(workload: str, reps: int) -> list[tuple[float, float]]:
    """Times, in fresh interpreters, to import kostka.cli (the CLI's entry
    point, which imports the package) and build every root system the
    workload uses; each with the scale to reference speed measured in the
    same interpreter right after."""
    specs = " ".join(f"{letter}{r}" for letter, r in workloads.root_systems(workload))
    times = []
    for _ in range(reps):
        proc = subprocess.run([sys.executable, "-I", "-c", SETUP_CODE, str(SRC), specs, str(HERE)],
                              cwd=ROOT, capture_output=True, text=True, timeout=60, check=True)
        dt, cal = map(float, proc.stdout.split())
        times.append((dt, hostspeed.REF_S / cal))
    return times


def execute(kostka, item):
    """Run one request; returns (exit code, stdout, library result)."""
    if item.kind == "lib":
        rs = kostka.root_system(item.letter, item.rank)
        sub = item.params[0]
        if sub == "average":
            _, lam, nodes = item.params
            return 0, "", (kostka.parabolic_average(rs, lam, nodes), kostka.vertex(rs, lam, nodes))
        if sub == "polytope":
            lam = item.params[1]
            return 0, "", (kostka.polytope_vertices(rs, lam), kostka.brute_force_vertices(rs, lam))
        _, levi, lam, mu, mid = item.params
        pair = kostka.LeviWeightPair(levi, lam, mu)
        return 0, "", (kostka.induce(rs, pair), kostka.induction_composes(rs, pair, mid))
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            rc = kostka.cli.main(list(item.argv))
        except SystemExit as exc:  # argparse exits past main's handler
            rc = f"SystemExit({exc.code})"
    return rc, out.getvalue(), None


def run_one(kostka, item, tracer=None):
    """Time one request; returns (seconds, rc, stdout, result, error)."""
    rc = out = result = error = None
    t0 = perf_counter()
    try:
        if tracer is None:
            rc, out, result = execute(kostka, item)
        else:
            rc, out, result = tracer.span("request", execute, kostka, item)
    except Exception as exc:  # a crashing request is a failed request, not a crashed run
        error = f"{type(exc).__name__}: {exc}"
    return perf_counter() - t0, rc, out, result, error


def digest(out, result) -> str:
    return hashlib.sha1((out + repr(result)).encode()).hexdigest()


class Pass:
    """Records of one pass over a stream.  Requests and output digests are
    kept only when a traced pass replays them, so an untraced run holds
    the same few records however many requests it makes."""

    def __init__(self, keep: bool):
        self.keep = keep
        self.n = 0
        self.items = []
        self.digests = []
        self.starts = []  # perf_counter() at the start of each request
        self.latency = []  # measured seconds
        self.rows = 0
        self.failed = Counter()  # failure kind: count
        self.examples = []  # (item, reason) of the first failures
        self.wrong = 0  # requests whose output failed a check
        self.stdout_bytes = 0
        self.timed = 0.0
        self.speed = hostspeed.Meter()

    def add(self, item, start, dt, out, result, rows=0, error=None):
        """Record one request, then keep the host-speed samples up with it."""
        self.n += 1
        self.starts.append(start)
        self.latency.append(dt)
        self.timed += dt
        self.speed.keep_up(self.timed)
        self.rows += rows
        if self.keep:
            self.items.append(item)
            self.digests.append(digest(out or "", result))
        if error is not None:
            self.failed[error.split(":")[0]] += 1
            if len(self.examples) < 3:
                self.examples.append((item, error))

    def reference_s(self) -> list[float]:
        """Request times at the reference host speed (see hostspeed)."""
        return self.speed.reference_s(self.starts, self.latency)


def untraced_pass(kostka, workload: str, seed: int, seconds: float, stop_at: float,
                  keep: bool) -> Pass:
    p = Pass(keep)
    n_blocks = math.ceil(seconds / workloads.BLOCK_SECONDS[workload])
    for index, blk in enumerate(workloads.blocks(workload, seed)):
        if index >= n_blocks and p.n >= MIN_ITEMS:
            break
        for item in blk:
            start = perf_counter()
            dt, rc, out, result, error = run_one(kostka, item)
            rows = 0
            if error is None and rc not in ((0, 1) if item.kind == "check" else (0,)):
                error = f"exit: {rc}"  # refusals (2) and SystemExit on valid requests
            if error is None:
                try:
                    rows = checks.check(item, rc, out, result)
                except checks.ReportedDisagreement as exc:
                    error = f"reported: {exc}"
                except Exception as exc:  # CheckError, or output too malformed to parse
                    error = f"wrong: {type(exc).__name__}: {exc}"
                    p.wrong += 1
            p.add(item, start, dt, out, result, rows, error)
            if perf_counter() - T0 > stop_at + 10:
                return p
        checks.R.clear_weight_caches()
        if perf_counter() - T0 > stop_at:
            break
    return p


def traced_pass(kostka, workload: str, items, tracer: Tracer) -> Pass:
    """The same requests again, traced; root systems are rebuilt under the
    tracer first so their cost is seen."""
    p = Pass(keep=True)
    kostka.rootdata.root_system.cache_clear()
    tracer.install()
    try:
        for letter, r in workloads.root_systems(workload):
            kostka.root_system(letter, r)
        for k, item in enumerate(items):
            tracer.request = k
            start = perf_counter()
            dt, rc, out, result, error = run_one(kostka, item, tracer)
            p.add(item, start, dt, out, result)
            p.stdout_bytes += len((out or "").encode())
            if perf_counter() - T0 > ABORT_WALL_S:
                break
    finally:
        tracer.uninstall()
    return p


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    s = sorted(values)
    k = max(0, -(-len(s) * q // 1) - 1)
    return s[int(k)]


def layer_metrics(tr: Tracer, untraced: Pass, traced: Pass) -> dict:
    n = len(traced.items)
    out = {}
    for name, (unit, source) in PER_LAYER.items():
        if source is None:
            continue
        kind, _, names = source.partition(":")
        if kind == "count":
            value = tr.counts[names]
        else:
            table = tr.calls if kind == "calls" else tr.self_s
            if names.endswith(".*"):
                spans = [s for s in table if s.startswith(names[:-1])]
            else:
                spans = names.split(",")
            value = sum(table[s] for s in spans)
        out[name] = value
    calls = out["cone.vertex.calls"]
    out["cone.vertex.useful_ratio"] = out["cone.vertices.emitted"] / calls if calls else 0.0
    out["cli.stdout_bytes"] = traced.stdout_bytes
    out["trace.overhead_ratio"] = (sum(untraced.reference_s()[:n])
                                   / sum(traced.reference_s()))
    out["trace.items"] = n
    return {k: {"value": v, "unit": PER_LAYER[k][0]} for k, v in out.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    kostka = load_kostka()

    setup_runs = []
    if not args.trace:
        # half of the set-up runs before the requests and half after, so they
        # sample the host's speed over the whole run; the very first run,
        # which may compile bytecode, is discarded
        setup_runs = time_setup(args.workload, SETUP_REPS // 2 + 1)[1:]
    for letter, r in workloads.root_systems(args.workload):
        kostka.root_system(letter, r)  # warm the cache: setup_s reports this cost

    p = untraced_pass(kostka, args.workload, args.seed, args.seconds,
                      STOP_WALL_S / 2 if args.trace else STOP_WALL_S, keep=bool(args.trace))
    n, failed = p.n, sum(p.failed.values())
    if not args.trace:
        setup_runs += time_setup(args.workload, SETUP_REPS - len(setup_runs))
    correct = p.wrong == 0
    timed = p.timed
    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"python={platform.python_version()} nproc={os.cpu_count()} "
          f"clients=1 threads=1 loop=closed")
    print(f"requests: {n} attempted, {failed} failed, error_rate={failed / n:.4f}; "
          f"{p.rows} rows; {timed:.3f} s timed")
    print(f"  failed requests by kind: {dict(p.failed)}")
    for item, reason in p.examples:
        print(f"  e.g. {' '.join(item.argv) or item.params[0]}: {reason}")

    if args.trace:
        tracer = Tracer()
        t = traced_pass(kostka, args.workload, p.items, tracer)
        same = t.digests == p.digests[:len(t.items)]
        correct = correct and same
        if not same:
            print("traced outputs differ from untraced outputs", file=sys.stderr)
        OUT_DIR.mkdir(exist_ok=True)
        path = OUT_DIR / f"trace-{args.workload}-{args.seed}.jsonl"
        tracer.write(path)
        metrics = layer_metrics(tracer, p, t)
        print(f"traced {len(t.items)} requests; {len(tracer.spans)} spans kept, "
              f"{tracer.dropped} dropped; spans in {path.relative_to(ROOT)}")
    else:
        latency = p.reference_s()
        setup = [dt * sc for dt, sc in setup_runs]
        values = {
            "items_per_s": n / sum(latency),
            "rows_per_s": p.rows / sum(latency),
            "latency_p50_ms": 1000 * percentile(latency, 0.5),
            "latency_p90_ms": 1000 * percentile(latency, 0.9),
            # this process also runs the checker, whose records stay a fixed size (see Pass)
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "setup_s": statistics.median(setup),
        }
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
        raw_setup = [dt for dt, _ in setup_runs]
        print(f"samples: latency {n} requests ({n - int(-(-n * 0.9 // 1))} beyond p90); "
              f"setup {len(setup_runs)} fresh interpreters")
        print(f"host speed: {len(p.speed.samples)} calibration samples; at reference speed "
              f"{sum(latency):.3f} s timed; measured p50 {1000 * percentile(p.latency, 0.5):.3f} ms, "
              f"p90 {1000 * percentile(p.latency, 0.9):.3f} ms, "
              f"setup median {statistics.median(raw_setup):.4f} s "
              f"({min(raw_setup):.4f}-{max(raw_setup):.4f} s)")
    for name, m in metrics.items():
        print(f"  {name:<36} {m['value']:>14.6g} {m['unit']}")
    print(f"  {'error_rate':<36} {failed / n:>14.6g} ratio ({failed} of {n} requests)")
    print(json.dumps({"correct": correct, "attempted": n, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
