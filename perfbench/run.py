"""potflow benchmark: one workload, one seed, one closed-loop client.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see workloads.py): verify-all, fekete, vortex-disk,
point-queries.  Each run starts fresh interpreters (worker.py) that import
potflow from ``src/`` of the checkout this file sits in, so RSS and
lru_cache state never leak between workloads.  BLAS/OpenMP threads are
capped at the number of usable CPUs.

--trace 0 runs three workers.  Each measures its own set-up (``import
potflow`` plus the cold first pass) and then runs warm passes; together
the warm passes fill S seconds.  Reported: pass_s (median warm pass),
setup_s (median set-up), peak_rss_mb (median ru_maxrss).  pass_s and
setup_s are wall times rescaled to a nominal machine speed (see
speed_scale); the raw wall times are in the report line.

--trace 1 runs one untraced and one traced worker for S/2 seconds each
and reports the per-layer metrics of tracing.layer_metric_names(): the
median per warm traced pass, plus trace.overhead_s, the traced minus the
untraced median pass time.  The spans of the last traced pass are written
to .perfbench/spans/.

Every operation is checked against an oracle; a pass whose output digest
differs from the run's first pass counts all its operations as failed.
The last stdout line is the result object {correct, attempted, failed,
metrics}; the line before it is a report with sample counts, tails,
error_rate and the machine description.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_WORKERS = 3
# Times are rescaled to a machine on which worker.reference_loop takes this
# long; see speed_scale.
REF_NOMINAL_S = 0.03
DEADLINE_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
TAIL_LADDER = (50.0, 90.0, 95.0, 99.0, 99.5, 99.9, 99.95, 99.99, 99.995, 99.999)


def tail(values: list[float]) -> tuple[float, float] | None:
    """(percentile, value) at the highest ladder percentile that leaves at
    least ten samples beyond it; nearest-rank quantile."""
    n = len(values)
    levels = [p for p in TAIL_LADDER if n * (1 - p / 100) >= 10]
    if not levels:
        return None
    p = levels[-1]
    return p, sorted(values)[max(math.ceil(n * p / 100) - 1, 0)]


def speed_scale(done: list[dict]) -> float:
    """Factor that rescales a run's wall times to the nominal machine speed.

    Shared hosts run the same code up to 1.5x slower for minutes at a
    time.  Before each pass a worker times a fixed reference loop for a
    tenth of the previous pass's time; the median of those times over the
    run, against REF_NOMINAL_S, tracks the machine's speed during the run.
    """
    return REF_NOMINAL_S / statistics.median(x for r in done for x in r["refs"])


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_us"):
        return "us"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith(("ratio", "per_factor")):
        return "ratio"
    return "count"


def machine(nproc: int) -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    versions = {"python": platform.python_version()}
    for pkg in ("numpy", "scipy"):
        try:
            versions[pkg] = importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            versions[pkg] = None
    return {"cpu": cpu, "nproc": nproc, **versions,
            "threads": {v: str(nproc) for v in THREAD_VARS}}


class Runner:
    def __init__(self, args):
        self.args = args
        self.nproc = len(os.sched_getaffinity(0))
        self.env = dict(os.environ, **{v: str(self.nproc) for v in THREAD_VARS})
        self.work = ROOT / ".perfbench" / "work" / \
            f"{args.workload}-s{args.seed}-p{os.getpid()}"
        self.deadline = time.monotonic() + DEADLINE_S

    def worker(self, tag: str, budget: float, traced: bool) -> dict | None:
        result = self.work / f"{tag}.json"
        cmd = [sys.executable, str(HERE / "worker.py"),
               "--workload", self.args.workload, "--seed", str(self.args.seed),
               "--budget", repr(budget), "--traced", str(int(traced)),
               "--workdir", str(self.work / tag), "--result", str(result)]
        if traced:
            cmd += ["--spans", str(ROOT / ".perfbench" / "spans" /
                                   f"{self.args.workload}-s{self.args.seed}.csv.gz")]
        timeout = max(self.deadline - time.monotonic(), 1.0)
        try:
            proc = subprocess.run(cmd, env=self.env, cwd=ROOT, stdout=sys.stderr,
                                  timeout=timeout)
        except subprocess.TimeoutExpired:      # run() has killed and reaped it
            print(f"worker {tag} timed out after {timeout:.0f} s", file=sys.stderr)
            return None
        if proc.returncode != 0 or not result.exists():
            print(f"worker {tag} exited with {proc.returncode}", file=sys.stderr)
            return None
        return json.loads(result.read_text())

    def run(self) -> tuple[dict, dict]:
        self.work.mkdir(parents=True, exist_ok=True)
        try:
            if self.args.trace:
                return self.traced()
            return self.untraced()
        finally:
            shutil.rmtree(self.work, ignore_errors=True)

    def untraced(self):
        # the warm passes of all workers together fill --seconds
        results, left = [], self.args.seconds
        for i in range(SETUP_WORKERS):
            r = self.worker(f"w{i}", left / (SETUP_WORKERS - i), False)
            results.append(r)
            if r is not None:
                left -= sum(p["wall_s"] for p in r["warm"])
        done = [r for r in results if r is not None]
        metrics, report = {}, {}
        if done:
            scale = speed_scale(done)
            raw_walls = [p["wall_s"] for r in done for p in r["warm"]]
            walls = [w * scale for w in raw_walls]
            setups = [r["setup_s"] * scale for r in done]
            rss = [r["peak_rss_mb"] for r in done]
            metrics = {"pass_s": statistics.median(walls),
                       "setup_s": statistics.median(setups),
                       "peak_rss_mb": statistics.median(rss)}
            report = {"pass_samples": len(walls), "pass_tail": tail(walls),
                      "speed_scale": scale,
                      "pass_s_raw": statistics.median(raw_walls),
                      "pass_s_raw_all": raw_walls,
                      "setup_s_raw_all": [r["setup_s"] for r in done],
                      "import_s_raw_all": [r["import_s"] for r in done],
                      "peak_rss_mb_all": rss}
            report.update(query_stats(done))
        return self.finish(results, metrics, report)

    def traced(self):
        half = self.args.seconds / 2
        plain = self.worker("plain", half, False)
        traced = self.worker("traced", half, True)
        results = [plain, traced]
        metrics, report = {}, {}
        if plain is not None and traced is not None:
            metrics = layer_report(plain, traced)
            report = {"traced_passes": len(traced["warm"]),
                      "plain_passes": len(plain["warm"])}
            report.update(query_stats([plain]))
        return self.finish(results, metrics, report)

    def finish(self, results, metrics, report):
        attempted = failed = 0
        ref = None
        for r in results:
            if r is None:                     # a lost worker is one failed operation
                attempted += 1
                failed += 1
                continue
            for p in [r["cold"], *r["warm"]]:
                ref = ref or p["digest"]
                attempted += p["attempted"]
                failed += p["attempted"] if p["digest"] != ref else p["failed"]
        report["error_rate"] = failed / attempted
        correct = failed == 0 and len(metrics) > 0
        return ({"correct": correct, "attempted": attempted, "failed": failed,
                 "metrics": metrics}, report)


def query_stats(done: list[dict]) -> dict:
    lat = [x for r in done for p in r["warm"] for x in p.get("latencies_us", ())]
    if not lat:
        return {}
    t = tail(lat)
    return {"query_samples": len(lat), "query_p50_us": statistics.median(lat),
            "query_tail": t}


def layer_report(plain: dict, traced: dict) -> dict:
    """Per-layer metrics: medians over the traced warm passes."""
    warm = traced["warm"]
    names = tracing.layer_metric_names()
    out = {}
    for name in names:
        if all(name in p["layers"] for p in warm):
            out[name] = statistics.median(p["layers"][name] for p in warm)
    cold = traced["cold"]["layers"]
    out["surface.green_constant.cold_misses"] = cold["surface.green_constant.misses"]
    out["surface.green_constant.cold_self_s"] = cold["surface.green_constant.self_s"]
    out["cli.out_bytes"] = statistics.median(p["detail"].get("out_bytes", 0) for p in warm)
    out["verify.checks"] = statistics.median(p["detail"].get("checks", 0) for p in warm)
    q = query_stats([plain])
    out["query.p50_us"] = q.get("query_p50_us", 0.0)
    out["query.tail_us"] = q["query_tail"][1] if q.get("query_tail") else 0.0
    out["trace.overhead_s"] = speed_scale([plain, traced]) * (
        statistics.median(p["wall_s"] for p in warm)
        - statistics.median(p["wall_s"] for p in plain["warm"]))
    missing = set(names) - set(out)
    if missing:
        raise RuntimeError(f"per-layer metrics not produced: {sorted(missing)}")
    return {n: out[n] for n in names}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "potflow" / "__init__.py").is_file():
        print(f"no potflow sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("--seconds must be positive", file=sys.stderr)
        return 2

    runner = Runner(args)
    result, report = runner.run()
    result["metrics"] = {k: {"value": v, "unit": unit_of(k)}
                         for k, v in result["metrics"].items()}
    report.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, client="closed loop, 1 client",
                  machine=machine(runner.nproc))
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
