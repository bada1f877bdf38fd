"""One fresh interpreter running one workload: a cold pass, then warm passes.

Started by run.py; writes its measurements as JSON to ``--result``.
setup is the time for ``import potflow`` plus the cold first pass, from
this interpreter's first statement.  With ``--traced 1`` the layer
wrappers are installed before the cold pass and every pass is traced.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import cmath  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def reference_loop(ring) -> float:
    """Wall time of a fixed workload shaped like potflow's inner loops
    (scalar complex arithmetic and math calls, plus small numpy reductions
    over ``ring``), a probe of the machine's current speed."""
    import numpy as np
    t0 = time.perf_counter()
    acc = 0j
    for i in range(12000):
        z = complex(i % 97, 1.0) * 0.01
        acc += cmath.exp(1j * z) / (1 + abs(z)) + math.log(1 + abs(z))
        if i % 4 == 0:
            acc += float(np.sum(np.log(np.abs(z - ring))))
    return time.perf_counter() - t0


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--budget", type=float, required=True,
                    help="seconds of warm passes (at least one pass runs)")
    ap.add_argument("--traced", type=int, default=0)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--spans", default=None, help="gzip CSV of the last traced pass")
    args = ap.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    import potflow
    import potflow.cli
    import_s = time.perf_counter() - T_START
    if not Path(potflow.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"potflow imported from {potflow.__file__}, not {ROOT / 'src'}")

    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import tracing
    import workloads

    wl = workloads.make(args.workload, args.seed, Path(args.workdir))
    tracer = None
    if args.traced:
        tracer = tracing.Tracer()
        tracer.install(potflow)

    import numpy as np            # loaded by potflow already
    ring = np.exp(2j * np.pi * np.arange(64) / 64)
    refs = []                     # reference-loop times
    prev_wall = [0.0]

    def one_pass() -> dict:
        # before each pass, reference loops for 10% of the previous pass's time
        spent = 0.0
        while not spent or spent < 0.1 * prev_wall[0]:
            refs.append(reference_loop(ring))
            spent += refs[-1]
        if tracer is not None:
            tracer.reset()
            hits0, misses0 = tracer.cache_info()
        counting = (warnings.catch_warnings(record=True) if tracer is not None
                    else contextlib.nullcontext())
        with counting as caught:
            if tracer is not None:
                warnings.simplefilter("always")
            t0 = time.perf_counter()
            outputs = wl.run(potflow)
            wall = time.perf_counter() - t0
        prev_wall[0] = wall
        rec = {"wall_s": wall}
        if tracer is not None:
            tracer.count_warnings(caught)
            hits1, misses1 = tracer.cache_info()
            rec["layers"] = tracer.layer_metrics((hits1 - hits0, misses1 - misses0))
        v = wl.validate(outputs)
        rec.update(attempted=v.attempted, failed=v.failed, digest=v.digest,
                   detail=v.detail)
        if args.workload == "point-queries":
            rec["latencies_us"] = [ns / 1000.0 for ns in wl.latencies_ns]
        return rec

    cold = one_pass()
    setup_s = import_s + cold["wall_s"]
    # start another pass only while it is expected to end within the budget
    warm = [one_pass()]
    t_warm = time.perf_counter() - warm[0]["wall_s"]
    while time.perf_counter() - t_warm + warm[-1]["wall_s"] <= args.budget:
        warm.append(one_pass())
    if tracer is not None and args.spans:
        tracer.write_spans(Path(args.spans))

    result = {"refs": refs, "import_s": import_s, "setup_s": setup_s,
              "cold": cold, "warm": warm,
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
