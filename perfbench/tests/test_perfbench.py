"""Tests of the benchmark itself: span arithmetic, metric names, the
closed-form oracles, and the layer-bypass predictions at a fixed seed.

    python3 -m pytest perfbench/tests -q
"""

import cmath
import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def test_self_times_on_nested_spans():
    # A[0,10] > B[1,4] > C[2,3];  A > B[5,6];  A > C[7,9];  D[11,12] is a root
    names = ["A", "B", "C", "B", "C", "D"]
    parents = [-1, 0, 1, 0, 0, -1]
    starts = [0.0, 1.0, 2.0, 5.0, 7.0, 11.0]
    ends = [10.0, 4.0, 3.0, 6.0, 9.0, 12.0]
    got = tracing.self_times(names, parents, starts, ends)
    assert got["A"] == (1, 10.0 - 3.0 - 1.0 - 2.0, 10.0)
    assert got["B"] == (2, 2.0 + 1.0, 4.0)
    assert got["C"] == (2, 3.0, 3.0)
    assert got["D"] == (1, 1.0, 1.0)


def test_span_wrappers_record_parents():
    tr = tracing.Tracer()

    def leaf(x):
        return x + 1

    leaf_t = tr.span("leaf", leaf)

    def outer(x):
        return leaf_t(x) + leaf_t(x)

    outer_t = tr.span("outer", outer)
    assert outer_t(1) == 4
    assert tr.names == ["outer", "leaf", "leaf"]
    assert tr.parents == [-1, 0, 0]
    agg = tracing.self_times(tr.names, tr.parents, tr.starts, tr.ends)
    assert agg["outer"][1] >= 0 and agg["leaf"][0] == 2
    tr.reset()
    assert tr.names == [] and not tr.counts


def test_rk_step_counts_from_callbacks():
    import numpy as np
    from potflow import numkit

    tr = tracing.Tracer()
    rk = tr._traced_rk(numkit.rk_integrate)
    traj = rk(lambda y: 1j * y, np.array([1.0 + 0j]), 3.0, 1e-9,
              monitors={"energy": lambda y: float(abs(y[0]))},
              separation=lambda y: 1.0)
    accepted = tr.counts["numkit.rk.steps_accepted"]
    rejected = tr.counts["numkit.rk.steps_rejected"]
    assert accepted == len(traj.times) - 1
    assert tr.counts["numkit.rk.field_evals"] == 1 + 7 * (accepted + rejected)
    assert tr.names.count("vortex.guard") == accepted
    assert tr.names.count("vortex.energy") == accepted + 1


def test_tail_leaves_ten_samples_beyond():
    assert run.tail(list(range(10))) is None
    p, v = run.tail([float(i) for i in range(1, 1001)])
    assert p == 99.0 and v == 990.0
    p, v = run.tail([float(i) for i in range(20)])
    assert p == 50.0 and v == 9.0


def test_speed_scale_uses_the_median_reference_of_the_run():
    nominal = run.REF_NOMINAL_S
    workers = [{"refs": [nominal * 2, nominal * 100]}, {"refs": [nominal * 4]}]
    assert run.speed_scale(workers) == pytest.approx(0.25)


def test_benchmark_json_names_and_units():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.NAMES)
    e2e = spec["end_to_end"]
    layers = spec["per_layer"]
    names = [m["name"] for m in e2e + layers] + [w["name"] for w in spec["workloads"]]
    assert all(NAME.fullmatch(n) for n in names), [n for n in names if not NAME.fullmatch(n)]
    assert len(set(names)) == len(names)
    assert [m["name"] for m in layers] == tracing.layer_metric_names()
    for m in e2e + layers:
        assert m["unit"] == run.unit_of(m["name"])
    setup = next(m for m in e2e if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in e2e)


@pytest.mark.parametrize("key", ["disk", "half_plane", "slit_plane", "strip_1", "strip_2"])
def test_oracles_match_closed_forms(key):
    from potflow import planar_green as pg

    D = pg.DomainDescriptor
    dom = {"disk": D.disk(1.3), "half_plane": D.half_plane(),
           "slit_plane": D.slit_plane(), "strip_1": D.periodic_strip(1j),
           "strip_2": D.periodic_strip(2j)}[key]
    z, a = ((-0.3 + 0.2j, -0.1 + 0.7j) if key.startswith("strip")
            else (0.4 - 0.5j, -0.2 + 0.3j))
    if key == "half_plane":
        z, a = z.conjugate(), a
    assert abs(workloads.green_oracle(key, z, a, 1.3) - pg.green(dom, z, a)) < 1e-12
    h0, h1 = workloads.robin_oracle(key, a, 1.3)
    r = pg.robin_data(dom, a)
    assert abs(h0 - r.h0) < 1e-12 and abs(h1 - r.h1) < 1e-10


def test_point_stream_is_seeded_and_mixed():
    s1, s2 = workloads.point_query_stream(7), workloads.point_query_stream(7)
    assert s1 == s2 and s1 != workloads.point_query_stream(8)
    kinds = [q[0] for q in s1["queries"]]
    rect = sum(k.startswith("rect") for k in kinds) / len(kinds)
    assert 0.01 <= rect <= 0.05
    for key, op, z, a in s1["queries"]:
        if key.startswith("rect"):
            w, h, grid = next(g for g in workloads.RECT_GRIDS if f"rect_{g[2]}" == key)
            i, j = a.real / (w / grid), a.imag / (w / grid)
            assert abs(i - round(i)) < 1e-9 and abs(j - round(j)) < 1e-9
        if op == "green":
            assert abs(z - a) > 0.05 and not cmath.isnan(z)


def test_vortex_system_is_separated():
    vs = workloads.vortex_system(3)["vortices"]
    zs = [complex(*v["z"]) for v in vs]
    assert len(zs) == 16 and max(abs(z) for z in zs) < 0.7
    assert min(abs(p - q) for i, p in enumerate(zs) for q in zs[i + 1:]) > 0.1


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "fekete",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


@pytest.fixture(scope="module")
def traced_layers():
    """Per-layer metrics of one short traced run of every workload."""
    out = {}
    for name in workloads.NAMES:
        proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", name,
                               "--seed", "1", "--seconds", "0.1", "--trace", "1"],
                              cwd=ROOT, capture_output=True, text=True, timeout=170)
        assert proc.returncode == 0, proc.stderr[-2000:]
        result = json.loads(proc.stdout.splitlines()[-1])
        assert result["correct"] and result["failed"] == 0
        out[name] = {k: v["value"] for k, v in result["metrics"].items()}
    return out


def _calls(metrics: dict, prefix: str) -> float:
    keys = [k for k in metrics if k.startswith(prefix)
            and (k.endswith(".calls") or k.endswith("_evals") or k.endswith("_builds")
                 or ".steps_" in k)]
    assert keys
    return sum(metrics[k] for k in keys)


@pytest.mark.slow
def test_layer_bypass_predictions(traced_layers):
    for name in ("fekete", "vortex-disk"):
        assert _calls(traced_layers[name], "elliptic.") == 0, name
    for name in ("vortex-disk", "point-queries"):
        assert _calls(traced_layers[name], "equilibrium.") == 0, name
    for name in ("verify-all", "fekete", "point-queries"):
        assert _calls(traced_layers[name], "vortex.") == 0, name
    # and each layer is exercised where the benchmark says it is
    assert _calls(traced_layers["verify-all"], "elliptic.") > 0
    assert _calls(traced_layers["fekete"], "equilibrium.") > 0
    assert _calls(traced_layers["vortex-disk"], "vortex.") > 0
    assert traced_layers["vortex-disk"]["numkit.rk.steps_accepted"] > 0
    assert traced_layers["point-queries"]["planar_green.lu_factor.calls"] > 0
    assert traced_layers["verify-all"]["verify.checks"] > 0
    assert all(math.isfinite(v) for m in traced_layers.values() for v in m.values())
