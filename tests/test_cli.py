import json
import math

import numpy as np

from potflow import cli, verify


def run(argv):
    return cli.main(argv)


def test_usage_error_exit_64(capsys):
    assert run(["verify", "--suite", "bogus"]) == 64
    assert run(["fekete"]) == 64


def test_schema_error_exit_65(capsys):
    assert run(["fekete", "--domain", '{"kind":"circle","R":']) == 65
    err = capsys.readouterr().err
    assert "line" in err and "column" in err
    assert run(["fekete", "--domain", '{"kind":"nonagon"}']) == 65
    assert run(["green", "--domain", '{"kind":"disk","R":1.0}', "--a", "xx"]) == 65
    assert run(["fekete", "--domain",
                '{"kind":"domain_boundary","domain":{"kind":"half_plane"}}']) == 65
    rect = '{"kind":"rectangle","w":1,"h":1,"grid":64}'
    assert run(["fekete", "--domain", f'{{"kind":"domain_boundary","domain":{rect}}}',
                "--n-max", "8", "--pole", "0.5,0"]) == 65
    capsys.readouterr()
    disk, strip = '{"kind":"disk","R":1.0}', '{"kind":"periodic_strip","tau":[0,0.01]}'
    system = '{"vortices":[{"z":[0.1,0],"gamma":1}],"domain":{"kind":"disk","R":1}}'
    for argv in (["green", "--domain", disk, "--a=0.5,0", "--z=bad"],
                 ["green", "--domain", disk, "--a=2,0"],
                 ["green", "--domain", strip, "--a=-0.25,0.005"],
                 ["torus", "--tau", "0,0.01"], ["torus", "--tau", "0,2", "--n", "65537"],
                 ["vortex", "--system", system, "--t-end", "-1"],
                 ["vortex", "--system", system, "--tol", "1"],
                 ["fekete", "--domain", '{"kind":"circle","R":1.0}',
                  "--n-max", "100000000"]):
        assert run(argv) == 65
        err = capsys.readouterr().err
        assert err.startswith("input error:") and err.count("\n") == 1
    too_many = [{"z": [0.9 * math.cos(k), 0.9 * math.sin(k)], "gamma": 1}
                for k in range(cli.MAX_VORTICES + 1)]
    for vortices in ('[]', '[{"z":[NaN,0],"gamma":1}]',
                     '[{"z":[0.1,0],"gamma":Infinity},{"z":[0.5,0],"gamma":1}]',
                     json.dumps(too_many)):
        system = f'{{"vortices":{vortices},"domain":{{"kind":"disk","R":1}}}}'
        assert run(["vortex", "--system", system, "--t-end", "1"]) == 65
        err = capsys.readouterr().err
        assert err.startswith("input error:") and err.count("\n") == 1


def test_green_report(tmp_path, capsys):
    out = tmp_path / "green.json"
    code = run(["green", "--domain", '{"kind":"disk","R":1.0}',
                "--a", "0.5,0", "--z", "0,0", "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert abs(doc["green"] - math.log(2) / (2 * math.pi)) < 1e-12
    assert abs(doc["robin"]["h0"] - math.log(0.75)) < 1e-12


def test_fekete_run_circle(tmp_path):
    out = tmp_path / "cap"
    code = run(["fekete", "--domain", '{"kind":"circle","R":1.0}',
                "--n-max", "32", "--out", str(out)])
    assert code == 0
    report = json.loads((out / "capacity.json").read_text())
    assert abs(report["logcap"] - 1.0) < 5e-3
    csv = (out / "fekete_points.csv").read_text().splitlines()
    assert csv[0] == "n,index,re,im"
    assert len(csv) > 30


def test_fekete_segment(tmp_path):
    out = tmp_path / "seg"
    code = run(["fekete", "--domain", '{"kind":"segment","length":2.0}',
                "--n-max", "32", "--out", str(out)])
    assert code == 0
    report = json.loads((out / "capacity.json").read_text())
    assert abs(report["logcap"] - 0.5) < 2e-2


def test_fekete_report_has_newton_counters(tmp_path):
    out = tmp_path / "seg"
    assert run(["fekete", "--domain", '{"kind":"segment","length":2.0}',
                "--n-max", "16", "--out", str(out)]) == 0
    report = json.loads((out / "capacity.json").read_text())
    assert report["n_values"] == [4, 6, 8, 12, 16]
    assert len(report["newton_iterations"]) == len(report["grad_norm"]) == 5
    assert all(0 <= k < 100 for k in report["newton_iterations"])
    assert all(0.0 <= g < 1e-3 for g in report["grad_norm"])


def test_fekete_deterministic(tmp_path):
    outs = []
    for name in ("one", "two"):
        out = tmp_path / name
        run(["fekete", "--domain", '{"kind":"circle","R":1.0}',
             "--n-max", "16", "--out", str(out)])
        outs.append((out / "capacity.json").read_bytes()
                    + (out / "fekete_points.csv").read_bytes())
    assert outs[0] == outs[1]


PAIR = ('{"domain":{"kind":"plane"},"vortices":'
        '[{"z":[0,0],"gamma":1.0},{"z":[1,0],"gamma":-1.0}]}')


def test_vortex_pair_csv(tmp_path):
    out = tmp_path / "run"
    code = run(["vortex", "--system", PAIR, "--t-end", "10", "--out", str(out)])
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    z1 = complex(*summary["final_state"][0])
    assert abs(abs(z1) - 10 / (2 * math.pi)) < 1e-6
    lines = (out / "trajectory.csv").read_text().splitlines()
    assert lines[0].startswith("t,re_z1,im_z1,re_z2,im_z2,energy")
    assert summary["max_drift_energy"] < 1e-8
    assert summary["steps"] == len(lines) - 1
    assert summary["field_evals"] == 1 + 7 * (summary["steps"] - 1
                                              + summary["steps_rejected"])


def test_vortex_equal_pair_return(tmp_path):
    system = ('{"domain":{"kind":"plane"},"vortices":'
              '[{"z":[0.5,0],"gamma":1.0},{"z":[-0.5,0],"gamma":1.0}]}')
    out = tmp_path / "run"
    code = run(["vortex", "--system", system,
                "--t-end", "19.739208802178716", "--out", str(out)])
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    z1 = complex(*summary["final_state"][0])
    assert abs(z1 - 0.5) < 1e-6


def test_vortex_disk_radius_drift(tmp_path):
    system = ('{"domain":{"kind":"disk","R":1.0},"vortices":'
              '[{"z":[0.5,0],"gamma":1.0}]}')
    out = tmp_path / "run"
    code = run(["vortex", "--system", system,
                "--t-end", "29.608813203268074", "--out", str(out)])
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["max_drift_radius_0"] < 1e-9


def test_vortex_collision_exit_3(tmp_path, monkeypatch):
    from potflow import vortex
    from potflow.errors import CollisionError

    def crash(system, t_end, tol):
        raise CollisionError(0.37, 1e-12)

    monkeypatch.setattr(vortex, "simulate", crash)
    code = run(["vortex", "--system", PAIR, "--t-end", "1.0",
                "--out", str(tmp_path / "c")])
    assert code == 3
    summary = json.loads((tmp_path / "c" / "summary.json").read_text())
    assert summary["aborted"] == "collision"
    assert summary["collision_time"] == 0.37


def test_vortex_nonfinite_field_exit_65(monkeypatch, capsys):
    from potflow import vortex

    monkeypatch.setattr(vortex, "_velocities",
                        lambda z, g, domain: np.full(len(z), complex("nan")))
    assert run(["vortex", "--system", PAIR, "--t-end", "1.0"]) == 65
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "non-finite field value at node t=0" in err[0]


def test_verify_failure_exit_2(monkeypatch, tmp_path, capsys):
    # corrupt a tolerance: any failing identity must flip the exit code
    def fake_suite(name):
        return [verify.Check("corrupted", "KKH", 1.0, 1e-12)]

    monkeypatch.setattr(verify, "run_suite", fake_suite)
    code = run(["verify", "--suite", "planar", "--out", str(tmp_path / "v.json")])
    assert code == 2
    doc = json.loads((tmp_path / "v.json").read_text())
    assert doc["passed"] is False


def test_verify_planar_table(tmp_path):
    out = tmp_path / "planar.json"
    code = run(["verify", "--suite", "planar", "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    anchors = {row["anchor"] for row in doc["checks"]}
    assert "Deltah0K" in anchors
    row = next(r for r in doc["checks"] if r["anchor"] == "Deltah0K")
    assert row["pass"] and row["residual"] < 1e-8


def test_verify_schottky_table(tmp_path):
    out = tmp_path / "schottky.json"
    code = run(["verify", "--suite", "schottky", "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    row = next(r for r in doc["checks"] if r["anchor"] == "KKH")
    assert row["pass"] and row["residual"] == 0.0


def test_torus_report(tmp_path):
    out = tmp_path / "torus.json"
    code = run(["torus", "--tau", "0,2", "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    anchors = {row["anchor"] for row in doc["identities"]}
    assert "KKH" in anchors and "Legendre" in anchors
    kkh = next(r for r in doc["identities"] if r["anchor"] == "KKH")
    assert kkh["residual"] == 0.0


def test_torus_deterministic(tmp_path):
    texts = []
    for name in ("a.json", "b.json"):
        run(["torus", "--tau", "0,2", "--out", str(tmp_path / name)])
        texts.append((tmp_path / name).read_bytes())
    assert texts[0] == texts[1]
