import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import potflow
from potflow import cli, verify, vortex


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
                 ["torus", "--tau", "0,0.01"],
                 # |p| beyond 1e7, the circulation ointdGp resolves
                 ["torus", "--tau", "0,2", "--p", "1.1e7"],
                 ["torus", "--tau", "0,2", "--p", "1e300"],
                 ["torus", "--tau", "0,2", "--p", "-1e300"],
                 ["vortex", "--system", system, "--t-end", "-1"],
                 ["vortex", "--system", system, "--tol", "1"],
                 ["fekete", "--domain", '{"kind":"circle","R":1.0}',
                  "--n-max", "100000000"],
                 # non-finite numbers in documents, points and options
                 ["fekete", "--domain", '{"kind":"circle","R":NaN}', "--n-max", "8"],
                 ["fekete", "--domain", '{"kind":"segment","length":Infinity}',
                  "--n-max", "8"],
                 ["torus", "--tau", "nan,2"],
                 ["torus", "--tau", "0,2", "--p", "nan"],
                 ["green", "--domain", '{"kind":"periodic_strip","tau":[0,Infinity]}',
                  "--a=-0.25,0.5", "--z=-0.2,0.3"],
                 ["green", "--domain", '{"kind":"disk","R":Infinity}', "--a=0,0",
                  "--z=0.1,0"],
                 ["vortex", "--system", system, "--t-end", "nan"],
                 ["vortex", "--system", system, "--t-end", "inf"],
                 ["vortex", "--system", system, "--tol=-inf"],
                 # Im tau beyond the overflow-free range of the q-series
                 ["torus", "--tau", "0,100"],
                 ["torus", "--tau", "0,500"],
                 # sizes outside [1e-100, 1e100] overflowed the Fekete Newton step
                 ["fekete", "--domain", '{"kind":"segment","length":1e300}',
                  "--n-max", "8"],
                 ["fekete", "--domain", '{"kind":"segment","length":1e-300}',
                  "--n-max", "8"],
                 ["fekete", "--domain", '{"kind":"circle","R":1e154}', "--n-max", "8"],
                 ["fekete", "--domain", '{"kind":"circle","R":5e-324}', "--n-max", "8"],
                 ["fekete", "--domain", '{"kind":"circle","R":1}', "--pole=1e300,0",
                  "--n-max", "8"],
                 ["green", "--domain", '{"kind":"disk","R":1e300}', "--a=0,0",
                  "--z=0.5,0"],
                 # strip points beyond 2^26 Im tau keep too few bits modulo Im tau
                 ["green", "--domain", '{"kind":"periodic_strip","tau":[0,2]}',
                  "--a=-0.2,0.1", "--z=-0.3,1e300"],
                 ["green", "--domain", '{"kind":"periodic_strip","tau":[0,2]}',
                  "--a=-0.3,-1e300"]):
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


def test_fekete_degenerate_ladders_exit_65(monkeypatch, capsys):
    from potflow import equilibrium

    # a pole 1e-11 off the segment: the extrapolated delta comes out negative
    assert run(["fekete", "--domain", '{"kind":"segment","length":2}',
                "--pole=0,1e-11", "--n-max", "16"]) == 65
    err = capsys.readouterr().err
    assert err.startswith("input error:") and err.count("\n") == 1
    assert "not finite and positive" in err
    # a ladder that grows with n fails the monotonicity check
    monkeypatch.setattr(equilibrium, "_fekete_from_start",
                        lambda K, ts, pole, counters: (np.zeros(len(ts), complex),
                                                       float(len(ts))))
    assert run(["fekete", "--domain", '{"kind":"circle","R":1.0}', "--n-max", "8"]) == 65
    err = capsys.readouterr().err
    assert err.startswith("input error:") and err.count("\n") == 1
    assert "not monotone" in err


def test_green_report(tmp_path, capsys):
    out = tmp_path / "green.json"
    code = run(["green", "--domain", '{"kind":"disk","R":1.0}',
                "--a", "0.5,0", "--z", "0,0", "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert abs(doc["green"] - math.log(2) / (2 * math.pi)) < 1e-12
    assert abs(doc["robin"]["h0"] - math.log(0.75)) < 1e-12


# recorded output of a strip query whose h1 has a -0.0 imaginary part: the
# strip's theta1 values must keep their last bits and the signs of zeros
STRIP_GREEN_REPORT = "\n".join([
    '{',
    '  "a": [',
    '    -0.3802022359493315,',
    '    0.8793302462090203',
    '  ],',
    '  "domain": {',
    '    "kind": "periodic_strip",',
    '    "tau": [',
    '      0.0,',
    '      1.0',
    '    ]',
    '  },',
    '  "green": 0.019637834741409954,',
    '  "robin": {',
    '    "curvature": -4.026397049086566,',
    '    "h0": -1.5215781927208016,',
    '    "h1": [',
    '      3.377453083693801,',
    '      -0.0',
    '    ]',
    '  },',
    '  "z": [',
    '    -0.2,',
    '    0.3',
    '  ]',
    '}',
])


def test_strip_green_report_is_byte_identical_to_the_recorded_one(tmp_path):
    out = tmp_path / "green.json"
    code = run(["green", "--domain", '{"kind":"periodic_strip","tau":[0,1]}',
                "--a=-0.3802022359493315,0.8793302462090203", "--z=-0.2,0.3",
                "--out", str(out)])
    assert code == 0
    assert out.read_text() == STRIP_GREEN_REPORT


def test_points_left_of_the_imaginary_axis_parse_in_the_space_form(tmp_path, capsys):
    out = tmp_path / "green.json"
    assert run(["green", "--domain", '{"kind":"periodic_strip","tau":[0,1]}',
                "--a", "-0.3802022359493315,0.8793302462090203", "--z", "-0.2,0.3",
                "--out", str(out)]) == 0
    assert out.read_text() == STRIP_GREEN_REPORT
    assert run(["fekete", "--domain", '{"kind":"segment","length":2.0}', "--n-max", "8",
                "--pole", "-2,0.5", "--out", str(tmp_path / "fekete")]) == 0
    disk = '{"kind":"disk","R":1.0}'
    for value in ("-inf,0", "-nan,0", "-Infinity,1", "-.5,inf"):
        assert run(["green", "--domain", disk, "--a", value]) == 65, value
    # any other word that starts with '-' is still read as an option
    assert run(["green", "--domain", disk, "--a", "-x"]) == 64
    assert "expected one argument" in capsys.readouterr().err


def test_main_builds_its_parser_once(monkeypatch, capsys):
    built = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
    cli._parser.cache_clear()
    for argv in (["verify", "--suite", "bogus"], ["fekete"], ["green", "--a=0,0"]):
        assert run(argv) == 64
    assert len(built) == 1
    # a parse leaves nothing behind for the next one
    parser = cli._parser()
    assert parser.parse_args(["verify", "--out", "x", "--suite", "planar"]).out == "x"
    args = parser.parse_args(["verify"])
    assert (args.out, args.suite) == (None, "all")
    capsys.readouterr()


DATA = Path(__file__).parent / "data"


# the quadratures sum in numpy's fixed pairwise order, so the report must not
# depend on how many threads the BLAS library runs
_BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                 "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def _cli_output_at_each_thread_count(argv, out):
    """Run the CLI in a fresh process at 1 and then 2 BLAS threads, writing
    to ``out``; yields (threads, the bytes written) after each run, a list
    of each file's bytes, by name, when ``out`` is a directory."""
    package_root = Path(potflow.__file__).parent.parent
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=str(package_root),
                   **dict.fromkeys(_BLAS_THREADS, threads))
        done = subprocess.run([sys.executable, "-m", "potflow.cli", *argv,
                               "--out", str(out)], env=env, capture_output=True)
        assert done.returncode == 0, (threads, done.stderr)
        yield threads, (out.read_bytes() if out.is_file()
                        else [p.read_bytes() for p in sorted(out.iterdir())])


def test_verify_all_report_is_byte_identical_to_the_recorded_one(tmp_path):
    for threads, report in _cli_output_at_each_thread_count(
            ["verify", "--suite", "all"], tmp_path / "verify.json"):
        assert report == (DATA / "verify_all.json").read_bytes(), threads


@pytest.mark.parametrize("argv, recorded", [
    (["--tau", "0,2"], "torus_0_2.json"),
    (["--tau", "0,1.5", "--p", "0.3"], "torus_0_1.5_p_0.3.json"),
    (["--tau", "0.3,2"], "torus_0.3_2.json"),
])
def test_torus_report_is_byte_identical_to_the_recorded_one(tmp_path, argv, recorded):
    for threads, report in _cli_output_at_each_thread_count(
            ["torus", *argv], tmp_path / "torus.json"):
        assert report == (DATA / recorded).read_bytes(), threads


def test_vortex_run_is_byte_identical_at_one_and_two_blas_threads(tmp_path):
    # 150 vortices make 11,175 pair terms in the energy: OpenBLAS splits a dot
    # product that long across threads, and numpy's pairwise sum does not
    rng = np.random.default_rng(150)
    g = np.arange(-6, 7) * 0.1
    z = ((g[:, None] + 1j * g[None, :]).ravel()[:150]
         + 0.02 * (rng.uniform(-1, 1, 150) + 1j * rng.uniform(-1, 1, 150)))
    system = json.dumps({"domain": {"kind": "disk", "R": 1.0}, "vortices": [
        {"z": [p.real, p.imag], "gamma": s}
        for p, s in zip(z.tolist(), rng.choice([-1.0, 1.0], 150).tolist())]})
    runs = [files for _, files in _cli_output_at_each_thread_count(
        ["vortex", "--system", system, "--t-end", "0.05", "--tol", "1e-8"], tmp_path)]
    assert len(runs[0]) == 2 and runs[0] == runs[1]


def test_tiny_disk_centre_has_robin_data_and_holds_a_still_vortex(tmp_path, capsys):
    disk = '{"kind":"disk","R":1e-20}'
    assert run(["green", "--domain", disk, "--a", "0,0"]) == 0
    assert json.loads(capsys.readouterr().out)["robin"]["h0"] == pytest.approx(
        math.log(1e-20), rel=1e-15)
    system = f'{{"vortices":[{{"z":[0,0],"gamma":1}}],"domain":{disk}}}'
    assert run(["vortex", "--system", system, "--t-end", "0.1", "--out", str(tmp_path)]) == 0
    assert json.loads((tmp_path / "summary.json").read_text())["final_state"] == [[0.0, 0.0]]


_RECT = '{"kind":"domain_boundary","domain":{"kind":"rectangle","w":2.0,"h":1.0}}'


# sha256 of capacity.json and fekete_points.csv at --n-max 64
@pytest.mark.parametrize("domain, pole, capacity, points", [
    ('{"kind":"circle","R":1.0}', None,
     "64b42b0349f0626d3a7cce91c96a4f5c8a74c3195e135f93f7b7463c8ca789ad",
     "75ab11f87773ea30dbb80061c4173839de2c2899e7c78a8b2ea6a53b898aa493"),
    ('{"kind":"segment","length":2.0}', None,
     "3d17c52cd9a4ed60acf09fcf927a07a87c19db3e4744fa8bf6d7f185d55140d3",
     "df26cb780db39e40227c83adb419facaaaef76371ebd0e106bb7b14bcc901ad6"),
    (_RECT, None,
     "1185b0473212236276d68717873317fc972bc0742c6e193b4c216e8dfae59726",
     "ac7b1e5b54e672113150dda7f88198739387b5a365570477caa62fa115b348aa"),
    ('{"kind":"circle","R":1.0}', "2.5,0.5",
     "94159dc108379562e6e9d1d6ed69054bac144ca58e3f4c7399c05a4fb42df406",
     "b5db87f00e0f437d7d6dabd5097f9b17948fef24ebf8502352ec4ac3642ad1ca"),
    ('{"kind":"segment","length":2.0}', "0.3,1.2",
     "59a121eeb7e68b02e091766f1ac62035cc24ae04f187052394f8d356d4e749e3",
     "b3aa387d079bda260308179d4107bdf46ace9f30ba6c8130eb58ef315aad9e17"),
    (_RECT, "3,2",
     "bd65d1e6f38e4de5ab184789e1524ca337f069f98b3143c3f461e8f19bb1bbdc",
     "54be3d1683d0af424688bbc4f89ae04998152c85447fb52f4af6ab1e9a6dd238"),
])
def test_fekete_outputs_are_byte_identical_to_the_recorded_ones(
        tmp_path, domain, pole, capacity, points):
    argv = ["fekete", "--domain", domain, "--n-max", "64", "--out", str(tmp_path)]
    assert run(argv + ([f"--pole={pole}"] if pole else [])) == 0
    assert [hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            for name in ("capacity.json", "fekete_points.csv")] == [capacity, points]


@pytest.mark.parametrize("domain, eigh_runs", [
    ('{"kind":"circle","R":1.0}', False), ('{"kind":"segment","length":2.0}', False),
    (_RECT, True)])
def test_fekete_eigendecomposes_only_where_cholesky_fails(
        monkeypatch, tmp_path, domain, eigh_runs):
    calls, eigh = [], np.linalg.eigh

    def counted(A):
        calls.append(len(A))
        return eigh(A)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    assert run(["fekete", "--domain", domain, "--n-max", "64", "--out", str(tmp_path)]) == 0
    assert bool(calls) == eigh_runs


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


def test_rectangle_green_grid_and_aspect_limits(capsys):
    # the closed forms ignore the grid: a 300 grid answers
    rect = '{"kind":"rectangle","w":1,"h":1,"grid":300}'
    assert run(["green", "--domain", rect, "--a=0.5,0.5", "--z=0.3,0.3"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert abs(doc["robin"]["h0"] - math.log(4 * math.sqrt(math.pi)
                                             / math.gamma(0.25) ** 2)) < 1e-13
    assert doc["green"] > 0
    # grids above 512 and aspect ratios above 60 (the theta series' Im tau
    # cap), tall or wide, exit 65 with one stderr line
    for rect, a, message in (('{"kind":"rectangle","w":1,"h":1,"grid":513}', "0.5,0.5",
                              "grids are capped at 512"),
                             ('{"kind":"rectangle","w":1,"h":61}', "0.5,30", "aspect ratio"),
                             ('{"kind":"rectangle","w":61,"h":1}', "30,0.5", "aspect ratio")):
        assert run(["green", "--domain", rect, f"--a={a}"]) == 65
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and message in err[0], err


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
    assert summary["field_evals"] == 1 + 12 * (summary["steps"] - 1
                                               + summary["steps_rejected"])
    steps = np.diff([float(line.split(",")[0]) for line in lines[1:]])
    assert (summary["h_min"], summary["h_max"]) == (steps.min(), steps.max())


def test_vortex_step_budget_exit_65(monkeypatch, capsys):
    # the pair needs 4 attempted steps to t = 10; a budget of 3 refuses it
    rk = vortex.numkit.rk_integrate
    monkeypatch.setattr(vortex.numkit, "rk_integrate",
                        lambda *a, **kw: rk(*a, **kw, max_steps=3))
    assert run(["vortex", "--system", PAIR, "--t-end", "10"]) == 65
    err = capsys.readouterr().err
    assert err.startswith("input error:") and "step budget exhausted" in err
    assert err.count("\n") == 1


def test_vortex_csv_rows_are_17_digit_values(tmp_path):
    system = ('{"domain":{"kind":"disk","R":1.0},"vortices":'
              '[{"z":[0.4,0],"gamma":1.0},{"z":[-0.3,0.2],"gamma":-0.7},'
              '{"z":[0.1,-0.5],"gamma":0.4}]}')
    out = tmp_path / "run"
    assert run(["vortex", "--system", system, "--t-end", "1", "--out", str(out)]) == 0
    traj = vortex.simulate(vortex.VortexSystem.from_dict(json.loads(system)), 1.0, 1e-10)
    lines = (out / "trajectory.csv").read_text().splitlines()
    assert len(lines) == len(traj.times) + 1
    for line, t, z, e in zip(lines[1:], traj.times, traj.states,
                             traj.monitors["energy"]):
        values = [t, *np.column_stack([z.real, z.imag]).ravel(), e]
        assert line == ",".join(format(float(x), ".17g") for x in values)


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


def _handled_errors():
    """Per command, its core call and PotflowError subclasses that it may
    raise (main maps each to exit 65; verify's handler and vortex's
    collision handler keep their own codes), with the documented exit code
    and the prefix of the one stderr line."""
    from potflow import elliptic, equilibrium, planar_green, schottky
    from potflow.errors import (CollisionError, ConditioningError, DomainError,
                                EvaluationError, OptimizationQualityError,
                                ParameterError, PoleError)
    fekete = (["fekete", "--domain", '{"kind":"circle","R":1.0}', "--n-max", "8"],
              equilibrium, "transfinite_diameter")
    run_vortex = (["vortex", "--system", PAIR, "--t-end", "1"], vortex, "simulate")
    torus = (["torus", "--tau", "0,2"], elliptic, "lattice_constants")
    green = (["green", "--domain", '{"kind":"disk","R":1.0}', "--a=0.3,0.1"],
             planar_green, "robin_data")
    bad_input = "input error:"
    cases = [
        (*fekete, ParameterError("pole on the carrier"), 65, bad_input),
        (*fekete, OptimizationQualityError("ladder not monotone"), 65, bad_input),
        (*fekete, DomainError("pole inside the carrier"), 65, bad_input),
        (*run_vortex, ParameterError("step budget exhausted"), 65, bad_input),
        (*run_vortex, EvaluationError("t=0", "non-finite field value"), 65, bad_input),
        (*run_vortex, CollisionError(0.37, 1e-12), 3, "simulation aborted:"),
        (*torus, ConditioningError("Im tau too small"), 65, bad_input),
        (["torus", "--tau", "0,2"], schottky, "hydro_circulation",
         EvaluationError("y=0.4", "non-finite integrand"), 65, bad_input),
        *((*green, exc, 65, bad_input) for exc in (
            DomainError("a outside"), ParameterError("bad parameter"),
            ConditioningError("aspect ratio"), PoleError("on the lattice"))),
        (["verify", "--suite", "schottky"], verify, "run_suite",
         PoleError("on the lattice"), 2, "verify aborted:"),
    ]
    return [pytest.param(*case, id=f"{case[0][0]}-{type(case[3]).__name__}")
            for case in cases]


@pytest.mark.parametrize("argv, owner, name, error, code, prefix", _handled_errors())
def test_handled_errors_exit_with_the_documented_code_and_one_line(
        argv, owner, name, error, code, prefix, monkeypatch, capsys):
    def core(*args, **kwargs):
        raise error

    monkeypatch.setattr(owner, name, core)
    assert run(argv) == code
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(prefix) and str(error) in err[0], err


def test_vortex_nonfinite_field_exit_65(monkeypatch, capsys):
    monkeypatch.setattr(vortex, "_field_of",
                        lambda g, domain: lambda z: np.full(len(z), complex("nan")))
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


@pytest.mark.parametrize("p", ["100", "1e3", "1e6", "1e7", "-1e7"])
def test_torus_circulation_passes_up_to_its_bound(tmp_path, p):
    # ointdGp's roundoff grows like eps |p| against an absolute 1e-8, so
    # the bound on --p is where every row still passes
    out = tmp_path / "torus.json"
    assert run(["torus", "--tau", "0,2", "--p", p, "--out", str(out)]) == 0
    assert all(row["pass"] for row in json.loads(out.read_text())["identities"])


@pytest.mark.parametrize("tau", ["0,0.05", "0,20", "0,60", "0.3,0.1", "0.5,0.05"])
def test_torus_tall_strip_periods_pass(tmp_path, tau):
    # the y trapezoids of kernels2 and ointdGp once had a fixed node count
    # and failed beyond Im tau ~ 10; the x trapezoid of kernels2 too, and
    # failed on short strips (8.0e-8 at Im tau = 0.05); C once failed on
    # sheared cells, whose image poles sit next to the cell's corners
    # (1.8e-5 at tau = 0.3+0.1i)
    out = tmp_path / "torus.json"
    assert run(["torus", "--tau", tau, "--out", str(out)]) == 0
    assert all(row["pass"] for row in json.loads(out.read_text())["identities"])


def test_torus_deterministic(tmp_path):
    texts = []
    for name in ("a.json", "b.json"):
        run(["torus", "--tau", "0,2", "--out", str(tmp_path / name)])
        texts.append((tmp_path / name).read_bytes())
    assert texts[0] == texts[1]
