"""Random argv and documents for every subcommand but ``verify``: each run
ends with a documented exit code and, on failure, one stderr line.

Sizes stay small so the whole module runs in a few seconds: ``--n-max`` at
most 16, ``--t-end`` at most 0.1 and at most 8 vortices.
"""

import contextlib
import io
import json

from hypothesis import HealthCheck, given, settings, strategies as st

from potflow import cli

EXIT_CODES = {0, 2, 3, 64, 65}
FUZZ = settings(max_examples=40, deadline=None, derandomize=True,
                suppress_health_check=[HealthCheck.too_slow])

NAN, INF = float("nan"), float("inf")
numbers = st.sampled_from([-1.0, 0.0, 0.3, 0.5, 1.0, 2.0, NAN, INF, -INF,
                           1e300, 1e-300, 5e-324, 1e154])
values = st.one_of(numbers, st.sampled_from(["x", None, True, [], {}]))
points = st.one_of(
    st.tuples(numbers, numbers).map(lambda p: f"{p[0]},{p[1]}"),
    st.sampled_from(["", "x", "1", "1,2,3", "0.5,", "nan,0", "inf,inf"]))
kinds = st.sampled_from(["disk", "half_plane", "slit_plane", "rectangle",
                         "periodic_strip", "circle", "segment",
                         "domain_boundary", "plane", "nonagon", None])


@st.composite
def documents(draw, depth=1):
    """A JSON object of a random kind with random, possibly missing fields."""
    doc = {}
    kind = draw(kinds)
    if kind is not None:
        doc["kind"] = kind
    for key in ("R", "w", "h", "length"):
        if draw(st.booleans()):
            doc[key] = draw(values)
    if draw(st.booleans()):
        doc["tau"] = draw(st.one_of(values, st.lists(numbers, max_size=3)))
    # the grid is only the default mesh of RectangleGreenSolver, which no
    # command builds, so any size is cheap; above 512 it is an input error
    doc["grid"] = draw(st.sampled_from([-4, 0, 8, 33, 64, 300, 513, "x", None]))
    if depth > 0 and draw(st.booleans()):
        doc["domain"] = draw(documents(depth=0))
    return doc


@st.composite
def vortex_systems(draw):
    vortices = draw(st.lists(st.fixed_dictionaries(
        {"z": st.one_of(st.lists(numbers, min_size=2, max_size=2), values),
         "gamma": values}), max_size=8))
    system = {"vortices": vortices,
              "domain": draw(st.one_of(documents(depth=0),
                                       st.just({"kind": "plane"}),
                                       st.just({"kind": "disk", "R": 1.0})))}
    if draw(st.booleans()):
        del system[draw(st.sampled_from(["vortices", "domain"]))]
    return system


def options(*pairs):
    """Each (flag, strategy) pair is present or absent at random."""
    return st.tuples(*(st.one_of(st.just([]), value.map(lambda v, f=flag: [f, v]))
                       for flag, value in pairs)
                     ).map(lambda parts: [word for part in parts for word in part])


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    text = err.getvalue()
    assert code in EXIT_CODES, (argv, code, text)
    assert "Traceback" not in text, argv
    if code != 0:
        assert text.count("\n") <= 1, (argv, text)
    return code


@FUZZ
@given(documents(), points, points)
def test_fuzz_green(doc, a, z):
    run_cli(["green", "--domain", json.dumps(doc), f"--a={a}", f"--z={z}"])


@FUZZ
@given(documents(), options(("--n-max", st.sampled_from(["-1", "0", "1", "4", "16", "x"])),
                            ("--pole", points)))
def test_fuzz_fekete(doc, extra):
    run_cli(["fekete", "--domain", json.dumps(doc)] + extra)


@FUZZ
@given(vortex_systems(),
       options(("--t-end", st.sampled_from(["0.1", "0.05", "0", "-1", "nan", "inf", "x"])),
               ("--tol", st.sampled_from(["1e-10", "1e-6", "1", "0", "nan", "x"]))))
def test_fuzz_vortex(system, extra):
    if "--t-end" not in extra:
        extra += ["--t-end", "0.1"]
    run_cli(["vortex", "--system", json.dumps(system)] + extra)


# a valid torus report costs about half a second, so fewer examples here
@settings(FUZZ, max_examples=10)
@given(st.sampled_from(["0,1.5", "0.25,1", "0,0", "0,-1", "0,0.01", "0,100",
                        "nan,2", "0,inf", "x", "1"]),
       options(("--p", st.sampled_from(["0", "0.5", "1e300", "nan", "-inf", "x"]))))
def test_fuzz_torus(tau, extra):
    run_cli(["torus", "--tau", tau] + extra)


def _input_error(argv, path):
    """argv exits 65 with one ``input error:`` line that names path."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    text = err.getvalue()
    assert code == 65, (argv, text)
    assert text.count("\n") == 1 and text.startswith("input error:"), text
    assert str(path) in text, text


def test_domain_that_is_a_directory_is_an_input_error(tmp_path):
    _input_error(["green", "--domain", str(tmp_path), "--a", "0.1,0.1"], tmp_path)


def test_domain_file_that_is_not_utf8_is_an_input_error(tmp_path):
    path = tmp_path / "domain.json"
    path.write_bytes(b'{"kind": "disk", "R": \xff}')
    _input_error(["green", "--domain", str(path), "--a", "0.1,0.1"], path)


def test_domain_too_long_for_a_path_is_parsed_as_json():
    # the system refuses the name (ENAMETOOLONG), so it is read as a document
    arg = "x" * 5000
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        assert cli.main(["green", "--domain", arg, "--a", "0.1,0.1"]) == 65
    assert err.getvalue().startswith("input error: malformed JSON at line 1 column 1")
    assert err.getvalue().count("\n") == 1


def test_verify_out_that_is_a_directory_is_an_input_error(tmp_path):
    _input_error(["verify", "--suite", "planar", "--out", str(tmp_path)], tmp_path)


def test_fekete_out_that_is_a_file_is_an_input_error(tmp_path):
    path = tmp_path / "taken"
    path.write_text("")
    _input_error(["fekete", "--domain", '{"kind": "circle", "R": 1.0}', "--n-max", "8",
                  "--out", str(path)], path)


def test_green_out_under_a_file_is_an_input_error(tmp_path):
    path = tmp_path / "taken"
    path.write_text("")
    _input_error(["green", "--domain", '{"kind": "disk", "R": 1.0}', "--a", "0.1,0.1",
                  "--out", str(path / "x.json")], path)
