"""Property-based CLI tests over the input domain of series-check, split-check,
wavepacket-check and ww-sim, and over generated preset files for every command.

Every invocation must end one of two ways: exit 0 with only finite numbers in
the written document, or exit 1 with a one-line typed diagnostic on stderr and
nothing written.  stdout stays empty either way, since output goes to --out
(ww-sim writes its trace there and its JSON summary to stdout, so for it
stdout holds that summary on success and nothing on failure); capfd also
catches what native code (LAPACK) writes to file descriptor 1.  Grids stay at
1-12 points and ww-sim runs at or below about 2e4 time steps, so no example
allocates anything large.
"""

import json
import math
import warnings

from hypothesis import HealthCheck, event, example, given, settings
from hypothesis import strategies as st

from causalatom import errors
from causalatom.cli import COMMANDS, main

TYPED_ERRORS = {name for name, cls in vars(errors).items()
                if isinstance(cls, type) and issubclass(cls, errors.CausalAtomError)}
TYPED_ERRORS.add("ValueError")

# capfd and tmp_path are reset by hand in each example
PROPERTY_SETTINGS = settings(max_examples=100, deadline=None, derandomize=True,
                             database=None,
                             suppress_health_check=[HealthCheck.function_scoped_fixture])

EDGE_FLOATS = st.sampled_from([0.0, -0.0, 1.0, -1.0, math.inf, -math.inf, math.nan,
                               1e-300, 1e-77, 1e300, 2.4e51, 1.7976931348623157e308])
ANY_FLOAT = st.floats(allow_nan=True, allow_infinity=True)
SYNTHETIC = st.floats(min_value=1e-9, max_value=0.099).map(lambda du: f"synthetic:{du!r}")


def _assert_finite(value):
    if isinstance(value, dict):
        for item in value.values():
            _assert_finite(item)
    elif isinstance(value, list):
        for item in value:
            _assert_finite(item)
    elif isinstance(value, float):
        assert math.isfinite(value)


def _reject_constant(name):
    raise AssertionError(f"non-finite number {name} written")


def _assert_finite_csv(text):
    header, *rows = text.splitlines()
    assert rows
    for row in rows:
        assert all(math.isfinite(float(v)) for v in row.split(","))


def flag(name, value):
    """--name and a float as two arguments, as a user types them, -inf and
    nan included."""
    return [f"--{name}", repr(value)]


def check_invocation(capfd, tmp_path, argv):
    ww_sim = argv[0] == "ww-sim"
    target = tmp_path / ("trace.csv" if ww_sim else "out.json")
    target.unlink(missing_ok=True)
    capfd.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main([*argv, "--out", str(target)])
    out, err = capfd.readouterr()
    event(f"exit {code}")
    if code == 0:
        assert err == ""
        if ww_sim:
            _assert_finite(json.loads(out, parse_constant=_reject_constant))
            _assert_finite_csv(target.read_text())
        else:
            assert out == ""
            _assert_finite(json.loads(target.read_text(), parse_constant=_reject_constant))
    else:
        assert code == 1
        assert out == ""
        assert not target.exists()
        diag = json.loads(err)
        assert list(diag) == ["error", "message", "command"]
        assert diag["error"] in TYPED_ERRORS, diag


@PROPERTY_SETTINGS
@given(preset=SYNTHETIC,
       c=st.tuples(*[st.one_of(st.floats(-1e6, 1e6), EDGE_FLOATS, ANY_FLOAT)] * 3))
def test_series_check_ends_cleanly(capfd, tmp_path, preset, c):
    check_invocation(capfd, tmp_path, ["series-check", "--preset", preset,
                                       *(a for i, v in enumerate(c) for a in flag(f"c{i}", v))])


# |u| log-uniform over all that the closed form accepts, about 1e-77 to 2.4e51
WIDE_U = st.tuples(st.floats(-77.0, 51.3), st.sampled_from([-1.0, 1.0])).map(
    lambda e: e[1] * 10.0 ** e[0])


@PROPERTY_SETTINGS
@given(preset=SYNTHETIC,
       ends=st.one_of(st.tuples(st.floats(-12.0, 12.0), st.floats(-12.0, 12.0)),
                      st.tuples(WIDE_U, WIDE_U),
                      st.tuples(*[st.one_of(EDGE_FLOATS, ANY_FLOAT)] * 2)),
       points=st.integers(1, 12),
       tol=st.one_of(st.floats(1e-13, 1e-6), EDGE_FLOATS))
# |u| - 1 rounds to -1 here: a form in d = |u| - 1 alone divides by zero
@example(preset="synthetic:0.01", ends=(1.1754943508222875e-38, 0.5), points=1, tol=1e-10)
def test_split_check_ends_cleanly(capfd, tmp_path, preset, ends, points, tol):
    check_invocation(capfd, tmp_path, ["split-check", "--preset", preset,
                                       *flag("u-min", ends[0]), *flag("u-max", ends[1]),
                                       "--points", str(points), *flag("tol", tol)])


def mostly(main, edges):
    """Three draws in four from main, the rest from edges."""
    return st.one_of(main, main, main, edges)


@PROPERTY_SETTINGS
@given(periods=st.lists(mostly(st.integers(-10, 10 ** 5),
                               st.sampled_from([0, -(10 ** 400), 10 ** 300, 10 ** 308,
                                                10 ** 309, 10 ** 400])),
                        min_size=1, max_size=3),
       ramp=mostly(st.floats(1e-3, 1.0), EDGE_FLOATS))
def test_wavepacket_check_ends_cleanly(capfd, tmp_path, periods, ramp):
    check_invocation(capfd, tmp_path, ["wavepacket-check",
                                       "--plateau-periods", *map(str, periods),
                                       *flag("ramp-fraction", ramp)])


@PROPERTY_SETTINGS
@given(n_modes=mostly(st.integers(2001, 20000), st.sampled_from([-1, 0, 999, 1_000_001])),
       bandwidth=mostly(st.floats(40.0, 200.0), EDGE_FLOATS),
       t_end=mostly(st.floats(0.5, 10.0), EDGE_FLOATS),
       dt=mostly(st.one_of(st.none(), st.floats(5e-4, 4e-3)), EDGE_FLOATS))
def test_ww_sim_ends_cleanly(capfd, tmp_path, n_modes, bandwidth, t_end, dt):
    # a run that is not refused takes t_end / dt or t_end * bandwidth / 0.38
    # steps, at most about 2e4 with these ranges
    check_invocation(capfd, tmp_path, ["ww-sim", "--n-modes", str(n_modes),
                                       *flag("bandwidth-gammas", bandwidth),
                                       *flag("t-end-gammas", t_end),
                                       *([] if dt is None else flag("dt-gammas", dt))])


def log_uniform(lo_exp, hi_exp):
    return st.floats(lo_exp, hi_exp).map(lambda e: 10.0 ** e)


# near-physical values, or an edge: zero, negative, tiny, huge, non-finite, or
# not a JSON number (a bool, a numeric string)
PRESET_EDGES = st.sampled_from([0.0, -1.0, 5e-324, 1e-300, 1e-200, 1e-77, 1e77, 1e150,
                                1e300, 1.7976931348623157e308, math.inf, math.nan,
                                True, False, "1.5e16", "1e-27"])
PRESET_FIELDS = st.fixed_dictionaries({
    "m_g_kg": mostly(log_uniform(-30.0, -20.0), PRESET_EDGES),
    "omega_eg_rad_s": mostly(log_uniform(8.0, 17.0), PRESET_EDGES),
    "d_eg_Cm": mostly(log_uniform(-34.0, -26.0), PRESET_EDGES),
    "t_g_s": mostly(log_uniform(-6.0, 3.0), PRESET_EDGES),
})
# the smallest runs of each command; the preset, not the grid, is under test
SMALL_RUN = {"split-check": ["--points", "3"], "wavepacket-check": ["--plateau-periods", "10"]}


@PROPERTY_SETTINGS
@given(command=st.sampled_from(list(COMMANDS)), atom=PRESET_FIELDS)
def test_preset_file_ends_cleanly(capfd, tmp_path, command, atom):
    preset = tmp_path / "atom.json"
    preset.write_text(json.dumps(atom))  # NaN and Infinity as json.loads reads them
    check_invocation(capfd, tmp_path, [command, "--preset", str(preset),
                                       *SMALL_RUN.get(command, [])])
