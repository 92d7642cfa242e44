"""Property-based CLI tests over the input domain of series-check and split-check.

Every invocation must end one of two ways: exit 0 with only finite numbers in
the written document, or exit 1 with a one-line typed diagnostic on stderr and
nothing written.  stdout stays empty either way, since output goes to --out;
capfd also catches what native code (LAPACK) writes to file descriptor 1.
Grids stay at 5-12 points, so no example allocates anything large.
"""

import json
import math
import warnings

from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from causalatom import errors
from causalatom.cli import main

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


def check_invocation(capfd, tmp_path, argv):
    target = tmp_path / "out.json"
    target.unlink(missing_ok=True)
    capfd.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main([*argv, "--out", str(target)])
    out, err = capfd.readouterr()
    event(f"exit {code}")
    assert out == ""
    if code == 0:
        assert err == ""
        _assert_finite(json.loads(target.read_text(), parse_constant=_reject_constant))
    else:
        assert code == 1
        assert not target.exists()
        diag = json.loads(err)
        assert list(diag) == ["error", "message", "command"]
        assert diag["error"] in TYPED_ERRORS, diag


@PROPERTY_SETTINGS
@given(preset=SYNTHETIC,
       c=st.tuples(*[st.one_of(st.floats(-1e6, 1e6), EDGE_FLOATS, ANY_FLOAT)] * 3))
def test_series_check_ends_cleanly(capfd, tmp_path, preset, c):
    check_invocation(capfd, tmp_path, ["series-check", "--preset", preset,
                                       *(f"--c{i}={v!r}" for i, v in enumerate(c))])


@PROPERTY_SETTINGS
@given(preset=SYNTHETIC,
       ends=st.one_of(st.tuples(st.floats(-12.0, 12.0), st.floats(-12.0, 12.0)),
                      st.tuples(*[st.one_of(EDGE_FLOATS, ANY_FLOAT)] * 2)),
       points=st.integers(5, 12),
       tol=st.one_of(st.floats(1e-13, 1e-6), EDGE_FLOATS))
def test_split_check_ends_cleanly(capfd, tmp_path, preset, ends, points, tol):
    check_invocation(capfd, tmp_path, ["split-check", "--preset", preset,
                                       f"--u-min={ends[0]!r}", f"--u-max={ends[1]!r}",
                                       "--points", str(points), f"--tol={tol!r}"])
