"""Every op of the benchmark's batches passes the benchmark's own checker.

perfbench/ runs each op in a fresh process and scores its output with
perfbench/checker.py; an op the checker calls anything but "ok" makes the
run fail as incorrect.  Here each op of seeds 1 and 2 of every workload runs
in process through cli.main, and its stdout, stderr and --out file go to the
same checker, so such a failure shows in tier-1 before the benchmark runs.
Only perfbench/ is read: a change to its checker or batches is taken up here
as it is.
"""

import contextlib
import io
import sys
from pathlib import Path

import pytest

from causalatom import cli

PERFBENCH = str(Path(__file__).resolve().parents[1] / "perfbench")
sys.path.insert(0, PERFBENCH)
try:
    import checker
    import workloads
finally:
    sys.path.remove(PERFBENCH)

# the fewest digits an op may score: 15.0 and 15.03 were measured on
# quick-cli and split-sweep, and closed columns move by up to 1.1e-14 on other
# SIMD levels; ww-sweep scores ww-sim's rate against gamma_leading, 1.99 to 2.02
DIGIT_FLOORS = {"quick-cli": 13.5, "split-sweep": 13.5, "ww-sweep": 1.9}


def run_op(op, work: Path) -> tuple:
    """(exit code, stdout, stderr, --out text or None) of one op run by
    cli.main, with its paths under ``work``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(op.resolved_argv(str(work)))
        except SystemExit as exc:   # argparse's usage errors
            code = exc.code
    out_file = op.out_file and Path(op.out_file.replace(workloads.WORK, str(work)))
    out_text = out_file.read_text() if out_file and out_file.exists() else None
    return code, out.getvalue(), err.getvalue(), out_text


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_op_is_ok(tmp_path, workload, seed):
    batch = workloads.make_batch(workload, seed)
    for name, content in batch.files.items():
        (tmp_path / name).write_text(content)
    verdicts = [checker.check(op, *run_op(op, tmp_path)) for op in batch.ops]
    assert [(v.status, v.reason) for v in verdicts] == [("ok", "")] * len(verdicts)
    assert min(v.digits for v in verdicts) >= DIGIT_FLOORS[workload]
