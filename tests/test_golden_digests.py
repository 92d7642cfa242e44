"""Every golden case, replayed in process, against the committed digests.

tests/golden_digests.json holds the sha256 of the stdout, stderr and written
files of each case of golden_diff.cases(), with its exit code, as fresh
``python -m causalatom.cli`` processes wrote them.  A change of output, on
purpose or not, fails here; one on purpose regenerates the table with
``python tests/golden_diff.py --write src`` and lists the changed cases in
CHANGES.md.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

import golden_diff
from causalatom.cli import main


def replay(argv: list, where: Path) -> tuple:
    """(exit code, stdout, stderr, {file: bytes}) of one case run by cli.main
    in ``where``, a directory that holds the preset files alone."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:   # argparse's usage errors and -h
            code = exc.code
    files = {p.name: p.read_bytes() for p in sorted(where.iterdir())
             if p.name not in golden_diff.PRESETS}
    return code, out.getvalue().encode(), err.getvalue().encode(), files


def test_every_case_matches_its_digests(tmp_path, monkeypatch):
    table = json.loads(golden_diff.DIGESTS.read_text())
    here = golden_diff.environment()
    if table["environment"] != here:
        pytest.skip(f"digests made under {table['environment']}, this is {here}")
    monkeypatch.setenv("COLUMNS", "80")   # -h wraps as it does under a pipe
    got = []
    for i, argv in enumerate(golden_diff.cases()):
        where = tmp_path / str(i)
        where.mkdir()
        for name, doc in golden_diff.PRESETS.items():
            (where / name).write_text(json.dumps(doc))
        monkeypatch.chdir(where)
        got.append({"argv": argv, **golden_diff.digests(replay(argv, where))})
    want = table["cases"]
    assert [c["argv"] for c in got] == [c["argv"] for c in want]
    differ = [" ".join(g["argv"]) for g, w in zip(got, want) if g != w]
    assert differ == []
