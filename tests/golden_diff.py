"""Compare the CLI of two source trees byte for byte, or record one tree's
digests.

    python tests/golden_diff.py OLD_SRC NEW_SRC
    python tests/golden_diff.py --write SRC

OLD_SRC and NEW_SRC are directories that hold a ``causalatom`` package (the
``src`` directory of two checkouts).  Each case of a fixed list runs as
``python -m causalatom.cli ARGS`` in a fresh process under each tree, in a
fresh working directory that holds the preset files below, so relative
``--out`` paths and preset paths read the same on both sides.  A case
differs if its stdout, stderr, exit code or any file it writes differs.
Prints each differing case, and under it the fields that differ in each
differing output: the dotted paths of a JSON document (a list index shown
as []) or the columns of a CSV table, each field of numbers with its
largest relative and largest absolute difference, so that a change in the
last bits reads as one, and so does rounding noise around 0.  Then a
summary: the count of differing cases, and a line per differing field with
its largest relative difference over all cases.  Exits 1 if any case
differs.

With --write, each case runs under SRC alone, and the sha256 of its stdout,
stderr and each file it writes, with its exit code, go to
golden_digests.json next to this script, under the Python version, the numpy
version and numpy's SIMD extensions that made them: numpy's exp and log
round differently on different SIMD paths.  tests/test_golden_digests.py
replays every case in process and compares.

This is a script, not a test module: pytest does not collect it.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ATOM = {"m_g_kg": 1.6735575e-27, "omega_eg_rad_s": 1.5497e16,
        "d_eg_Cm": 6.3e-30, "t_g_s": 1.0}
PRESETS = {
    "atom.json": ATOM,
    "bool.json": {**ATOM, "m_g_kg": True},
    "string.json": {**ATOM, "omega_eg_rad_s": "1.5e16"},
    "null.json": {**ATOM, "d_eg_Cm": None},
    "unknown.json": {**ATOM, "mystery": 3},
    "bigint.json": {**ATOM, "omega_eg_rad_s": 10 ** 400},
    "list.json": [ATOM],
    "100%s%%.json": ATOM,   # a % in the name reaches the JSON template as text
    "tiny-omega.json": {**ATOM, "omega_eg_rad_s": 1e-300},   # delta_u is 0
    # split-check's SI prefactor far from hydrogen's both ways (d2_scale
    # 1.3e270 and 2.8e-307): it scales the printed columns and enters no
    # quadrature
    "big-dipole.json": {**ATOM, "d_eg_Cm": 1e95},
    "tiny-scale.json": {"m_g_kg": 1e-49, "omega_eg_rad_s": 1.0, "d_eg_Cm": 1e-160,
                        "t_g_s": 1.0},
}
SCALE_GRID = ["--u-min", "1.05", "--u-max", "1e3", "--points", "20"]
DIGESTS = Path(__file__).with_name("golden_digests.json")
COMMANDS = ["gamma", "shift", "ratio", "split-check", "series-check",
            "wavepacket-check", "ww-sim", "constants"]
GRIDS = [["--u-min", "1.1", "--u-max", "3", "--points", "1000"],
         ["--u-min", "-3", "--u-max", "-1.1", "--points", "1000"],
         ["--u-min", "0.1", "--u-max", "0.9", "--points", "300"],
         ["--u-min", "3.1330", "--u-max", "3.1336", "--points", "200"],
         ["--u-min", "1e10", "--u-max", "1e11", "--points", "5"],
         ["--u-min", "1e16", "--u-max", "2e16", "--points", "5"],
         ["--u-min", "1e40", "--u-max", "1e50", "--points", "5"],
         ["--u-min", "1.000000002", "--u-max", "1.00001", "--points", "5"],
         ["--u-min", "1e300", "--u-max", "1.7e308", "--points", "5"],
         ["--u-min", "1e-10", "--u-max", "0.05", "--points", "5"],
         ["--u-min", "-0.05", "--u-max=-1e-10", "--points", "5"],
         ["--u-min", "-1e-3", "--u-max", "2", "--points", "3"],
         ["--u-min", "-inf", "--u-max", "2"],
         # u^4 is subnormal at the first and normal at the second, the
         # lowest |u| the closed form accepts
         ["--u-min", "7.262123179505771e-78", "--u-max", "7.262123179505771e-78",
          "--points", "1"],
         ["--u-min", "1.221338669755462e-77", "--u-max", "1.221338669755462e-77",
          "--points", "1"],
         ["--preset", "synthetic:1e-2", "--tol", "1e-3"]]


def cases() -> list:
    """The argument lists, each a case."""
    out = []
    for name in COMMANDS:
        out += [[name], [name, "--format", "csv"], [name, "--out", "out.txt"],
                [name, "--format", "csv", "--out", "out.txt"],
                [name, "--preset", "atom.json"], [name, "-h"]]
    out += [["ww-sim", "--out", "-"], ["ww-sim", "--format", "csv", "--out", "-"]]
    out += [["split-check", *grid] for grid in GRIDS]
    for f in ("big-dipole.json", "tiny-scale.json"):
        out += [["split-check", "--preset", f, *SCALE_GRID], ["shift", "--preset", f],
                ["series-check", "--c0", "1.5", "--preset", f], ["ratio", "--preset", f],
                ["wavepacket-check", "--preset", f], ["ww-sim", "--preset", f]]
    out += [["split-check", "--points", "1"], ["series-check", "--c0", "-1e-3"],
            ["series-check", "--c0", "-inf"],
            # the fit's coefficients overflow: the writer refuses them
            ["series-check", "--c0", "1e308", "--c1", "1e308"],
            ["series-check", "--c0", "1e308", "--c1", "1e308", "--format", "csv",
             "--out", "out.txt"],
            # analytic c0 is 2 beside coefficients of 6e300: each rel_error is
            # against the largest
            ["series-check", "--c0", "1e300", "--c1", "-1e300"],
            ["wavepacket-check", "--plateau-periods", "10", "100", "--format", "csv",
             "--out", "out.txt"],
            # rel_error there is the reduction error, not rounding as on hydrogen
            ["wavepacket-check", "--preset", "synthetic:1e-3"],
            ["series-check", "--c0", "1.5", "--c1", "-2", "--c2", "0.5"],
            ["wavepacket-check", "--preset", "synthetic:1e-3", "--ramp-fraction", "0.3",
             "--plateau-periods", "10", "100"],
            ["wavepacket-check", "--ramp-fraction", "0"],
            # refused in the units of the flags, and a preset whose delta_u
            # is 0
            ["wavepacket-check", "--plateau-periods", "0"],
            ["wavepacket-check", "--ramp-fraction", "inf"],
            ["wavepacket-check", "--ramp-fraction", "1e300", "--plateau-periods", "10"],
            ["wavepacket-check", "--preset", "tiny-omega.json"],
            # a ramp too narrow for the Z integral's FFT grid, refused, and
            # MIN_RAMP_FRACTION, the narrowest it resolves
            ["wavepacket-check", "--ramp-fraction", "1e-4"],
            ["wavepacket-check", "--ramp-fraction", "0.001455692721143495",
             "--plateau-periods", "10", "100"],
            ["ww-sim", "--n-modes", "2000", "--bandwidth-gammas", "60", "--t-end-gammas", "4",
             "--dt-gammas", "0.005", "--out", "out.txt"],
            # refused, each in the units of its flags: a step too long for
            # the band's fastest detuning, a negative step, a band below 40
            # gamma, a mode spacing above gamma/10, and tolerances not
            # finite and > 0
            ["ww-sim", "--dt-gammas", "0.01"], ["ww-sim", "--dt-gammas", "-1"],
            ["ww-sim", "--bandwidth-gammas", "30"],
            ["ww-sim", "--n-modes", "1000", "--bandwidth-gammas", "140"],
            ["split-check", "--tol", "0"], ["split-check", "--tol", "nan"],
            ["split-check", "--tol", "inf"]]
    out += [["gamma", "--preset", f] for f in PRESETS if f != "atom.json"]
    out += [["gamma", "--preset", "missing.json"], ["gamma", "--preset", "synthetic:x"],
            [], ["-h"], ["--version"], ["nope"], ["gamma", "--frobnicate"],
            ["gamma", "extra"], ["split-check", "--points", "x"], ["split-check", "--preset"],
            ["ww-sim", "--n-modes"], ["gamma", "--format", "xml"], ["shift", "--out"]]
    return out


def run(src: Path, argv: list) -> tuple:
    """(exit code, stdout, stderr, {file: bytes}) of one case under src."""
    with tempfile.TemporaryDirectory() as tmp:
        for name, doc in PRESETS.items():
            Path(tmp, name).write_text(json.dumps(doc))
        # COLUMNS as a pipe reads it, whatever the calling terminal's width
        env = dict(os.environ, PYTHONPATH=str(src), COLUMNS="80")
        proc = subprocess.run([sys.executable, "-m", "causalatom.cli", *argv], cwd=tmp,
                              env=env, capture_output=True, timeout=600)
        files = {p.name: p.read_bytes() for p in sorted(Path(tmp).iterdir())
                 if p.name not in PRESETS}
    return proc.returncode, proc.stdout, proc.stderr, files


def _leaves(doc, path="", out=None) -> dict:
    """Dotted path -> leaf values of a JSON document; the leaves of a list
    share one path, with the index shown as []."""
    out = {} if out is None else out
    if isinstance(doc, dict):
        for key, value in doc.items():
            _leaves(value, f"{path}.{key}" if path else key, out)
    elif isinstance(doc, list):
        for value in doc:
            _leaves(value, f"{path}[]", out)
    else:
        out.setdefault(path, []).append(doc)
    return out


def _columns(text: str) -> dict:
    """Column name -> cells of a CSV table; ValueError if text is not one."""
    header, *rows = csv.reader(io.StringIO(text))
    if not rows or any(len(r) != len(header) for r in rows):
        raise ValueError("not a CSV table")
    return {name: [r[j] for r in rows] for j, name in enumerate(header)}


def max_diffs(old: list, new: list):
    """The largest |a - b| / max(|a|, |b|) and the largest |a - b| over the
    paired values of one field, or None if the field is not numbers on both
    sides."""
    if not all(isinstance(v, str) for v in (*old, *new)):
        return None  # a JSON true, false or null
    try:
        pairs = [(float(a), float(b)) for a, b in zip(old, new, strict=True)]
    except ValueError:
        return None
    pairs = [(a, b) for a, b in pairs if a != b]
    return (max((abs(a - b) / max(abs(a), abs(b)) for a, b in pairs), default=0.0),
            max((abs(a - b) for a, b in pairs), default=0.0))


def field_diffs(old: bytes, new: bytes) -> dict:
    """The fields in which two outputs differ: JSON paths if both are JSON,
    CSV columns if both are tables with the same header, else the whole.
    Numbers compare as written, so -0 and 0 differ.  Each field maps to its
    max_diffs, None if it is not numbers on both sides."""
    try:
        a, b = (_leaves(json.loads(x, parse_float=str, parse_int=str)) for x in (old, new))
    except ValueError:
        try:
            a, b = _columns(old.decode()), _columns(new.decode())
        except (ValueError, UnicodeDecodeError):
            return {"(not JSON or CSV)": None}
        if list(a) != list(b):
            return {"(CSV header)": None}
    return {k: max_diffs(a.get(k, []), b.get(k, [])) for k in dict.fromkeys([*a, *b])
            if a.get(k) != b.get(k)}


def _field_text(field: str, diffs) -> str:
    """A field, followed by its largest relative and absolute differences if
    it is numbers on both sides."""
    return field if diffs is None else "%s (max rel diff %.2g, max abs diff %.2g)" % (
        field, *diffs)


def differing_fields(old: bytes, new: bytes) -> list:
    """field_diffs as text, a field a string."""
    return [_field_text(k, d) for k, d in field_diffs(old, new).items()]


def describe(a: tuple, b: tuple, worst: dict) -> list:
    """One line per differing output of two runs of a case; each differing
    field's largest relative difference is merged into ``worst`` (None for a
    field never of numbers)."""
    lines = [] if a[0] == b[0] else [f"exit: {a[0]} -> {b[0]}"]
    outputs = [("stdout", a[1], b[1]), ("stderr", a[2], b[2])]
    outputs += [(name, a[3].get(name, b""), b[3].get(name, b""))
                for name in sorted(set(a[3]) | set(b[3]))]
    for name, x, y in outputs:
        if x != y:
            fields = field_diffs(x, y) if x and y else {"(written on one side only)": None}
            lines.append(f"{name}: " + ", ".join(_field_text(k, d) for k, d in fields.items()))
            for k, d in fields.items():
                rels = [r for r in (worst.get(k), d and d[0]) if r is not None]
                worst[k] = max(rels, default=None)
    return lines


def environment() -> dict:
    """What the digests depend on besides the source."""
    import platform

    import numpy as np
    return {"python": platform.python_version(), "numpy": np.__version__,
            "simd": np.show_config(mode="dicts")["SIMD Extensions"]}


def digests(result: tuple) -> dict:
    """The exit code and the sha256 of each output of one run of a case."""
    def sha(data: bytes) -> str:
        return hashlib.sha256(data).hexdigest()

    code, stdout, stderr, files = result
    return {"exit": code, "stdout": sha(stdout), "stderr": sha(stderr),
            "files": {name: sha(data) for name, data in files.items()}}


def write_digests(src: Path) -> None:
    """golden_digests.json of the tree src, a case a line."""
    rows = [json.dumps({"argv": argv, **digests(run(src, argv))}) for argv in cases()]
    DIGESTS.write_text('{"environment": %s,\n "cases": [\n  %s\n]}\n'
                       % (json.dumps(environment()), ",\n  ".join(rows)))


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) == 2 and args[0] == "--write":
        write_digests(Path(args[1]).resolve())
        print(f"{len(cases())} cases written to {DIGESTS.name}")
        return 0
    if len(args) != 2:
        print(__doc__.strip().splitlines()[0], file=sys.stderr)
        print("usage: golden_diff.py OLD_SRC NEW_SRC | --write SRC", file=sys.stderr)
        return 2
    old, new = (Path(a).resolve() for a in args)
    todo = cases()
    differ = 0
    worst = {}
    for argv in todo:
        a, b = run(old, argv), run(new, argv)
        if a != b:
            differ += 1
            parts = [name for name, x, y in zip(("exit", "stdout", "stderr", "files"), a, b)
                     if x != y]
            print(f"DIFFERS ({', '.join(parts)}): {' '.join(argv) or '(no arguments)'}")
            for line in describe(a, b, worst):
                print(f"    {line}")
    print(f"{len(todo)} cases, {differ} differ")
    for k, rel in worst.items():
        print(f"    {k}: " + ("not numbers" if rel is None else "max rel diff %.2g" % rel))
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
