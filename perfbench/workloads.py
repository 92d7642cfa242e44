"""Seeded batch generator.  The program sees only the argv and preset files.

A batch is a fixed list of CLI invocations; run.py repeats it, whole,
until the run's time is used up.  Seeded parameters are drawn by stratified
(Latin hypercube) sampling inside one batch, so two seeds give different
inputs but batches of similar cost, which keeps seed-to-seed spread small.

Paths inside argv are written relative to a work directory and use the
placeholder WORK, which run.py replaces.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field

from checker import hydrogen_atom, synthetic_atom

WORK = "{work}"
WORKLOADS = ("quick-cli", "split-sweep", "ww-sweep")
QUICK_COMMANDS = ("gamma", "ratio", "constants", "shift", "series-check",
                  "split-check", "wavepacket-check")
WAVEPACKET_PERIODS = (10, 100, 1000, 10000)


@dataclass(frozen=True)
class Op:
    op_id: int
    command: str
    argv: tuple            # CLI arguments, paths under WORK
    fmt: str               # json | csv (ww-sim: json summary + csv trace)
    atom: dict             # the atom the preset should resolve to
    params: dict = field(default_factory=dict)
    out_file: str | None = None  # --out target, under WORK

    def resolved_argv(self, work: str) -> list:
        return [a.replace(WORK, work) for a in self.argv]


@dataclass(frozen=True)
class Batch:
    ops: tuple
    files: dict            # relative name -> content, written under WORK


def _strata(rng: random.Random, n: int, lo: float, hi: float) -> list:
    """One uniform draw from each of n equal strata of [lo, hi], in stratum order."""
    return [lo + (hi - lo) * (i + rng.random()) / n for i in range(n)]


def _preset(rng: random.Random, kind: str, file_atom: dict):
    """(preset argument, expected atom) for a preset kind."""
    if kind == "hydrogen":
        return "hydrogen-1s2p", hydrogen_atom()
    if kind == "synthetic":
        du = 10.0 ** rng.uniform(-3.0, math.log10(5e-2))
        return f"synthetic:{du!r}", synthetic_atom(du)
    return f"{WORK}/atom.json", dict(file_atom)


def _file_atom(rng: random.Random) -> dict:
    h = hydrogen_atom()
    return {"m_g_kg": h["m_g_kg"] * 10.0 ** rng.uniform(0.0, 1.5),
            "omega_eg_rad_s": h["omega_eg_rad_s"] * rng.uniform(0.5, 1.5),
            "d_eg_Cm": h["d_eg_Cm"] * rng.uniform(0.5, 1.5),
            "t_g_s": rng.uniform(0.5, 2.0)}


def _quick_cli(rng: random.Random):
    """Every non-simulation command at default sizes, once as JSON and once
    as CSV, plus a third `shift`, shuffled, on seeded presets.  With three of
    the slowest command per batch, the tail invocation (10 beyond it) is a
    `shift` whenever a run makes four or more passes."""
    file_atom = _file_atom(rng)
    specs = [(command, fmt) for command in QUICK_COMMANDS for fmt in ("json", "csv")]
    specs.append(("shift", rng.choice(("json", "csv"))))
    rng.shuffle(specs)
    ops = []
    for i, (command, fmt) in enumerate(specs):
        preset, atom = _preset(rng, rng.choice(("hydrogen", "synthetic", "file")),
                               file_atom)
        argv = [command, "--preset", preset, "--format", fmt]
        params = {}
        if command == "series-check":
            params = {k: rng.uniform(-10.0, 10.0) for k in ("c0", "c1", "c2")}
            for k, v in params.items():
                argv += [f"--{k}", repr(v)]
        elif command == "split-check":
            params = {"u_min": 1.05, "u_max": 5.0, "points": 50}
            argv += ["--u-min", "1.05", "--u-max", "5.0", "--points", "50"]
        elif command == "wavepacket-check":
            params = {"plateau_periods": list(WAVEPACKET_PERIODS)}
        ops.append(Op(i, command, tuple(argv), fmt, atom, params))
    return ops, {"atom.json": json.dumps(file_atom, indent=2) + "\n"}


# split-sweep: u ranges per grid class; the ranges are kept narrow so the
# GK15 panel count per point (~16 on support, ~6 off) barely varies.
# In causalatom 0.1.0 the principal-value fold divides by zero for some
# points with |u| in about [3.13319, 3.13335] (a quadrature node rounds onto
# the pole) and split-check exits 1.  A seeded grid that crossed that band
# would fail on some seeds only; so the seeded on-support grids end below
# it, and one fixed grid across it runs in every batch, where the defect
# shows on every seed.
_SPLIT_CLASSES = {
    "on-support u>1": ((1.05, 1.25), (2.9, 3.1), 1.0),
    "on-support u<-1": ((1.05, 1.25), (2.9, 3.1), -1.0),
    "off-support 0<u<1": ((0.10, 0.20), (0.80, 0.90), 1.0),
}
SPLIT_PER_CLASS = 2
SPLIT_POLE_BAND = {"u_min": 3.1330, "u_max": 3.1336, "points": 200}


def _split_sweep(rng: random.Random):
    """Two ~1000-point split-check grids in each of three u classes, plus
    the fixed grid across the pole-fold band."""
    specs = [("pole-fold band", SPLIT_POLE_BAND["u_min"], SPLIT_POLE_BAND["u_max"],
              SPLIT_POLE_BAND["points"])]
    for name, ((lo0, lo1), (hi0, hi1), sign) in _SPLIT_CLASSES.items():
        los = _strata(rng, SPLIT_PER_CLASS, lo0, lo1)
        his = _strata(rng, SPLIT_PER_CLASS, hi0, hi1)
        rng.shuffle(his)
        for lo, hi in zip(los, his):
            u_min, u_max = (lo, hi) if sign > 0 else (-hi, -lo)
            specs.append((name, u_min, u_max, rng.randint(950, 1050)))
    rng.shuffle(specs)
    ops = []
    for i, (name, u_min, u_max, points) in enumerate(specs):
        kind = "hydrogen" if name == "pole-fold band" else rng.choice(("hydrogen", "synthetic"))
        preset, atom = _preset(rng, kind, {})
        argv = ("split-check", "--preset", preset, "--format", "json",
                "--u-min", repr(u_min), "--u-max", repr(u_max), "--points", str(points))
        ops.append(Op(i, "split-check", argv, "json", atom,
                      {"u_min": u_min, "u_max": u_max, "points": points, "class": name}))
    return ops, {}


# ww-sweep: one pinned op at the top of the mode range, with the default band
# and duration, carries the peak n_samples x N buffer; the seeded ops stay at
# or below 16k modes, where even the largest sample count (< 1200) keeps their
# buffer under the pinned one, so peak RSS measures the same op every seed.
WW_PINNED = {"n_modes": 32000, "bandwidth_gammas": 100.0, "t_end_gammas": 5.0}
WW_SEEDED = 7
WW_SEEDED_MODES = (4000, 16000)


def _ww_sweep(rng: random.Random):
    """Eight ww-sim runs: the pinned 32k-mode run and seven seeded ones
    (modes log-stratified, band and duration stratified), half writing the
    trace to a file."""
    lo, hi = (math.log(v) for v in WW_SEEDED_MODES)
    modes = [round(math.exp(x)) for x in _strata(rng, WW_SEEDED, lo, hi)]
    # the largest grids get the narrowest bands and shortest runs, so every
    # seeded op does about the same number of mode-steps (within ~15%); then
    # the median and the tail invocation are seeded ops of similar cost,
    # whatever the seed and however many passes fit in the run
    bands = _strata(rng, WW_SEEDED, 60.0, 140.0)[::-1]
    t_ends = _strata(rng, WW_SEEDED, 4.0, 6.0)[::-1]
    params = [dict(WW_PINNED)] + [
        {"n_modes": n, "bandwidth_gammas": b, "t_end_gammas": t}
        for n, b, t in zip(modes, bands, t_ends)]
    to_file = rng.sample(range(len(params)), len(params) // 2)
    order = list(range(len(params)))
    rng.shuffle(order)
    ops = []
    for i, k in enumerate(order):
        p = params[k]
        argv = ["ww-sim", "--n-modes", str(p["n_modes"]),
                "--bandwidth-gammas", repr(p["bandwidth_gammas"]),
                "--t-end-gammas", repr(p["t_end_gammas"])]
        out_file = f"{WORK}/ww-{i}.csv" if k in to_file else None
        if out_file:
            argv += ["--out", out_file]
        ops.append(Op(i, "ww-sim", tuple(argv), "json", hydrogen_atom(), p, out_file))
    return ops, {}


_GENERATORS = {"quick-cli": _quick_cli, "split-sweep": _split_sweep,
               "ww-sweep": _ww_sweep}


def make_batch(workload: str, seed: int) -> Batch:
    """The batch for a workload and seed; the same seed gives the same batch."""
    rng = random.Random(f"{workload}:{seed}")
    ops, files = _GENERATORS[workload](rng)
    return Batch(tuple(ops), files)
