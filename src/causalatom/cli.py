"""Batch command-line surface: every computation as a reproducible table.

Outputs are deterministic byte-for-byte: no timestamps, floats rendered with
17 significant digits (full round-trip), fields in fixed order.  Every JSON
envelope embeds the discrepancy notes (normalization-constant ordering,
rate-denominator power, ratio sign, the closed form's half rational part) so
downstream consumers cannot miss them.

Exit codes: 0 success, 1 computation failure (diagnostic JSON on stderr),
2 usage error.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import re
import sys
from pathlib import Path

from . import __version__
from .errors import CausalAtomError, PresetError
from .observables import (
    CONSTANTS_VERSION,
    CODATA2018,
    DISCREPANCY_NOTES,
    TWO_PI,
    AtomParams,
    NormalizationConstants,
    atom_from_dict,
    atom_to_dict,
    delta_final,
    extract_series_numerically,
    gamma_exact,
    gamma_leading,
    gamma_ratio_minus_one,
    hydrogen_1s2p_preset,
    lamb_reference,
    lineshift_log_bracket,
    lineshift_series,
    r2_prefactor,
    shift_prefactor,
    shift_ratio,
    solve_normalization,
    synthetic_atom,
)
from .selfenergy import split_check_report, split_grid
from .splitting import DEFAULT_TOL
from .wavepacket import DEFAULT_RAMP_FRACTION, convergence_study
from .wworacle import build_grid, evolve, fit_decay

__all__ = ["COMMANDS", "run", "emit_report", "main"]

DEFAULT_FLAGS = {"gamma_denominator_power": 5, "z_resonant_weight": "inverse_u"}
# a negative number after a flag is its value, -1e-3 and -inf as well as
# argparse's -1.5: every negative spelling that float() reads, but for "_"
_NEGATIVE_NUMBER = re.compile(r"^-((\d+\.?\d*|\.\d+)([eE][+-]?\d+)?|(?i:inf|infinity|nan))$")
SPLIT_CHECK_COLUMNS = ("u", "re_closed", "im_closed", "re_numeric", "im_numeric",
                       "im_rel_err", "re_rel_err")


# ---------------------------------------------------------------------------
# deterministic serialization
# ---------------------------------------------------------------------------

class Table(dict):
    """A table as its columns, name -> list of values, one per row: written as
    a list of one object per row (JSON) or one line per row (CSV)."""


_FLOAT = "%.17g"   # the slot of a float in a row template


def _rows(table: Table, leads: list, end: str, text) -> str:
    """The rows of ``table`` as text: a row is each ``leads[j]`` and the value
    of column j, and ``end`` ends every row but the last.  A float column has
    %.17g slots in the row template, any other %s slots for ``text`` of each
    value; one % fills all rows.  A value not finite is refused, the first in
    row order; a finite sum of each column's numbers shows that there is none."""
    cols = list(table.values())
    lengths = [len(c) for c in cols]
    if len(set(lengths)) > 1:
        raise ValueError(f"table columns differ in length: {lengths}")
    floats = [set(map(type, c)) <= {float} for c in cols]
    sums = [sum(c) if f else sum(x for x in c if type(x) in (float, complex))
            for c, f in zip(cols, floats)]
    if not math.isfinite(abs(sum(sums))):
        for r in zip(*cols):
            for x in r:
                if type(x) in (float, complex):
                    _json_text(x)
    row = "".join(lead + (_FLOAT if f else "%s") for lead, f in zip(leads, floats))
    flat = [None] * sum(lengths)   # the slots' values in row order
    for j, (c, f) in enumerate(zip(cols, floats)):
        flat[j::len(cols)] = c if f else [text(x) for x in c]
    return end.join([row] * max(lengths, default=0)) % tuple(flat)


def _json_text(v) -> str:
    """A float, complex, str, bool or int as JSON; a float, or part of a
    complex, that is not finite is refused."""
    t = type(v)
    if t is float or t is complex:
        for x in (v.real, v.imag):
            if not math.isfinite(x):
                raise CausalAtomError(f"result is not finite ({x}); nothing was written")
        return _FLOAT % v if t is float else '{"re": %.17g, "im": %.17g}' % (v.real, v.imag)
    if t is str:
        return json.dumps(v)
    if t is bool:
        return "true" if v else "false"
    if t is int:
        return str(v)
    raise TypeError(f"cannot serialize {t!r}")


def _json(v, out: list) -> None:
    """Append the text of ``v`` as JSON to ``out``, piece by piece."""
    t = type(v)
    if t is Table:
        leads = [(", " if j else "") + json.dumps(k).replace("%", "%%") + ": "
                 for j, k in enumerate(v)]
        rows = _rows(v, leads, "}, {", _json_text)   # empty only with no row
        out += ["[{", rows, "}]"] if rows else ["[]"]
    elif t is dict:
        out.append("{")
        for j, (k, item) in enumerate(v.items()):
            out.append((", " if j else "") + json.dumps(k) + ": ")
            _json(item, out)
        out.append("}")
    elif t is list:
        out.append("[")
        for i, item in enumerate(v):
            if i:
                out.append(", ")
            _json(item, out)
        out.append("]")
    else:
        out.append(_json_text(v))


def _dumps(doc: dict) -> str:
    out = []
    _json(doc, out)
    out.append("\n")
    return "".join(out)


def _csv_field(v) -> str:
    """A CSV field as csv.writer writes it with its "\\r\\n" terminator, a float
    with 17 digits; a float, or part of a complex, not finite is refused."""
    t = type(v)
    if t is float:
        return _json_text(v)
    if t not in (str, int, bool):
        if t is complex:
            _json_text(v)   # a part not finite is refused as in JSON
        raise TypeError(f"cannot serialize {t!r}")
    s = str(v)
    return '"' + s.replace('"', '""') + '"' if any(c in s for c in ',"\n\r') else s


def _csv(table: Table) -> str:
    """The CSV of a Table: its header line, then a line per row.  A line of
    one empty field is written "", as csv.writer writes it, so that it does
    not read back as a line of no field."""
    field = _csv_field if len(table) != 1 else lambda v: _csv_field(v) or '""'
    rows = _rows(table, [("," if j else "\n") for j in range(len(table))], "", field)
    return "".join([",".join(map(field, table)), rows, "\n"])


def emit_report(command: str, inputs: dict, results: dict) -> dict:
    """Assemble the stable envelope every command writes."""
    return {"command": command, "inputs": inputs, "results": results,
            "metadata": {"package": "causalatom", "version": __version__,
                         "constants_version": CONSTANTS_VERSION,
                         "flags": dict(DEFAULT_FLAGS), "notes": dict(DISCREPANCY_NOTES)}}


def _flat_csv(results: dict) -> str:
    """The CSV of ``results`` as one row, a nested key joined by dots."""
    flat = Table()

    def flatten(prefix, doc):
        for k, v in doc.items():
            if type(v) is dict:
                flatten(f"{prefix}{k}.", v)
            else:
                flat[prefix + k] = [v]

    flatten("", results)
    return _csv(flat)


def _write_output(text: str, out: str):
    if out == "-":
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


# ---------------------------------------------------------------------------
# preset resolution
# ---------------------------------------------------------------------------

def resolve_preset(name: str) -> AtomParams:
    """Resolve a preset name or JSON file path to AtomParams."""
    if name == "hydrogen-1s2p":
        return hydrogen_1s2p_preset()
    if name.startswith("synthetic:"):
        # synthetic:<delta_u> testing preset, e.g. synthetic:1e-2
        try:
            du = float(name.split(":", 1)[1])
        except ValueError as exc:
            raise PresetError(f"bad synthetic preset {name!r}") from exc
        return synthetic_atom(du)
    path = Path(name)
    if path.exists():
        try:
            doc = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise PresetError(f"cannot read preset file {name}: {exc}") from exc
        return atom_from_dict(doc)
    raise PresetError(f"unknown preset {name!r} (not a built-in name, not a file)")


# ---------------------------------------------------------------------------
# command implementations
# ---------------------------------------------------------------------------

def _nonzero(name: str, value: float, atom, fields) -> float:
    """``value``, which scales or divides the command's results; refused if it
    is 0, as a zero dipole or an underflowing power of omega_eg or 1/lambda_bar_g makes it."""
    if value == 0.0:
        doc = atom_to_dict(atom)
        named = ", ".join(f"{f} = {doc[f]:.6g}" for f in fields)
        raise PresetError(f"{name} is 0 for {named}; this command needs it nonzero")
    return value


def _cmd_gamma(atom, opts):
    g_lead = _nonzero("gamma_leading", gamma_leading(atom), atom,
                      ("d_eg_Cm", "omega_eg_rad_s"))
    return {
        "gamma_leading_per_s": g_lead,
        "gamma_exact_per_s": gamma_exact(atom, 5),
        "gamma_exact_power4_per_s": gamma_exact(atom, 4),
        "ratio_exact_to_leading_minus_one": gamma_ratio_minus_one(atom.delta_u, 5),
        "delta_u": atom.delta_u,
    }


def _cmd_shift(atom, opts):
    # the series fit is unit-free: SI enters here, as prefactor_per_s
    solved, series = solve_normalization()   # the series is the solve's own check
    return {
        "delta_final_per_s": delta_final(atom),
        "lamb_reference_per_s": lamb_reference(),
        "log_bracket": lineshift_log_bracket(atom.delta_u),
        "solved_normalization": {"c0": solved.c0, "c1": solved.c1, "c2": solved.c2},
        "series_with_solved_c": {
            "c0": series.c0, "c1": series.c1, "c2": series.c2,
            "c3": series.c3, "c_log3": series.c_log3,
            "prefactor_per_s": shift_prefactor(atom),
        },
    }


def _cmd_ratio(atom, opts):
    r = shift_ratio(atom)
    return {
        "ratio_signed": r,
        "ratio_magnitude": abs(r),
        "delta_final_per_s": delta_final(atom),
        "lamb_reference_per_s": lamb_reference(),
    }


def _cmd_split_check(atom, opts):
    # the check runs in units of r2_prefactor: SI enters here, and only here
    grid = split_grid(opts["u_min"], opts["u_max"], opts["points"])
    pref = _nonzero("r2_prefactor", r2_prefactor(atom), atom, ("d_eg_Cm", "m_g_kg"))
    rep = split_check_report(grid, tol=opts["tol"])
    cols = {name: getattr(rep, name) for name in SPLIT_CHECK_COLUMNS}
    for name in ("re_closed", "im_closed", "re_numeric", "im_numeric"):
        cols[name] = cols[name] * pref
    return {
        "rows": Table({name: col.tolist() for name, col in cols.items()}),
        "max_im_rel_err": float(rep.im_rel_err.max()),
        "max_re_rel_err": float(rep.re_rel_err.max()),
        "diagnostics": {
            "quadrature_evaluations": rep.quadrature_evaluations,
            "max_abs_error_estimate": rep.max_abs_error_estimate * pref,
        },
    }


def _cmd_series_check(atom, opts):
    # the series fit is unit-free: SI enters here, as prefactor_per_s
    c = NormalizationConstants(opts["c0"], opts["c1"], opts["c2"])
    ana = lineshift_series(c)
    fit = extract_series_numerically(c)
    names = ("c0", "c1", "c2", "c3", "c_log3")
    # each error relative to the largest analytic coefficient, |c_log3| = 48
    # at least: the fit's rounding scales with it, not with a small coefficient
    scale = max(abs(getattr(ana, n)) for n in names)
    rel = {n: abs(getattr(fit, n) - getattr(ana, n)) / scale for n in names}
    return {
        "c_input": {"c0": c.c0, "c1": c.c1, "c2": c.c2},
        "analytic": {n: getattr(ana, n) for n in names},
        "fitted": {n: getattr(fit, n) for n in names},
        "rel_error": rel,
        "max_rel_error": max(rel.values()),
        "prefactor_per_s": shift_prefactor(atom),
    }


def _cmd_wavepacket_check(atom, opts):
    # the Z check runs in units of lambda_bar_g: SI enters here, and only here
    periods = opts["plateau_periods"]
    pref = _nonzero("shift_prefactor (the scale of z_closed)", shift_prefactor(atom), atom,
                    ("d_eg_Cm", "m_g_kg"))
    delta_u = _nonzero("delta_u", atom.delta_u, atom, ("omega_eg_rad_s", "m_g_kg"))
    study = convergence_study(delta_u, NormalizationConstants(), periods,
                              opts["ramp_fraction"])
    scale = 6.0 * pref * atom.lambda_bar_g / CODATA2018.c
    rows = Table(plateau_periods=periods, t_g_s=[n * (TWO_PI / atom.omega_eg) for n in periods],
                 rel_error=[zc.rel_error for zc in study],
                 regime_flag=["ok" if zc.regime_ok else "wide-window" for zc in study],
                 **{name: [getattr(zc, name) * scale for zc in study] for name in
                    ("z_numerical", "z_closed", "z_closed_inverse_u")},
                 narrowness=[zc.narrowness for zc in study])
    rel = rows["rel_error"]
    return {"rows": rows, "monotone": all(b < a for a, b in zip(rel, rel[1:]))}


def _wavepacket_csv(results) -> str:
    rows = results["rows"]
    return _csv(Table(t_g=rows["t_g_s"], rel_error=rows["rel_error"],
                      regime_flag=rows["regime_flag"]))


def _cmd_ww_sim(atom, opts):
    # the oracle runs in units of gamma_leading: SI enters here, and only here
    gamma = _nonzero("gamma_leading", gamma_leading(atom), atom,
                     ("d_eg_Cm", "omega_eg_rad_s"))
    grid = build_grid(opts["bandwidth_gammas"], opts["n_modes"])
    ts, ces, norms = evolve(grid, opts["t_end_gammas"], opts["dt_gammas"])
    fit = fit_decay(ts, ces)
    ces = ces.tolist()
    trace = Table(t=(ts / gamma).tolist(), population=[abs(c) ** 2 for c in ces],
                  re_c_e=[c.real for c in ces], im_c_e=[c.imag for c in ces])
    summary = {
        "rate_per_s": fit.rate * gamma,
        "shift_rad_s": fit.shift * gamma,
        "residual": fit.fit_residual,
        "rate_over_gamma_leading": fit.rate,
        "n_modes": grid.n_modes,
        "norm_drift": float(abs(norms - 1.0).max()),
    }
    return summary, trace


def _cmd_constants(atom, opts):
    k = CODATA2018
    return {
        "hbar_J_s": k.hbar, "c_m_s": k.c, "eps0_F_m": k.eps0,
        "e_charge_C": k.e_charge, "a0_m": k.a0, "alpha": k.alpha,
        "m_electron_kg": k.m_electron, "m_proton_kg": k.m_proton,
        "alpha_consistency_rel": k.alpha_consistency_rel,
    }


def _ww_sim_render(command, fmt, out, inputs, results):
    """The trace CSV goes to --out and the JSON summary to stdout; with
    --out '-' the trace takes stdout and the summary moves to stderr."""
    summary, trace = results
    trace_csv = _csv(trace)
    envelope = emit_report(command, inputs, summary)
    envelope["metadata"]["grid_conventions"] = (
        "uniform comb, flat couplings, golden-rule calibration; grid choices "
        "are this package's own")
    doc = _dumps(envelope)
    if out == "-":
        sys.stdout.write(trace_csv)
        sys.stderr.write(doc)
    else:
        _write_output(trace_csv, out)
        sys.stdout.write(doc)


def _report_render(to_csv):
    """Renderer writing to --out either ``to_csv(results)`` or the JSON envelope."""
    def render(command, fmt, out, inputs, results):
        text = (to_csv(results) if fmt == "csv"
                else _dumps(emit_report(command, inputs, results)))
        _write_output(text, out)
    return render


# The single declaration of every command:
#   name -> (handler(atom, opts) -> results,
#            renderer(command, fmt, out, inputs, results), help, {flag: default})
# A flag's default fixes its argparse type: None means float, a list means one
# or more ints.
COMMANDS = {
    "gamma": (_cmd_gamma, _report_render(_flat_csv), "spontaneous emission rate", {}),
    "shift": (_cmd_shift, _report_render(_flat_csv),
              "line shift, solved normalization, series", {}),
    "ratio": (_cmd_ratio, _report_render(_flat_csv),
              "line shift over the reference shift", {}),
    "split-check": (_cmd_split_check, _report_render(lambda r: _csv(r["rows"])),
                    "numerical central splitting vs the closed form",
                    {"u_min": 1.05, "u_max": 5.0, "points": 50, "tol": DEFAULT_TOL}),
    "series-check": (_cmd_series_check, _report_render(_flat_csv),
                     "fitted line-shift series vs the analytic coefficients",
                     {"c0": 0.0, "c1": 0.0, "c2": 0.0}),
    "wavepacket-check": (_cmd_wavepacket_check, _report_render(_wavepacket_csv),
                         "slow-atom reduction convergence study",
                         {"plateau_periods": [10, 100, 1000, 10000],
                          "ramp_fraction": DEFAULT_RAMP_FRACTION}),
    "ww-sim": (_cmd_ww_sim, _ww_sim_render, "mode-discretized emission simulation",
               {"n_modes": 4000, "bandwidth_gammas": 100.0, "t_end_gammas": 5.0,
                "dt_gammas": None}),
    "constants": (_cmd_constants, _report_render(_flat_csv),
                  "physical constants registry", {}),
}


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------

def run(command: str, preset: str, fmt: str, out: str, opts: dict) -> int:
    """Execute one command; returns the process exit code."""
    try:
        atom = resolve_preset(preset)
        inputs = {"preset": preset, "atom": atom_to_dict(atom)}
        inputs.update({k: v for k, v in opts.items() if v is not None})
        handler, render, _, _ = COMMANDS[command]
        render(command, fmt, out, inputs, handler(atom, opts))
        return 0
    except (CausalAtomError, ValueError, OSError) as exc:
        diag = {"error": type(exc).__name__, "message": str(exc),
                "command": command}
        sys.stderr.write(_dumps(diag))
        return 1


def _build_parser(names=tuple(COMMANDS)) -> argparse.ArgumentParser:
    """The parser with the subparsers of the commands ``names``; its usage
    line names every command, whichever are built."""
    parser = argparse.ArgumentParser(
        prog="causalatom",
        description="Two-level-atom self-energy observables from causal "
                    "distribution splitting: decay rate, line shift, and the "
                    "numerical cross-checking oracles.")
    sub = parser.add_subparsers(dest="command", required=True)
    if tuple(names) != tuple(COMMANDS):
        # the usage line of the full parser, which lists every choice
        sub.metavar = "{" + ",".join(COMMANDS) + "}"
    for name in names:
        _, _, help_text, flags = COMMANDS[name]
        p = sub.add_parser(name, help=help_text)
        p._negative_number_matcher = _NEGATIVE_NUMBER
        p.add_argument("--preset", default="hydrogen-1s2p",
                       help="built-in name ('hydrogen-1s2p', 'synthetic:<delta_u>') "
                            "or path to an atom JSON file")
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--out", default="-", help="output path, '-' for stdout")
        for flag, default in flags.items():
            kind = ({"type": float} if default is None
                    else {"type": int, "nargs": "+"} if isinstance(default, list)
                    else {"type": type(default)})
            p.add_argument("--" + flag.replace("_", "-"), default=default, **kind)
    return parser


def main(argv=None) -> int:
    # what the process holds before the command (mostly what its imports
    # allocated) stays until it exits: keep it out of the scans of the
    # collections that the command's own allocations trigger
    gc.freeze()
    argv = sys.argv[1:] if argv is None else list(argv)
    # building every subparser costs more than most commands compute: when
    # the first argument names a command, argparse can only use its parser
    names = argv[:1] if argv and argv[0] in COMMANDS else tuple(COMMANDS)
    # argparse passes each of its messages through gettext, whose first
    # lookup imports locale: about half of what argparse costs a fresh
    # process.  The identity gives the text gettext gives without a catalog,
    # and keeps usage and help byte-for-byte the same under any locale.
    saved, argparse._ = argparse._, lambda m: m
    try:
        opts = vars(_build_parser(names).parse_args(argv))
    finally:
        argparse._ = saved
    return run(opts.pop("command"), opts.pop("preset"), opts.pop("format"),
               opts.pop("out"), opts)


if __name__ == "__main__":
    sys.exit(main())
