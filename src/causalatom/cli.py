"""Batch command-line surface: every computation as a reproducible table.

Outputs are deterministic byte-for-byte: no timestamps, floats rendered with
17 significant digits (full round-trip), fields in fixed order.  Every JSON
envelope embeds the discrepancy notes (normalization-constant ordering,
rate-denominator power, ratio sign) so downstream consumers cannot miss them.

Exit codes: 0 success, 1 computation failure (diagnostic JSON on stderr),
2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .errors import CausalAtomError, PresetError
from .observables import (
    CONSTANTS_VERSION,
    CODATA2018,
    DISCREPANCY_NOTES,
    AtomParams,
    atom_from_dict,
    atom_to_dict,
    delta_final,
    extract_series_numerically,
    gamma_exact,
    gamma_leading,
    hydrogen_1s2p_preset,
    lamb_reference,
    lineshift_log_bracket,
    lineshift_series,
    shift_ratio,
    solve_normalization,
    synthetic_atom,
)
from .selfenergy import NormalizationConstants, check_split_grid, split_check_report
from .wavepacket import convergence_study
from .wworacle import build_grid, evolve, fit_decay

__all__ = ["COMMANDS", "run", "emit_report", "main"]

DEFAULT_FLAGS = {"gamma_denominator_power": 5, "z_resonant_weight": "inverse_u"}


# ---------------------------------------------------------------------------
# deterministic serialization
# ---------------------------------------------------------------------------

def _fmt_float(x: float) -> str:
    if not math.isfinite(x):
        raise CausalAtomError(f"result is not finite ({x}); nothing was written")
    return f"{x:.17g}"


def _write_json_value(v, out: list):
    if isinstance(v, bool):
        out.append("true" if v else "false")
    elif isinstance(v, (int, np.integer)):
        out.append(str(int(v)))
    elif isinstance(v, (float, np.floating)):
        out.append(_fmt_float(float(v)))
    elif isinstance(v, complex):
        _write_json_value({"re": v.real, "im": v.imag}, out)
    elif isinstance(v, str):
        out.append(json.dumps(v))
    elif v is None:
        out.append("null")
    elif isinstance(v, dict):
        out.append("{")
        for i, (k, item) in enumerate(v.items()):
            if i:
                out.append(", ")
            out.append(json.dumps(str(k)))
            out.append(": ")
            _write_json_value(item, out)
        out.append("}")
    elif isinstance(v, (list, tuple, np.ndarray)):
        out.append("[")
        seq = v.tolist() if isinstance(v, np.ndarray) else v
        for i, item in enumerate(seq):
            if i:
                out.append(", ")
            _write_json_value(item, out)
        out.append("]")
    else:
        raise TypeError(f"cannot serialize {type(v)!r}")


def _dumps(doc: dict) -> str:
    out: list = []
    _write_json_value(doc, out)
    return "".join(out) + "\n"


def emit_report(command: str, inputs: dict, results: dict,
                extra_metadata: dict | None = None) -> dict:
    """Assemble the stable envelope every command writes."""
    metadata = {
        "package": "causalatom",
        "version": __version__,
        "constants_version": CONSTANTS_VERSION,
        "flags": dict(DEFAULT_FLAGS),
        "notes": dict(DISCREPANCY_NOTES),
    }
    if extra_metadata:
        metadata.update(extra_metadata)
    return {"command": command, "inputs": inputs, "results": results,
            "metadata": metadata}


def _csv_from_rows(header, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_fmt_float(v) if isinstance(v, (float, np.floating))
                         else v for v in row])
    return buf.getvalue()


def _flat_csv(results: dict) -> str:
    keys, vals = [], []

    def emit(key, v):
        if isinstance(v, dict):
            for k2, v2 in v.items():
                emit(f"{key}.{k2}" if key else str(k2), v2)
        elif isinstance(v, (list, tuple)):
            for i, v2 in enumerate(v):
                emit(f"{key}[{i}]", v2)
        elif isinstance(v, complex):
            emit(f"{key}.re", v.real)
            emit(f"{key}.im", v.imag)
        else:
            keys.append(key)
            vals.append(_fmt_float(float(v)) if isinstance(v, (float, np.floating))
                        else str(v))

    emit("", results)
    return _csv_from_rows(keys, [vals])


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

def _cmd_gamma(atom, opts):
    g_lead = gamma_leading(atom)
    g5 = gamma_exact(atom, 5)
    g4 = gamma_exact(atom, 4)
    return {
        "gamma_leading_per_s": g_lead,
        "gamma_exact_per_s": g5,
        "gamma_exact_power4_per_s": g4,
        "ratio_exact_to_leading_minus_one": g5 / g_lead - 1.0,
        "delta_u": atom.delta_u,
    }


def _cmd_shift(atom, opts):
    solved = solve_normalization(atom)
    series = extract_series_numerically(atom, solved)
    return {
        "delta_final_per_s": delta_final(atom),
        "lamb_reference_per_s": lamb_reference(atom.constants),
        "log_bracket": lineshift_log_bracket(atom.delta_u),
        "solved_normalization": {"c0": solved.c0, "c1": solved.c1, "c2": solved.c2},
        "series_with_solved_c": {
            "c0": series.c0, "c1": series.c1, "c2": series.c2,
            "c3": series.c3, "c_log3": series.c_log3,
            "prefactor_per_s": series.prefactor,
        },
    }


def _cmd_ratio(atom, opts):
    r = shift_ratio(atom, atom.constants)
    return {
        "ratio_signed": r.value,
        "ratio_magnitude": r.magnitude,
        "delta_final_per_s": delta_final(atom),
        "lamb_reference_per_s": lamb_reference(atom.constants),
    }


def _cmd_split_check(atom, opts):
    points = opts["points"]
    check_split_grid(opts["u_min"], opts["u_max"], points)  # before np.linspace
    grid = np.linspace(opts["u_min"], opts["u_max"], points)
    rep = split_check_report(atom, grid, tol=opts["tol"])
    rows = [
        {"u": float(rep.u[i]),
         "re_closed": float(rep.re_closed[i]),
         "im_closed": float(rep.im_closed[i]),
         "re_numeric": float(rep.re_numeric[i]),
         "im_numeric": float(rep.im_numeric[i]),
         "im_rel_err": float(rep.im_rel_err[i])}
        for i in range(points)
    ]
    return {
        "rows": rows,
        "max_im_rel_err": float(rep.im_rel_err.max()),
        "real_difference_fit": {
            "basis": ["1", "u", "u^2"],
            "coefficients_bracket_units": list(rep.real_fit_coefficients),
            "max_abs_deviation_bracket_units": rep.real_fit_max_deviation,
        },
        "real_difference_fit_extended": {
            "basis": ["1", "u", "u^2", "u^-2"],
            "coefficients_bracket_units": list(rep.real_fit_extended_coefficients),
            "max_abs_deviation_bracket_units": rep.real_fit_extended_max_deviation,
        },
        "real_agreement_status": (
            "imaginary parts agree to quadrature accuracy; the real parts "
            "differ by the non-polynomial rational piece fitted above (the "
            "{1,u,u^2,u^-2} fit closes it), so the closed form and the "
            "central splitting differ by more than a degree-2 polynomial"
        ),
    }


def _split_check_csv(results) -> str:
    header = ["u", "re_closed", "im_closed", "re_numeric", "im_numeric", "im_rel_err"]
    rows = [[r[h] for h in header] for r in results["rows"]]
    return _csv_from_rows(header, rows)


def _cmd_series_check(atom, opts):
    c = NormalizationConstants(opts["c0"], opts["c1"], opts["c2"])
    ana = lineshift_series(atom, c)
    fit = extract_series_numerically(atom, c)
    names = ("c0", "c1", "c2", "c3", "c_log3")
    rel = {}
    for n in names:
        a, f = getattr(ana, n), getattr(fit, n)
        rel[n] = abs(f - a) / abs(a) if a != 0 else abs(f)
    return {
        "c_input": {"c0": c.c0, "c1": c.c1, "c2": c.c2},
        "analytic": {n: getattr(ana, n) for n in names},
        "fitted": {n: getattr(fit, n) for n in names},
        "rel_error": rel,
        "max_rel_error": max(rel.values()),
        "prefactor_per_s": ana.prefactor,
    }


def _cmd_wavepacket_check(atom, opts):
    decades = opts["plateau_periods"]
    study = convergence_study(atom, NormalizationConstants(), decades,
                              ramp_fraction=opts["ramp_fraction"])
    rows = []
    for (t_g, zc), n in zip(study, decades):
        rows.append({
            "plateau_periods": n,
            "t_g_s": t_g,
            "rel_error": zc.rel_error,
            "regime_flag": "ok" if zc.regime_ok else "wide-window",
            "z_numerical": zc.z_numerical,
            "z_closed": zc.z_closed,
            "z_closed_inverse_u": zc.z_closed_inverse_u,
            "narrowness": zc.narrowness,
        })
    return {"rows": rows,
            "monotone": all(rows[i + 1]["rel_error"] < rows[i]["rel_error"]
                            for i in range(len(rows) - 1))}


def _wavepacket_csv(results) -> str:
    header = ["t_g", "rel_error", "regime_flag"]
    rows = [[r["t_g_s"], r["rel_error"], r["regime_flag"]] for r in results["rows"]]
    return _csv_from_rows(header, rows)


def _cmd_ww_sim(atom, opts):
    gamma = gamma_leading(atom)
    n_modes = opts["n_modes"]
    bandwidth = opts["bandwidth_gammas"] * gamma
    t_end = opts["t_end_gammas"] / gamma
    grid = build_grid(atom, bandwidth, n_modes)
    max_det = float(np.abs(grid.frequencies - atom.omega_eg).max())
    dt = opts["dt_gammas"]
    dt = 0.19 / max_det if dt is None else dt / gamma
    trace = evolve(grid, atom, t_end, dt)
    fit = fit_decay(trace)
    rows = [[s.t, abs(s.c_e) ** 2, s.c_e.real, s.c_e.imag] for s in trace]
    summary = {
        "rate_per_s": fit.rate,
        "shift_rad_s": fit.shift,
        "residual": fit.fit_residual,
        "rate_over_gamma_leading": fit.rate / gamma,
        "n_modes": n_modes,
        "norm_drift": max(abs(s.norm - 1.0) for s in trace),
    }
    return summary, rows


def _cmd_constants(atom, opts):
    k = CODATA2018
    return {
        "hbar_J_s": k.hbar, "c_m_s": k.c, "eps0_F_m": k.eps0,
        "e_charge_C": k.e_charge, "a0_m": k.a0, "alpha": k.alpha,
        "m_electron_kg": k.m_electron, "m_proton_kg": k.m_proton,
        "alpha_consistency_rel": abs(
            k.e_charge ** 2 / (4 * math.pi * k.eps0 * k.hbar * k.c) / k.alpha - 1.0),
    }


def _ww_sim_render(command, fmt, out, inputs, results):
    """The trace CSV goes to --out and the JSON summary to stdout; with
    --out '-' the trace takes stdout and the summary moves to stderr."""
    summary, rows = results
    trace_csv = _csv_from_rows(["t", "population", "re_c_e", "im_c_e"], rows)
    doc = _dumps(emit_report(command, inputs, summary,
                             extra_metadata={"ww_backend": "numpy",
                                             "grid_conventions": (
                                                 "uniform comb, flat couplings, "
                                                 "golden-rule calibration; grid "
                                                 "choices are this package's own")}))
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
    "split-check": (_cmd_split_check, _report_render(_split_check_csv),
                    "numerical central splitting vs the closed form",
                    {"u_min": 1.05, "u_max": 5.0, "points": 50, "tol": 1e-11}),
    "series-check": (_cmd_series_check, _report_render(_flat_csv),
                     "fitted line-shift series vs the analytic coefficients",
                     {"c0": 0.0, "c1": 0.0, "c2": 0.0}),
    "wavepacket-check": (_cmd_wavepacket_check, _report_render(_wavepacket_csv),
                         "slow-atom reduction convergence study",
                         {"plateau_periods": [10, 100, 1000, 10000],
                          "ramp_fraction": 0.1}),
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


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="causalatom",
        description="Two-level-atom self-energy observables from causal "
                    "distribution splitting: decay rate, line shift, and the "
                    "numerical cross-checking oracles.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, _, help_text, flags) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
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
    opts = vars(_build_parser().parse_args(argv))
    return run(opts.pop("command"), opts.pop("preset"), opts.pop("format"),
               opts.pop("out"), opts)


if __name__ == "__main__":
    sys.exit(main())
