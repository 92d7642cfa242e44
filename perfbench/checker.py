"""Output checker for the benchmark.  Imports nothing from causalatom.

Every op must end one of two ways (the contract in ROADMAP.md): exit 0 with
finite numbers in every numeric field, or exit 1 with a typed JSON
diagnostic on stderr.  An op that exits 0 is then compared against
references computed here from CODATA 2018 and the paper's closed forms.

Verdicts:
  ok       finite output that matches every reference
  refused  exit 1 with a typed diagnostic (counted as failed)
  failed   contract violation: NaN or inf in the output, another exit code,
           an untyped diagnostic, or a timeout (counted as failed)
  wrong    finite output that disagrees with a reference, or output that
           does not parse (makes the run incorrect)

Accuracy of an ok op: for each compared group of values, the deviation
max|value - reference| is scaled by the largest reference magnitude of the
group (for split-check rows: of the whole op), and the op scores the
smallest -log10 over its groups, capped at 17 digits.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re
from dataclasses import dataclass

# CODATA 2018, the registry the program documents
HBAR = 1.054571817e-34
C = 299792458.0
EPS0 = 8.8541878128e-12
E_CHARGE = 1.602176634e-19
A0 = 5.29177210903e-11
ALPHA = 7.2973525693e-3
M_ELECTRON = 9.1093837015e-31
M_PROTON = 1.67262192369e-27
CODATA = {"hbar_J_s": HBAR, "c_m_s": C, "eps0_F_m": EPS0, "e_charge_C": E_CHARGE,
          "a0_m": A0, "alpha": ALPHA, "m_electron_kg": M_ELECTRON,
          "m_proton_kg": M_PROTON}

TWO_PI = 2.0 * math.pi
NORMALIZATION_TRIPLE = (-7.0 / 2.0, 8.0, -29.0 / 6.0)
MAX_DIGITS = 17.0
WW_RATE_TOL = 0.02
WW_NORM_DRIFT_MAX = 1e-6

_NONFINITE = {"nan", "-nan", "inf", "+inf", "-inf", "infinity", "-infinity"}


# ---------------------------------------------------------------------------
# reference atoms and closed forms
# ---------------------------------------------------------------------------

def hydrogen_atom() -> dict:
    """1s-2p: hbar omega = 0.75 * 13.6 eV, |d| = sqrt(2) 2^7 3^-5 e a0."""
    return {"m_g_kg": M_PROTON + M_ELECTRON,
            "omega_eg_rad_s": 0.75 * 13.6 * E_CHARGE / HBAR,
            "d_eg_Cm": math.sqrt(2.0) * 2 ** 7 * 3 ** -5.0 * E_CHARGE * A0,
            "t_g_s": 1.0}


def synthetic_atom(delta_u: float) -> dict:
    """Hydrogen frequency and dipole, mass tuned to the given delta_u."""
    atom = hydrogen_atom()
    atom["m_g_kg"] = HBAR * atom["omega_eg_rad_s"] / (delta_u * C ** 2)
    return atom


def delta_u(atom) -> float:
    return HBAR * atom["omega_eg_rad_s"] / (atom["m_g_kg"] * C ** 2)


def _lambda_bar(atom) -> float:
    return HBAR / (atom["m_g_kg"] * C)


def gamma_leading(atom) -> float:
    return atom["d_eg_Cm"] ** 2 * atom["omega_eg_rad_s"] ** 3 / (
        3.0 * math.pi * HBAR * EPS0 * C ** 3)


def gamma_exact(atom, power: int) -> float:
    du = delta_u(atom)
    return (du ** 3 * (2.0 + du) ** 3 * atom["d_eg_Cm"] ** 2
            / (24.0 * math.pi * (1.0 + du) ** power * EPS0 * HBAR
               * _lambda_bar(atom) ** 3))


def delta_final(atom) -> float:
    return -gamma_leading(atom) / TWO_PI * (1.0 + 2.0 * math.log(2.0 * delta_u(atom)))


def lamb_reference() -> float:
    bracket = -25.25 + (4.0 / 3.0) * math.log(ALPHA ** -2.0)
    return M_ELECTRON * C ** 2 * ALPHA ** 5 / (math.pi * HBAR) * bracket


def shift_prefactor(atom) -> float:
    return atom["d_eg_Cm"] ** 2 / (144.0 * math.pi ** 2 * EPS0 * HBAR
                                   * _lambda_bar(atom) ** 3)


def series_coefficients(c0, c1, c2) -> dict:
    """Analytic line-shift bracket coefficients for normalization (c0, c1, c2)."""
    return {"c0": 2.0 + 6.0 * (c0 + c1 + c2), "c1": 8.0 - 6.0 * c0 + 6.0 * c2,
            "c2": 3.0 * (2.0 * c0 + 7.0), "c3": -3.0 * (2.0 * c0 + 15.0),
            "c_log3": -48.0}


def retarded_closed(u: float, atom) -> complex:
    """Closed-form retarded self-energy at rest (SI units)."""
    pref = atom["d_eg_Cm"] ** 2 / (6.0 * TWO_PI ** 4 * HBAR * C * EPS0
                                   * _lambda_bar(atom) ** 3)
    x = u * u - 1.0
    front = x ** 3 / (2.0 * u ** 4)
    im = front * TWO_PI * math.copysign(1.0, u) if x > 0.0 else 0.0
    re = front * (-2.0 * math.log(abs(x))) + 1.0 / (2.0 * u * u) - 1.25 + 11.0 * u * u / 12.0
    return complex(pref * re, pref * im)


def resonant_bracket(du: float) -> complex:
    """Symmetrized bracket at u = 1 + du with zero normalization constants."""
    u = 1.0 + du
    x = du * (2.0 + du)
    front = x ** 3 / (2.0 * u ** 4)
    return (complex(front * -2.0 * math.log(x), front * TWO_PI)
            + 1.0 / u ** 2 - 2.5 + 11.0 * u ** 2 / 6.0)


def linspace(lo: float, hi: float, n: int) -> list:
    step = (hi - lo) / (n - 1)
    return [lo + i * step for i in range(n - 1)] + [hi]


# ---------------------------------------------------------------------------
# verdicts
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Verdict:
    status: str            # ok | refused | failed | wrong
    reason: str = ""
    digits: float | None = None  # accuracy of an ok op

    @property
    def failed(self) -> bool:
        return self.status in ("refused", "failed")


class _Wrong(Exception):
    pass


class _NonFinite(Exception):
    pass


class _Groups:
    """Collects (values, references) groups and their accuracy."""

    def __init__(self):
        self.digits = MAX_DIGITS

    def compare(self, label, values, refs, tol, scale=None):
        values, refs = list(values), list(refs)
        if len(values) != len(refs):
            raise _Wrong(f"{label}: {len(values)} values for {len(refs)} references")
        if scale is None:
            scale = max(abs(r) for r in refs)
        dev = max(abs(v - r) for v, r in zip(values, refs))
        rel = dev / scale if scale > 0 else dev
        if not rel <= tol:
            raise _Wrong(f"{label}: deviation {rel:.3e} exceeds {tol:.0e}")
        self.digits = min(self.digits, -math.log10(max(rel, 10.0 ** -MAX_DIGITS)))


def _num(v, label):
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise _Wrong(f"{label}: expected a number, got {v!r}")
    return float(v)


def _cplx(v, label):
    if not isinstance(v, dict) or set(v) != {"re", "im"}:
        raise _Wrong(f"{label}: expected a complex {{re, im}}, got {v!r}")
    return complex(_num(v["re"], label), _num(v["im"], label))


def _reject_constant(name):
    raise _NonFinite(f"non-finite literal {name} in JSON")


def _scan_json(v, path="results"):
    """Raise _NonFinite on NaN/inf, whether a float or a serialized string."""
    if isinstance(v, dict):
        for k, item in v.items():
            _scan_json(item, f"{path}.{k}")
    elif isinstance(v, list):
        for i, item in enumerate(v):
            _scan_json(item, f"{path}[{i}]")
    elif isinstance(v, float) and not math.isfinite(v):
        raise _NonFinite(f"{path} is {v}")
    elif isinstance(v, str) and v.strip().lower() in _NONFINITE:
        raise _NonFinite(f"{path} is the string {v!r}")


def parse_json(text: str) -> dict:
    try:
        doc = json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise _Wrong(f"stdout is not JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise _Wrong("JSON output is not an object")
    _scan_json(doc, "doc")
    return doc


def parse_csv(text: str) -> list:
    """Rows of a CSV table as dicts; cells that read as numbers become floats."""
    rows = list(csv.reader(io.StringIO(text)))
    if len(rows) < 2:
        raise _Wrong("CSV output has no data rows")
    header, out = rows[0], []
    for r in rows[1:]:
        if len(r) != len(header):
            raise _Wrong("ragged CSV row")
        rec = {}
        for k, cell in zip(header, r):
            if cell.strip().strip('"').lower() in _NONFINITE:
                raise _NonFinite(f"CSV cell {k} is {cell!r}")
            try:
                rec[k] = float(cell)
            except ValueError:
                rec[k] = cell
            else:
                if not math.isfinite(rec[k]):
                    raise _NonFinite(f"CSV cell {k} is {cell!r}")
        out.append(rec)
    return out


def _envelope_results(doc, op):
    if doc.get("command") != op.command:
        raise _Wrong(f"envelope command {doc.get('command')!r} != {op.command!r}")
    atom = doc.get("inputs", {}).get("atom")
    if not isinstance(atom, dict):
        raise _Wrong("envelope lacks inputs.atom")
    for k, ref in op.atom.items():
        if abs(_num(atom.get(k), k) - ref) > 1e-14 * abs(ref):
            raise _Wrong(f"inputs.atom.{k} = {atom.get(k)!r}, expected {ref!r}")
    results = doc.get("results")
    if not isinstance(results, dict):
        raise _Wrong("envelope lacks results")
    return results


def _flat(results: dict) -> dict:
    """Flatten nested JSON results to the dotted keys the CSV writer uses."""
    out = {}

    def walk(prefix, v):
        if isinstance(v, dict):
            if set(v) == {"re", "im"}:
                out[f"{prefix}.re"], out[f"{prefix}.im"] = v["re"], v["im"]
                return
            for k, item in v.items():
                walk(f"{prefix}.{k}" if prefix else k, item)
        elif isinstance(v, list):
            for i, item in enumerate(v):
                walk(f"{prefix}[{i}]", item)
        else:
            out[prefix] = v

    walk("", results)
    return out


def _scalar_results(op, stdout):
    if op.fmt == "json":
        return _flat(_envelope_results(parse_json(stdout), op))
    rows = parse_csv(stdout)
    if len(rows) != 1:
        raise _Wrong(f"flat CSV has {len(rows)} data rows")
    return rows[0]


def _get(r, key):
    if key not in r:
        raise _Wrong(f"missing field {key}")
    return _num(r[key], key)


# ---------------------------------------------------------------------------
# per-command checks; each returns the op's accuracy in digits
# ---------------------------------------------------------------------------

def _check_gamma(op, stdout, g):
    r = _scalar_results(op, stdout)
    a = op.atom
    g.compare("gamma rates",
              [_get(r, "gamma_leading_per_s"), _get(r, "gamma_exact_per_s"),
               _get(r, "gamma_exact_power4_per_s")],
              [gamma_leading(a), gamma_exact(a, 5), gamma_exact(a, 4)], 1e-12)
    # the field is exact/leading - 1; compared as the ratio itself
    g.compare("exact/leading", [1.0 + _get(r, "ratio_exact_to_leading_minus_one")],
              [gamma_exact(a, 5) / gamma_leading(a)], 1e-12)
    g.compare("delta_u", [_get(r, "delta_u")], [delta_u(a)], 1e-12)


def _check_ratio(op, stdout, g):
    r = _scalar_results(op, stdout)
    ratio = delta_final(op.atom) / lamb_reference()
    g.compare("ratio_signed", [_get(r, "ratio_signed")], [ratio], 1e-12)
    g.compare("ratio_magnitude", [_get(r, "ratio_magnitude")], [abs(ratio)], 1e-12)
    g.compare("delta_final", [_get(r, "delta_final_per_s")], [delta_final(op.atom)], 1e-12)
    g.compare("lamb_reference", [_get(r, "lamb_reference_per_s")], [lamb_reference()], 1e-12)


def _check_constants(op, stdout, g):
    r = _scalar_results(op, stdout)
    for k, ref in CODATA.items():
        g.compare(k, [_get(r, k)], [ref], 1e-15)
    consistency = abs(E_CHARGE ** 2 / (4 * math.pi * EPS0 * HBAR * C) / ALPHA - 1.0)
    g.compare("alpha_consistency", [1.0 + _get(r, "alpha_consistency_rel")],
              [1.0 + consistency], 1e-15)


def _check_shift(op, stdout, g):
    r = _scalar_results(op, stdout)
    solved = [_get(r, f"solved_normalization.{k}") for k in ("c0", "c1", "c2")]
    g.compare("solved (C0, C1, C2)", solved, NORMALIZATION_TRIPLE, 1e-8)
    ref = series_coefficients(*solved)
    g.compare("series with solved C",
              [_get(r, f"series_with_solved_c.{k}") for k in ref], ref.values(), 1e-8)
    g.compare("series prefactor", [_get(r, "series_with_solved_c.prefactor_per_s")],
              [shift_prefactor(op.atom)], 1e-12)
    g.compare("delta_final", [_get(r, "delta_final_per_s")], [delta_final(op.atom)], 1e-12)
    g.compare("lamb_reference", [_get(r, "lamb_reference_per_s")], [lamb_reference()], 1e-12)
    g.compare("log_bracket", [_get(r, "log_bracket")],
              [1.0 + 2.0 * math.log(2.0 * delta_u(op.atom))], 1e-12)


def _check_series(op, stdout, g):
    r = _scalar_results(op, stdout)
    c = [op.params[k] for k in ("c0", "c1", "c2")]
    g.compare("c_input", [_get(r, f"c_input.{k}") for k in ("c0", "c1", "c2")], c, 1e-15)
    ref = series_coefficients(*c)
    g.compare("analytic", [_get(r, f"analytic.{k}") for k in ref], ref.values(), 1e-13)
    g.compare("fitted", [_get(r, f"fitted.{k}") for k in ref], ref.values(), 1e-8)
    g.compare("prefactor", [_get(r, "prefactor_per_s")], [shift_prefactor(op.atom)], 1e-12)


def _check_split(op, stdout, g):
    p = op.params
    grid = linspace(p["u_min"], p["u_max"], p["points"])
    if op.fmt == "json":
        results = _envelope_results(parse_json(stdout), op)
        rows = results.get("rows")
        if not isinstance(rows, list):
            raise _Wrong("split-check results lack rows")
        _num(results.get("max_im_rel_err"), "max_im_rel_err")
    else:
        rows = parse_csv(stdout)
    if len(rows) != len(grid):
        raise _Wrong(f"{len(rows)} rows for a {len(grid)}-point grid")
    keys = ("u", "re_closed", "im_closed", "im_numeric", "im_rel_err")
    cols = {k: [_num(row.get(k), k) for row in rows] for k in keys}
    refs = [retarded_closed(u, op.atom) for u in grid]
    scale = max(max(abs(z.real), abs(z.imag)) for z in refs)
    g.compare("u grid", cols["u"], grid, 1e-14)
    g.compare("re_closed", cols["re_closed"], [z.real for z in refs], 1e-10, scale)
    g.compare("im_closed", cols["im_closed"], [z.imag for z in refs], 1e-12, scale)
    g.compare("im_numeric", cols["im_numeric"], [z.imag for z in refs], 1e-8, scale)


def _check_wavepacket(op, stdout, g):
    a = op.atom
    periods = op.params["plateau_periods"]
    if op.fmt == "json":
        results = _envelope_results(parse_json(stdout), op)
        rows = results.get("rows")
        if not isinstance(rows, list) or len(rows) != len(periods):
            raise _Wrong("wavepacket-check rows do not match the plateau list")
        t_key = "t_g_s"
    else:
        rows = parse_csv(stdout)
        if len(rows) != len(periods):
            raise _Wrong("wavepacket-check rows do not match the plateau list")
        t_key = "t_g"
    period = TWO_PI / a["omega_eg_rad_s"]
    g.compare("t_g", [_num(row.get(t_key), t_key) for row in rows],
              [n * period for n in periods], 1e-13)
    for row in rows:
        rel = _num(row.get("rel_error"), "rel_error")
        if not 0.0 <= rel < 1.0:
            raise _Wrong(f"rel_error {rel} outside [0, 1)")
        if row.get("regime_flag") not in ("ok", "wide-window"):
            raise _Wrong(f"regime_flag {row.get('regime_flag')!r}")
    if op.fmt != "json":
        return
    bracket = resonant_bracket(delta_u(a))
    for row in rows:
        z_closed = _cplx(row.get("z_closed"), "z_closed")
        z_num = _cplx(row.get("z_numerical"), "z_numerical")
        g.compare("z_closed phase", [z_closed.imag / z_closed.real],
                  [bracket.imag / bracket.real], 1e-9)
        g.compare("z_closed_inverse_u",
                  [_cplx(row.get("z_closed_inverse_u"), "z_closed_inverse_u")],
                  [z_closed / (1.0 + delta_u(a))], 1e-14)
        g.compare("rel_error", [1.0 + _num(row["rel_error"], "rel_error")],
                  [1.0 + abs(z_num - z_closed) / abs(z_closed)], 1e-12)


def _check_ww(op, stdout, stderr, out_text, g):
    if op.out_file is None:
        summary_text, trace_text = stderr, stdout
    else:
        summary_text, trace_text = stdout, out_text
    if trace_text is None:
        raise _Wrong("ww-sim wrote no trace file")
    s = _envelope_results(parse_json(summary_text), op)
    gamma = gamma_leading(op.atom)
    if _num(s.get("n_modes"), "n_modes") != op.params["n_modes"]:
        raise _Wrong("n_modes does not echo the request")
    ratio = _num(s.get("rate_over_gamma_leading"), "rate_over_gamma_leading")
    drift = _num(s.get("norm_drift"), "norm_drift")
    if not 0.0 <= drift <= WW_NORM_DRIFT_MAX:
        raise _Wrong(f"norm_drift {drift:.3e} exceeds {WW_NORM_DRIFT_MAX}")
    g.compare("rate vs leading-order gamma", [_num(s.get("rate_per_s"), "rate_per_s")],
              [gamma], WW_RATE_TOL)
    g.compare("rate_over_gamma_leading", [ratio * gamma], [_get(s, "rate_per_s")], 1e-12)
    rows = parse_csv(trace_text)
    if len(rows) < 500:
        raise _Wrong(f"trace has only {len(rows)} samples")
    t_prev = 0.0
    for row in rows:
        t, pop = _num(row.get("t"), "t"), _num(row.get("population"), "population")
        re_c, im_c = _num(row.get("re_c_e"), "re_c_e"), _num(row.get("im_c_e"), "im_c_e")
        if not t > t_prev:
            raise _Wrong("trace times are not increasing")
        if not 0.0 < pop <= 1.0 + WW_NORM_DRIFT_MAX:
            raise _Wrong(f"population {pop} outside (0, 1]")
        if abs(pop - (re_c * re_c + im_c * im_c)) > 1e-12:
            raise _Wrong("population differs from |c_e|^2")
        t_prev = t
    t_end = op.params["t_end_gammas"] / gamma
    dt = 0.38 / (op.params["bandwidth_gammas"] * gamma)
    if not t_end - 4.0 * dt <= t_prev <= t_end + 2.0 * dt:
        raise _Wrong(f"trace ends at {t_prev:.4e} s, expected {t_end:.4e} s")


_CHECKS = {
    "gamma": _check_gamma,
    "ratio": _check_ratio,
    "constants": _check_constants,
    "shift": _check_shift,
    "series-check": _check_series,
    "split-check": _check_split,
    "wavepacket-check": _check_wavepacket,
}

_DIAG_NAME = re.compile(r"^[A-Z][A-Za-z0-9_]*Error$")


def _typed_diagnostic(stderr: str) -> bool:
    for line in reversed([l for l in stderr.splitlines() if l.strip()]):
        try:
            doc = json.loads(line)
        except json.JSONDecodeError:
            continue
        return (isinstance(doc, dict) and isinstance(doc.get("message"), str)
                and isinstance(doc.get("error"), str)
                and bool(_DIAG_NAME.match(doc["error"])))
    return False


def check(op, rc, stdout: str, stderr: str, out_text: str | None = None) -> Verdict:
    """Verdict for one op from its exit code, stdout, stderr and --out file."""
    if rc == 1:
        if _typed_diagnostic(stderr):
            return Verdict("refused", "exit 1 with a typed diagnostic")
        return Verdict("failed", "exit 1 without a typed diagnostic")
    if rc != 0:
        return Verdict("failed", f"exit code {rc}")
    g = _Groups()
    try:
        if op.command == "ww-sim":
            _check_ww(op, stdout, stderr, out_text, g)
        else:
            _CHECKS[op.command](op, stdout, g)
    except _NonFinite as exc:
        return Verdict("failed", f"non-finite output: {exc}")
    except _Wrong as exc:
        return Verdict("wrong", str(exc))
    return Verdict("ok", digits=g.digits)
