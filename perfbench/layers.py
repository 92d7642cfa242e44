"""Per-layer metrics from the spans and counters of a traced run.

Work and time metrics are totals over one pass of the batch (the lower
median over traced passes); import and teardown times are medians per
invocation.  A ratio whose base is zero on a workload (no panels, no mode
steps) reads 0.
"""

from __future__ import annotations

import statistics

# (metric name, unit) in report order; names follow the module layout
PER_LAYER = (
    ("import.numpy_s", "s"), ("import.mpmath_s", "s"), ("import.causalatom_s", "s"),
    ("cli.self_s", "s"), ("cli.output_bytes", "bytes"),
    ("numerics.integrate_calls", "count"), ("numerics.integrand_evals", "count"),
    ("numerics.integrate_self_s", "s"), ("numerics.us_per_panel", "us"),
    ("splitting.points", "count"), ("splitting.retarded_s", "s"),
    ("splitting.evals_per_point", "count"), ("splitting.ms_per_point", "ms"),
    ("selfenergy.split_report_self_s", "s"),
    ("observables.extract_calls", "count"), ("observables.extract_s", "s"),
    ("observables.solve_normalization_s", "s"), ("observables.lu_solves", "count"),
    ("observables.fit_useful_ratio", "ratio"),
    ("wavepacket.z_calls", "count"), ("wavepacket.z_s", "s"),
    ("wworacle.grid_s", "s"), ("wworacle.evolve_self_s", "s"), ("wworacle.fit_s", "s"),
    ("ww_kernels.evolve_amplitudes_s", "s"), ("ww_kernels.mode_steps", "count"),
    ("ww_kernels.ns_per_mode_step", "ns"), ("ww_kernels.sample_bytes_computed", "bytes"),
    ("process.teardown_s", "s"), ("trace.overhead_ratio", "ratio"),
)

GK15_NODES = 15


def parse_importtime(stderr: str) -> dict:
    """Seconds for numpy and mpmath (cumulative) and causalatom (own modules)
    from `python -X importtime` output."""
    out = {"numpy": 0.0, "mpmath": 0.0, "causalatom": 0.0}
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        try:
            self_us, cum_us, name = line[len("import time:"):].split("|")
            self_s, cum_s = int(self_us) * 1e-6, int(cum_us) * 1e-6
        except ValueError:  # the header line
            continue
        name = name.strip()
        if name in ("numpy", "mpmath"):
            out[name] = max(out[name], cum_s)
        elif name == "causalatom" or name.startswith("causalatom."):
            out["causalatom"] += self_s
    return out


def _ratio(num, den, scale=1.0):
    return num / den * scale if den else 0.0


def _pass_totals(ops) -> dict:
    """Work and time totals over the traced invocations of one pass."""
    t = dict.fromkeys(("cli_self", "out_bytes", "int_calls", "int_evals", "int_self",
                       "points", "retarded", "split_evals", "split_report_self",
                       "extract_calls", "extract", "solve_norm", "lu", "lu_distinct",
                       "z_calls", "z", "grid", "evolve_self", "fit", "evolve_amp",
                       "mode_steps", "sample_bytes"), 0)
    for op in ops:
        spans = op["spans"]
        child = [0.0] * len(spans)
        for name, start, end, parent, n in spans:
            if parent >= 0:
                child[parent] += end - start
        t["out_bytes"] += op["out_bytes"]
        t["lu_distinct"] += op["counters"]["lu_distinct"]
        t["sample_bytes"] += op["counters"]["ww_sample_bytes"]
        for i, (name, start, end, parent, n) in enumerate(spans):
            dur = end - start
            own = dur - child[i]
            if name.startswith("cli."):
                t["cli_self"] += own
            elif name == "numerics.integrate_adaptive":
                t["int_calls"] += 1
                t["int_evals"] += n
                t["int_self"] += own
                j = parent
                while j >= 0 and spans[j][0] != "splitting.retarded_part_central":
                    j = spans[j][3]
                if j >= 0:
                    t["split_evals"] += n
            elif name == "splitting.retarded_part_central":
                t["points"] += 1
                t["retarded"] += dur
            elif name == "selfenergy.split_check_report":
                t["split_report_self"] += own
            elif name == "observables.extract_series_numerically":
                t["extract_calls"] += 1
                t["extract"] += dur
            elif name == "observables.solve_normalization":
                t["solve_norm"] += dur
            elif name == "mpmath.lu_solve":
                t["lu"] += 1
            elif name == "wavepacket.z_numerical":
                t["z_calls"] += 1
                t["z"] += dur
            elif name == "wworacle.build_grid":
                t["grid"] += dur
            elif name == "wworacle.evolve":
                t["evolve_self"] += own
            elif name == "wworacle.fit_decay":
                t["fit"] += dur
            elif name == "_ww_kernels.evolve_amplitudes":
                t["evolve_amp"] += dur
                t["mode_steps"] += n
    return t


def per_layer_metrics(passes, untraced_pass_wall: float) -> dict:
    """passes: list of (pass wall, [traced op records]) in run order."""
    totals = [_pass_totals(ops) for _, ops in passes]
    # median_low keeps a count whole: it is always one pass's value
    med = {k: statistics.median_low(t[k] for t in totals) for k in totals[0]}
    ops = [op for _, pass_ops in passes for op in pass_ops]

    def per_op(get):
        return statistics.median(get(op) for op in ops)

    values = {
        "import.numpy_s": per_op(lambda op: op["imports"]["numpy"]),
        "import.mpmath_s": per_op(lambda op: op["imports"]["mpmath"]),
        "import.causalatom_s": per_op(lambda op: op["imports"]["causalatom"]),
        "cli.self_s": med["cli_self"],
        "cli.output_bytes": med["out_bytes"],
        "numerics.integrate_calls": med["int_calls"],
        "numerics.integrand_evals": med["int_evals"],
        "numerics.integrate_self_s": med["int_self"],
        "numerics.us_per_panel": _ratio(med["int_self"], med["int_evals"] / GK15_NODES, 1e6),
        "splitting.points": med["points"],
        "splitting.retarded_s": med["retarded"],
        "splitting.evals_per_point": _ratio(med["split_evals"], med["points"]),
        "splitting.ms_per_point": _ratio(med["retarded"], med["points"], 1e3),
        "selfenergy.split_report_self_s": med["split_report_self"],
        "observables.extract_calls": med["extract_calls"],
        "observables.extract_s": med["extract"],
        "observables.solve_normalization_s": med["solve_norm"],
        "observables.lu_solves": med["lu"],
        "observables.fit_useful_ratio": _ratio(med["lu_distinct"], med["lu"]),
        "wavepacket.z_calls": med["z_calls"],
        "wavepacket.z_s": med["z"],
        "wworacle.grid_s": med["grid"],
        "wworacle.evolve_self_s": med["evolve_self"],
        "wworacle.fit_s": med["fit"],
        "ww_kernels.evolve_amplitudes_s": med["evolve_amp"],
        "ww_kernels.mode_steps": med["mode_steps"],
        "ww_kernels.ns_per_mode_step": _ratio(med["evolve_amp"], med["mode_steps"], 1e9),
        "ww_kernels.sample_bytes_computed": med["sample_bytes"],
        "process.teardown_s": per_op(lambda op: op["teardown"]),
        "trace.overhead_ratio": _ratio(statistics.median(w for w, _ in passes),
                                       untraced_pass_wall),
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}
