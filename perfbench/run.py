#!/usr/bin/env python3
"""End-to-end benchmark of the causalatom CLI: seeded batches of real
invocations, each in a fresh interpreter, driven by one closed-loop client.

    python3 perfbench/run.py --workload quick-cli --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

Run from the root of a checkout; the program is imported from ./src.  The
next invocation starts only after the previous one has exited, so at most
one child runs at a time.  Each run warms up once per command, then repeats
the workload's batch until --seconds have passed (whole batches, at least
11 invocations so the tail percentile exists), checking every output.

--trace 0 prints the end-to-end metrics; --trace 1 runs one untraced pass
and then traced passes (public functions wrapped, `-X importtime`) and
prints the per-layer metrics.  The last line of stdout is one JSON object;
a fuller report with the environment and each op's stdout sha256 goes to
.perfbench_work/.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import importlib.util
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import checker
import layers
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_ROOT = ROOT / ".perfbench_work"
TAIL_BEYOND = 10
OP_TIMEOUT_S = 60.0

END_TO_END = (
    ("setup_s", "s"), ("compute_p50_s", "s"), ("cmd_wall_p50_s", "s"),
    ("cmd_wall_tail_s", "s"), ("batch_wall_s", "s"), ("peak_rss_mb", "MB"),
    ("ok_frac", "ratio"), ("accuracy_digits", "digits"),
)


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------

def tail_percentile(n: int) -> tuple:
    """(p, rank): the highest whole percentile whose nearest-rank sample has
    at least TAIL_BEYOND samples beyond it, out of n sorted samples."""
    for p in range(99, 0, -1):
        rank = -(-p * n // 100)  # ceil(p n / 100) in integers
        if rank >= 1 and n - rank >= TAIL_BEYOND:
            return p, rank
    raise ValueError(f"a tail percentile needs more than {TAIL_BEYOND} samples, got {n}")


def tail_value(samples) -> tuple:
    """(value, percentile, sample count) of the tail rule."""
    ordered = sorted(samples)
    p, rank = tail_percentile(len(ordered))
    return ordered[rank - 1], p, len(ordered)


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------

def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _version(dist: str) -> str:
    try:
        return importlib.metadata.version(dist)
    except importlib.metadata.PackageNotFoundError:
        return "absent"


def _commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def _source_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment(workload: str, seed: int, seconds: float) -> dict:
    return {
        "workload": workload, "seed": seed, "seconds": seconds,
        "client": "closed loop, 1 client, 1 child process at a time",
        "nproc": os.cpu_count(), "cpu_model": _cpu_model(),
        "python": platform.python_version(), "numpy": _version("numpy"),
        "mpmath": _version("mpmath"),
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "commit": _commit(), "source_sha256": _source_sha256(),
    }


# ---------------------------------------------------------------------------
# running one invocation
# ---------------------------------------------------------------------------

class Runner:
    """Spawns one child at a time in the checkout and records what it did."""

    def __init__(self, work: Path):
        self.work = work
        self.work_rel = os.path.relpath(work, ROOT)
        self.stdout_path = work / "stdout"
        self.stderr_path = work / "stderr"
        self.timing_path = work / "timing.json"

    def run(self, op, trace: bool) -> dict:
        argv = op.resolved_argv(self.work_rel)
        cmd = [sys.executable]
        if trace:
            cmd += ["-X", "importtime"]
        cmd += [str(HERE / "child.py"), str(self.timing_path), str(ROOT / "src"),
                "1" if trace else "0", *argv]
        out_path = ROOT / op.out_file.replace(workloads.WORK, self.work_rel) \
            if op.out_file else None
        for path in (self.timing_path, out_path):
            if path is not None and path.exists():
                path.unlink()
        with open(self.stdout_path, "wb") as fo, open(self.stderr_path, "wb") as fe:
            t_spawn = time.monotonic()
            proc = subprocess.Popen(cmd, cwd=ROOT, stdin=subprocess.DEVNULL,
                                    stdout=fo, stderr=fe)
            timer = threading.Timer(OP_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
                t_exit = time.monotonic()
                proc.returncode = os.waitstatus_to_exitcode(status)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
        stdout = self.stdout_path.read_bytes()
        stderr = self.stderr_path.read_text(errors="replace")
        out_text = out_path.read_text() if out_path and out_path.exists() else None
        try:
            timing = json.loads(self.timing_path.read_text())
        except (OSError, json.JSONDecodeError):
            timing = None
        program_stderr = "\n".join(l for l in stderr.splitlines()
                                   if not l.startswith("import time:"))
        if timing is None:
            verdict = checker.Verdict("failed", f"no timing record (exit {proc.returncode})")
        else:
            verdict = checker.check(op, proc.returncode, stdout.decode(errors="replace"),
                                    program_stderr, out_text)
        wall = t_exit - t_spawn
        rec = {
            "op_id": op.op_id, "command": op.command, "rc": proc.returncode,
            "verdict": verdict.status, "failed": verdict.failed, "reason": verdict.reason,
            "digits": verdict.digits,
            "wall": wall, "maxrss_mb": usage.ru_maxrss / 1024.0,
            "stdout_sha256": hashlib.sha256(
                stdout.replace(self.work_rel.encode(), b"$WORK")).hexdigest(),
            "out_bytes": len(stdout) + (len(out_text.encode()) if out_text else 0),
        }
        if timing is not None:
            rec["setup"] = timing["t_imported"] - t_spawn
            rec["compute"] = timing["t_main1"] - timing["t_main0"]
            rec["teardown"] = wall - rec["setup"] - rec["compute"]
            if trace:
                rec["spans"] = timing["spans"]
                rec["counters"] = timing["counters"]
                rec["imports"] = layers.parse_importtime(stderr)
        return rec


# ---------------------------------------------------------------------------
# one workload
# ---------------------------------------------------------------------------

def _run_pass(runner, ops, trace):
    t0 = time.monotonic()
    recs = [runner.run(op, trace) for op in ops]
    return time.monotonic() - t0, recs


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    batch = workloads.make_batch(workload, seed)
    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK_ROOT))
    try:
        for name, content in batch.files.items():
            (work / name).write_text(content)
        runner = Runner(work)
        first_of_command = {}
        for op in batch.ops:
            first_of_command.setdefault(op.command, op)
        for op in first_of_command.values():  # bytecode and page cache
            runner.run(op, trace=False)
        untraced_wall = _run_pass(runner, batch.ops, False)[0] if trace else None
        passes = []
        t0 = time.monotonic()
        while (not passes or time.monotonic() - t0 < seconds
               or len(passes) * len(batch.ops) <= TAIL_BEYOND):
            passes.append(_run_pass(runner, batch.ops, trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    recs = [r for _, pass_recs in passes for r in pass_recs]
    failed = sum(r["failed"] for r in recs)
    wrong = [r for r in recs if r["verdict"] == "wrong"]
    report = {
        "environment": environment(workload, seed, seconds),
        "trace": trace,
        "attempted": len(recs), "failed": failed, "wrong": len(wrong),
        "passes": len(passes), "ops_per_pass": len(batch.ops),
        "ops": [{"op_id": op.op_id, "argv": list(op.argv),
                 "stdout_sha256": r["stdout_sha256"], "verdict": r["verdict"],
                 "reason": r["reason"],
                 "wall_p50_s": statistics.median(p[1][i]["wall"] for p in passes),
                 "compute_p50_s": statistics.median(
                     p[1][i].get("compute", 0.0) for p in passes)}
                for i, (op, r) in enumerate(zip(batch.ops, passes[0][1]))],
    }
    if trace:
        timed_passes = [(w, [r for r in pass_recs if "setup" in r]) for w, pass_recs in passes]
        report["metrics"] = layers.per_layer_metrics(timed_passes, untraced_wall)
        spans_path = WORK_ROOT / f"spans-{workload}-seed{seed}.jsonl"
        with open(spans_path, "w") as fh:  # one invocation per line
            for i, r in enumerate(recs):
                fh.write(json.dumps({"invocation": i, "op_id": r["op_id"],
                                     "command": r["command"],
                                     "spans": r.get("spans", [])}) + "\n")
    else:
        timed = [r for r in recs if "setup" in r]
        walls = [r["wall"] for r in recs]
        tail, p, n = tail_value(walls)
        digits = [r["digits"] for r in recs if r["digits"] is not None]
        values = {
            "setup_s": statistics.median(r["setup"] for r in timed),
            "compute_p50_s": statistics.median(r["compute"] for r in timed),
            "cmd_wall_p50_s": statistics.median(walls),
            "cmd_wall_tail_s": tail,
            "batch_wall_s": statistics.median(w for w, _ in passes),
            "peak_rss_mb": max(r["maxrss_mb"] for r in recs),
            "ok_frac": 1.0 - failed / len(recs),
            "accuracy_digits": min(digits) if digits else 0.0,
        }
        report["metrics"] = {k: {"value": values[k], "unit": u} for k, u in END_TO_END}
        report["tail"] = {"percentile": p, "samples": n}
    report["correct"] = not wrong
    tag = "trace" if trace else "e2e"
    (WORK_ROOT / f"report-{workload}-seed{seed}-{tag}.json").write_text(
        json.dumps(report, indent=1) + "\n")
    return report


def print_report(workload: str, report: dict):
    env = report["environment"]
    print(f"== {workload} seed={env['seed']} seconds={env['seconds']} "
          f"trace={int(report['trace'])}: {report['attempted']} invocations in "
          f"{report['passes']} passes of {report['ops_per_pass']}")
    print("   env: " + json.dumps({k: env[k] for k in (
        "nproc", "cpu_model", "python", "numpy", "mpmath", "numba_importable", "commit")}))
    for name, m in report["metrics"].items():
        note = ""
        if name == "cmd_wall_tail_s":
            t = report["tail"]
            note = f"  (p{t['percentile']} of {t['samples']} invocations)"
        print(f"   {name:36s} {m['value']:.6g} {m['unit']}{note}")
    print(f"   failed_frac {report['failed'] / report['attempted']:.4f} "
          f"({report['failed']} of {report['attempted']}), wrong {report['wrong']}")
    for op in report["ops"]:
        if op["verdict"] != "ok":
            print(f"   op {op['op_id']} {op['verdict']}: {op['reason']}")
    digest = hashlib.sha256("".join(o["stdout_sha256"] for o in report["ops"]).encode())
    print(f"   stdout digest {digest.hexdigest()[:16]} (per-op sha256 in .perfbench_work/)")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "causalatom" / "cli.py").is_file():
        print(f"perfbench: no causalatom sources under {ROOT / 'src'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    reports = {}
    for name in names:
        reports[name] = run_workload(name, args.seed, args.seconds, bool(args.trace))
        print_report(name, reports[name])
    if len(reports) == 1:
        metrics = reports[names[0]]["metrics"]
    else:
        metrics = {f"{w}/{k}": m for w, r in reports.items() for k, m in r["metrics"].items()}
    result = {"correct": all(r["correct"] for r in reports.values()),
              "attempted": sum(r["attempted"] for r in reports.values()),
              "failed": sum(r["failed"] for r in reports.values()),
              "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
