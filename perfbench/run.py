"""Benchmark of the ``repro`` CLI workloads: end-to-end and per-layer metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload train_al|variation|signoff \\
        --seed N --seconds S --trace 0|1

The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end ones (set-up time, peak memory, median op),
with times in reference-host seconds (see ``hostmeter.py``); with
``--trace 1`` they are the per-layer ones, from a run in which every op
seed runs once untraced and once traced (see ``perfbench/README.md``).

Each run starts fresh interpreters: ``SETUPS - 1`` that only set up, then
one that sets up and runs ops for ``--seconds``.  ``setup_s`` is the median
of the ``SETUPS`` times from process start to "first op ready".  All state
lives under ``.bench_build/perfbench/`` in the checkout: the surrogate cache
(filled once per source tree, before any timed set-up), per-op temporary
directories, and a ledger of per-seed work counts and output digests that
later runs of the same source must reproduce exactly.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import queue
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import monotonic, perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STATE = ROOT / ".bench_build" / "perfbench"
WORKLOADS = ("train_al", "variation", "signoff")
SETUPS = 3
BLAS_THREADS = 1
#: seconds a run may take; the first run in a checkout also fills the cache
RUN_LIMIT_S = 170.0
FIRST_RUN_LIMIT_S = 850.0

END_TO_END = {"setup_s": "s", "peak_rss_mb": "MB", "op_p50_s": "s"}
#: per-layer metric → unit; the traced run reports every one of them
PER_LAYER = {
    "cli.import_s": "s",
    "setup.modules_s": "s",
    "setup.model_s": "s",
    "power.surrogate_load_s": "s",
    "power.surrogate_fits": "count",
    "circuits.build_s": "s",
    "circuits.builds": "count",
    "circuits.screen_evals": "count",
    "circuits.self_s": "s",
    "autograd.replay_fwd_s": "s",
    "autograd.replay_bwd_s": "s",
    "autograd.replays": "count",
    "autograd.replay_epochs": "count",
    "autograd.replay_ratio": "ratio",
    "autograd.step_ops": "count",
    "autograd.eval_ops": "count",
    "autograd.val_ops": "count",
    "autograd.recaptures": "count",
    "pdk.implicit_solve_s": "s",
    "training.step_s": "s",
    "training.eval_s": "s",
    "training.epochs": "count",
    "training.fleet_step_s": "s",
    "training.fleet_instances": "count",
    "training.sweep_s": "s",
    "training.self_s": "s",
    "evaluation.mc_chunk_s": "s",
    "evaluation.mc_instances": "count",
    "evaluation.mc_inst_per_s": "1/s",
    "evaluation.self_s": "s",
    "circuits.stack_sample_s": "s",
    "circuits.ensemble_run_s": "s",
    "serving.export_s": "s",
    "serving.load_s": "s",
    "serving.predict_s": "s",
    "serving.engine_replays": "count",
    "serving.self_s": "s",
    "compile.profile_s": "s",
    "compile.place_s": "s",
    "compile.bundle_write_s": "s",
    "compile.verify_s": "s",
    "compile.tiles": "count",
    "compile.self_s": "s",
    "spice.solve_s": "s",
    "spice.solves": "count",
    "spice.iters_per_solve": "count",
    "trace.coverage": "ratio",
    "trace.overhead_frac": "ratio",
    "host.calib_ms": "ms",
    "host.calib_drift": "ratio",
    "host.blas_threads": "count",
    "checks.fail_frac": "ratio",
}


class RunError(RuntimeError):
    """The run cannot produce a result (a worker died, timed out, ...)."""


def source_hash() -> str:
    """Digest of the program and benchmark sources: the ledger's key."""
    h = hashlib.sha256()
    for base in (SRC / "repro", HERE):
        for path in sorted(base.rglob("*.py")):
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def worker_env() -> dict:
    env = dict(os.environ)
    env.update(
        PYTHONPATH=str(SRC),
        PYTHONHASHSEED="0",
        REPRO_CACHE_DIR=str(STATE / "surrogates"),
        TMPDIR=str(STATE / "tmp"),
        OPENBLAS_NUM_THREADS=str(BLAS_THREADS),
        OMP_NUM_THREADS=str(BLAS_THREADS),
        MKL_NUM_THREADS=str(BLAS_THREADS),
    )
    return env


class Worker:
    """A ``worker.py`` process whose stdout lines arrive time-stamped."""

    def __init__(self, args, setup_only: bool):
        cmd = [sys.executable, str(HERE / "worker.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--tmp", str(STATE / "tmp"), "--t0", repr(monotonic())]
        if setup_only:
            cmd.append("--setup-only")
        self.lines: queue.Queue = queue.Queue()
        self.started = perf_counter()
        self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                                     cwd=ROOT, env=worker_env())
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()

    def _read(self) -> None:
        for line in self.proc.stdout:
            self.lines.put((perf_counter(), line.rstrip("\n")))
        self.lines.put((perf_counter(), None))

    def expect(self, tag: str, deadline: float) -> tuple[float, dict]:
        """Wait for the ``<tag> <json>`` line; returns (arrival time, payload)."""
        while True:
            timeout = deadline - perf_counter()
            if timeout <= 0:
                raise RunError(f"worker timed out waiting for {tag}")
            try:
                stamp, line = self.lines.get(timeout=timeout)
            except queue.Empty:
                continue
            if line is None:
                raise RunError(f"worker exited ({self.proc.wait()}) before {tag}")
            if line.startswith(tag + " "):
                return stamp, json.loads(line[len(tag) + 1:])

    def close(self, deadline: float) -> None:
        try:
            code = self.proc.wait(timeout=max(1.0, deadline - perf_counter()))
        except subprocess.TimeoutExpired:
            self.kill()
            raise RunError("worker did not exit")
        self._reader.join(timeout=5)
        if code != 0:
            raise RunError(f"worker exited with {code}")

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


def fill_cache(args, code: str, deadline: float) -> None:
    """Set up once, untimed, so the surrogate cache and bytecode are warm."""
    marker = STATE / f"warm-{code}"
    if marker.exists():
        return
    worker = Worker(args, setup_only=True)
    try:
        worker.expect("READY", deadline)
        worker.close(deadline)
    finally:
        worker.kill()
    marker.touch()


def run_workers(args, deadline: float) -> tuple[list[float], list[dict], dict]:
    """``SETUPS`` set-ups (the last one also runs ops); returns their data.

    The set-up times are in reference-host seconds, measured by the
    worker's meter, except in traced runs, which meter nothing: there they
    are wall seconds.
    """
    setup_s, ready = [], []
    for index in range(SETUPS):
        worker = Worker(args, setup_only=index < SETUPS - 1)
        try:
            stamp, payload = worker.expect("READY", deadline)
            setup_s.append(payload.get("setup_ref_s", stamp - worker.started))
            ready.append(payload)
            if index < SETUPS - 1:
                worker.close(deadline)
                continue
            _, result = worker.expect("RESULT", deadline)
            worker.close(deadline)
        finally:
            worker.kill()
    return setup_s, ready, result


# ----------------------------------------------------------------------
# Checks
# ----------------------------------------------------------------------
def check_repeats(ops: list[dict], ledger_path: Path, code: str, workload: str) -> list[str]:
    """Every op of one seed must repeat counts and outputs exactly.

    Compares within the run and against earlier runs of the same source
    (the ledger); a mismatch is nondeterminism, not noise.
    """
    try:
        ledger = json.loads(ledger_path.read_text())
    except (OSError, ValueError):
        ledger = {}
    seen = ledger.setdefault(code, {}).setdefault(workload, {})
    problems = []
    for op in ops:
        if "counts" not in op:
            continue
        key = str(op["seed"])
        mine = {"counts": op["counts"], "digest": op["digest"]}
        first = seen.setdefault(key, mine)
        if first != mine:
            diff = sorted(k for k in mine["counts"] if mine["counts"][k] != first["counts"].get(k))
            what = ", ".join(diff) or "output digest"
            message = f"seed {key}: {what} differ from an earlier op of the same seed"
            op["problems"].append(message)
            problems.append(message)
    tmp = ledger_path.with_suffix(".tmp")
    tmp.write_text(json.dumps(ledger, sort_keys=True))
    os.replace(tmp, ledger_path)
    return problems


# ----------------------------------------------------------------------
# Aggregation
# ----------------------------------------------------------------------
def _median(values: list[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def latencies(result: dict, key: str = "latency_s") -> list[float]:
    return [op[key] for op in result["ops"] if not op["traced"] and key in op]


def end_to_end(setup_s: list[float], result: dict) -> dict:
    """Set-up median, peak memory, and the median untraced op.

    Times are in reference-host seconds (``hostmeter.py``): on a shared
    host the wall time of the same op varies up to 2x with how busy the
    host is.  In traced runs, which meter nothing, they are wall seconds.
    """
    ops = latencies(result, "ref_s") or latencies(result)
    return {
        "setup_s": _median(setup_s),
        "peak_rss_mb": result["peak_rss_mb"],
        "op_p50_s": _median(ops),
    }


def per_layer(ready: list[dict], result: dict, fail_frac: float) -> dict:
    ops = result["ops"]
    traced = [op for op in ops if op["traced"] and "layers" in op]
    per_op = [{**op["counts"], **op["layers"]} for op in traced]
    values: dict[str, float] = {key: _median([m[key] for m in per_op])
                                for key in (per_op[0] if per_op else ())}
    for key in ("cli.import_s", "setup.modules_s", "setup.model_s", "power.surrogate_load_s"):
        values[key] = _median([r[key] for r in ready])
    values["power.surrogate_fits"] = (max(r["power.surrogate_fits"] for r in ready)
                                      + max((m["power.surrogate_fits"] for m in per_op), default=0))

    epochs = values.get("training.epochs", 0)
    values["autograd.replay_ratio"] = values.get("autograd.replay_epochs", 0) / epochs if epochs else 0.0
    solves = _median([op["counts"]["spice.solves"] for op in traced])
    iters = _median([op["counts"]["spice.iters"] for op in traced])
    values["spice.iters_per_solve"] = iters / solves if solves else 0.0
    sweeps = [op["phases"]["sweep_s"] for op in traced if "sweep_s" in op["phases"]]
    values["training.sweep_s"] = _median(sweeps)
    rates = [op["counts"]["evaluation.mc_instances"] / op["phases"]["mc_s"]
             for op in traced if "mc_s" in op["phases"]]
    values["evaluation.mc_inst_per_s"] = _median(rates)

    plain = {op["seed"]: op["latency_s"] for op in ops if not op["traced"] and "latency_s" in op}
    ratios = [op["latency_s"] / plain[op["seed"]] for op in traced if op["seed"] in plain]
    values["trace.overhead_frac"] = _median(ratios) - 1.0 if ratios else 0.0
    start, end = result["calib_start_ms"], result["calib_end_ms"]
    values["host.calib_ms"] = _median(start + end)
    values["host.calib_drift"] = _median(end) / _median(start) - 1.0
    values["host.blas_threads"] = BLAS_THREADS
    values["checks.fail_frac"] = fail_frac
    missing = sorted(set(PER_LAYER) - set(values))
    if missing:
        raise RunError(f"per-layer metrics not measured: {missing}")
    return {key: values[key] for key in PER_LAYER}


def summary_lines(args, e2e: dict, setup_s: list[float], ready: list[dict], result: dict,
                  failed: int, infeasible: int) -> list[str]:
    ops = result["ops"]
    plain = [op for op in ops if not op["traced"]]
    walls = [r["setup_wall_s"] for r in ready if "setup_wall_s" in r]
    lines = [
        f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
        f"cpus {os.cpu_count()}  blas threads {BLAS_THREADS}",
        f"ops {len(ops)} (untraced {len(plain)})  failed {failed}  "
        f"infeasible {infeasible}  fail_frac {(failed + infeasible) / len(ops):.3f}",
        "  ".join(f"{k} {v:.4g} {END_TO_END[k]}" for k, v in e2e.items())
        + "  setups " + " ".join(f"{t:.3f}" for t in setup_s) + " s",
        f"wall: op p50 {_median(latencies(result)):.4g} s  "
        "setups " + " ".join(f"{t:.3f}" for t in walls) + " s",
        f"host.calib_ms start {_median(result['calib_start_ms']):.2f}  "
        f"end {_median(result['calib_end_ms']):.2f}",
    ]
    for op in ops:
        phases = " ".join(f"{k} {v:.3f}" for k, v in op.get("phases", {}).items())
        ref = f"(ref {op['ref_s']:.3f} s) " if "ref_s" in op else ""
        lines.append(f"  op seed {op['seed']} traced {int(op['traced'])} "
                     f"{op.get('latency_s', float('nan')):.3f} s {ref}{phases} "
                     f"{'INFEASIBLE ' if op['infeasible'] else ''}"
                     f"{'; '.join(op['problems'])}")
    if plain and "counts" in plain[0]:
        lines.append("  counts " + json.dumps(plain[0]["counts"], sort_keys=True))
    return lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program sources at {SRC / 'repro'}", file=sys.stderr)
        return 2

    begin = perf_counter()
    (STATE / "tmp").mkdir(parents=True, exist_ok=True)
    (STATE / "surrogates").mkdir(parents=True, exist_ok=True)
    code = source_hash()
    try:
        fill_cache(args, code, begin + FIRST_RUN_LIMIT_S)
        setup_s, ready, result = run_workers(args, perf_counter() + RUN_LIMIT_S)
    except RunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    ops = result["ops"]
    problems = check_repeats(ops, STATE / "ledger.json", code, args.workload)
    fits = max(r["power.surrogate_fits"] for r in ready)
    fits += sum(op.get("counts", {}).get("power.surrogate_fits", 0) for op in ops)
    if fits:
        problems.append(f"{fits} surrogate fits: the cache was not used")
    failed = sum(1 for op in ops if op["problems"])
    infeasible = sum(1 for op in ops if op["infeasible"] and not op["problems"])
    e2e = end_to_end(setup_s, result)
    try:
        if args.trace:
            metrics = per_layer(ready, result, (failed + infeasible) / len(ops))
            units = PER_LAYER
        else:
            metrics, units = e2e, END_TO_END
    except RunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for line in summary_lines(args, e2e, setup_s, ready, result, failed, infeasible):
        print(line)
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
