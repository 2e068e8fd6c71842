"""One benchmark process: set up a workload, then run its ops for a while.

Started by ``run.py`` (never by hand): it prints ``READY <json>`` once the
first op could start, and -- unless ``--setup-only`` -- runs ops for about
``--seconds`` and prints ``RESULT <json>``.  With ``--trace 0`` the set-up
and every op are timed by a :class:`hostmeter.HostMeter`.  With
``--trace 1`` every op seed runs twice, untraced then traced, so the
tracing overhead is measured on identical work, and nothing is metered.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

#: registry counters whose per-op delta must repeat exactly for a seed
COUNTERS = {
    "autograd.replay_epochs": "graph_replay_epochs",
    "autograd.recaptures": "graph_recapture_total",
    "spice.solves": "spice_solves",
    "spice.iters": "spice_iterations",
    "compile.tiles": "compile_tiles_total",
    "serving.engine_replays": "serving_engine_replays",
    "evaluation.mc_instances": "montecarlo_instances_total",
    "training.fleet_instances": "fleet_instances_total",
}
#: gauges the trainer sets when it captures a program (reset before each op)
OP_GAUGES = {
    "autograd.step_ops": "graph_step_ops",
    "autograd.eval_ops": "graph_eval_ops",
    "autograd.val_ops": "graph_val_ops",
}
#: wrapper call counts that must repeat exactly
CALLS = {
    "circuits.builds": "circuits.build",
    "autograd.replays": "autograd.replay_fwd",
    "power.surrogate_fits": "power.fit",
}
#: traced span totals reported per op (span name → metric)
SPAN_TOTALS = {
    "circuits.build": "circuits.build_s",
    "autograd.replay_fwd": "autograd.replay_fwd_s",
    "autograd.replay_bwd": "autograd.replay_bwd_s",
    "circuits.stack_sample": "circuits.stack_sample_s",
    "circuits.ensemble_run": "circuits.ensemble_run_s",
    "serving.export": "serving.export_s",
    "serving.load": "serving.load_s",
    "serving.predict": "serving.predict_s",
    "compile.profile": "compile.profile_s",
    "compile.place": "compile.place_s",
    "compile.bundle_write": "compile.bundle_write_s",
    "compile.verify": "compile.verify_s",
    "spice.solve": "spice.solve_s",
}
#: layers whose spans have child spans (a leaf layer's self time is its total)
SELF_LAYERS = ("circuits", "training", "evaluation", "serving", "compile")


def _hist(delta: dict, name: str) -> tuple[int, float]:
    value = delta.get(name)
    if not isinstance(value, dict):
        return 0, 0.0
    return int(value["count"]), float(value["sum"])


class _TickOnImport:
    """A meta-path finder that finds nothing: it ticks the meter on imports."""

    def __init__(self, meter):
        self.meter = meter

    def find_spec(self, *args):
        self.meter.tick()
        return None


class Bench:
    def __init__(self, args):
        self.args = args
        self.ready: dict = {}
        self.meter = None

    # ------------------------------------------------------------------
    def setup(self) -> None:
        if not self.args.trace:
            import hostmeter

            # The first segment runs from the parent's stamp taken just
            # before it started this process.
            self.meter = hostmeter.HostMeter()
            self.meter.begin(self.args.t0)
            sys.meta_path.insert(0, _TickOnImport(self.meter))
        start = perf_counter()
        import repro.cli  # noqa: F401  (what every `repro` command imports first)

        self.ready["cli.import_s"] = perf_counter() - start
        start = perf_counter()
        import probes
        import workloads
        from repro.observability.metrics import get_registry
        from repro.observability.tracing import get_kernel_profiler

        self.recorder = probes.Recorder()
        self.recorder.meter = self.meter
        probes.install(self.recorder)
        self.probes, self.registry = probes, get_registry()
        self.profiler = get_kernel_profiler()
        self.ready["setup.modules_s"] = perf_counter() - start

        start = perf_counter()
        surrogates = workloads.load_surrogates()
        self.ready["power.surrogate_load_s"] = perf_counter() - start

        start = perf_counter()
        self.workload = workloads.WORKLOADS[self.args.workload]()
        self.workload.setup(surrogates)
        self.ready["setup.model_s"] = perf_counter() - start
        self.ready["power.surrogate_fits"] = self.recorder.calls.get("power.fit", 0)
        if self.meter is not None:
            sys.meta_path[:] = [f for f in sys.meta_path if not isinstance(f, _TickOnImport)]
            self.ready["setup_wall_s"], self.ready["setup_ref_s"] = self.meter.end()

    # ------------------------------------------------------------------
    def run_op(self, seed: int, traced: bool) -> dict:
        rec, registry = self.recorder, self.registry
        rec.reset()
        for gauge in OP_GAUGES.values():
            registry.gauge(gauge).set(0)
        before = registry.snapshot()
        if traced:
            self.profiler.reset()
            self.profiler.enable()
        rec.tracing = traced
        tmp = Path(tempfile.mkdtemp(prefix="op-", dir=self.args.tmp))
        record = {"seed": seed, "traced": traced, "problems": [], "infeasible": False}
        try:
            if self.meter is not None:
                self.meter.begin()
            finish = rec.run_root(lambda: self.workload.op(seed, tmp))
            rec.tracing = False
            self.profiler.disable()
            if self.meter is not None:
                # Wall time without the meter's own samples, and its scaling.
                record["latency_s"], record["ref_s"] = self.meter.end()
            else:
                _, _, _, _, start, end = rec.spans[0]
                record["latency_s"] = end - start
            out = finish()
            record.update(phases=out.phases, digest=out.digest,
                          problems=out.problems, infeasible=out.infeasible)
        except Exception as exc:  # an op that raises is counted, not fatal
            traceback.print_exc(file=sys.stderr)
            record["problems"] = [f"raised {type(exc).__name__}: {exc}"]
            return record
        finally:
            rec.tracing = False
            self.profiler.disable()
            shutil.rmtree(tmp, ignore_errors=True)

        from repro.observability.metrics import snapshot_delta

        after = registry.snapshot()
        delta = snapshot_delta(before, after)
        counts = {key: int(delta.get(name, 0)) for key, name in COUNTERS.items()}
        counts.update({key: int(after[name]) for key, name in OP_GAUGES.items()})
        counts.update({key: rec.calls.get(name, 0) for key, name in CALLS.items()})
        counts["circuits.screen_evals"] = rec.screen_evals
        step_n, step_s = _hist(delta, "epoch_step_time_s")
        fleet_n, fleet_s = _hist(delta, "fleet_step_seconds")
        counts["training.epochs"] = step_n + fleet_n
        record["counts"] = counts
        if traced:
            record["layers"] = self._layer_metrics(delta, step_s, fleet_s)
        return record

    def _layer_metrics(self, delta: dict, step_s: float, fleet_s: float) -> dict:
        spans = self.probes.analyse(self.recorder.spans)
        layers = {metric: spans["totals"].get(name, 0.0) for name, metric in SPAN_TOTALS.items()}
        for layer in SELF_LAYERS:
            layers[f"{layer}.self_s"] = spans["self"].get(layer, 0.0)
        layers["trace.coverage"] = spans["coverage"]
        layers["training.step_s"] = step_s
        layers["training.eval_s"] = _hist(delta, "epoch_eval_time_s")[1]
        layers["training.fleet_step_s"] = fleet_s
        chunks, chunk_s = _hist(delta, "montecarlo_chunk_seconds")
        layers["evaluation.mc_chunk_s"] = chunk_s / chunks if chunks else 0.0
        kernels = self.profiler.as_json()["labels"]
        layers["pdk.implicit_solve_s"] = sum(
            k["total_s"] for entry in kernels.values() for k in entry["kernels"]
            if k["name"] == "implicit_solve"
        )
        return layers

    # ------------------------------------------------------------------
    def run(self) -> dict:
        from hostmeter import kernel_ms

        args, pool = self.args, self.workload.pool
        calib = [kernel_ms() for _ in range(5)]
        ops, rounds = [], []
        start = perf_counter()
        index = 0
        # Start another round only if a typical round still fits in the run.
        while (index < self.workload.min_ops
               or perf_counter() - start + statistics.median(rounds) < args.seconds):
            seed = (args.seed + index) % pool
            index += 1
            began = perf_counter()
            ops.append(self.run_op(seed, traced=False))
            if args.trace:
                ops.append(self.run_op(seed, traced=True))
            rounds.append(perf_counter() - began)
            if index == self.workload.min_ops:
                # Peak memory over a fixed amount of work: set-up plus the
                # ops every run makes, however fast the host is.
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        calib_end = [kernel_ms() for _ in range(5)]
        return {
            "ops": ops,
            "calib_start_ms": calib,
            "calib_end_ms": calib_end,
            "peak_rss_mb": peak_rss_mb,
        }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--tmp", required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--t0", type=float, required=True,
                        help="time.monotonic() just before this process started")
    args = parser.parse_args()

    bench = Bench(args)
    bench.setup()
    print("READY " + json.dumps(bench.ready), flush=True)
    if args.setup_only:
        return 0
    print("RESULT " + json.dumps(bench.run()), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
