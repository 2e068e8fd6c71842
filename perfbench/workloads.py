"""The three benchmark workloads: set-up, one op, and the op's output checks.

Each op is what one CLI command (or short command sequence) does, run in
process through the public API with the CLI's defaults:

- ``train_al``  -- ``repro train iris --af p-tanh --budget-mw 0.1047``
- ``variation`` -- ``repro sweep iris --vectorized --epochs 40`` (the penalty
  sweep half) then ``repro montecarlo iris --vectorized`` over 1024
  instances of a net trained in set-up
- ``signoff``   -- ``export`` -> ``load`` -> ``predict`` -> ``compile`` of a
  cardiotocography net trained in set-up

``op`` does the timed work and returns a ``finish`` callable that checks the
outputs after the clock stops.  Entry points are looked up on their modules
at call time, so the wrappers in :mod:`probes` see every call.
"""

from __future__ import annotations

import hashlib
from pathlib import Path
from time import perf_counter

import numpy as np

#: 40% of seed 0's unconstrained P_max (0.2618 mW) on iris / p-tanh.
BUDGET_W = 0.1047e-3
#: The CLI's surrogate fit sizes.
SURROGATE_N_Q = 800
SURROGATE_EPOCHS = 60
#: Unconstrained epochs of the net that ``variation``/``signoff`` start from.
SETUP_EPOCHS = 40
MC_INSTANCES = 1024
MC_CHUNK = 64
SWEEP_POINTS = 6 * 2


def digest(*parts) -> str:
    """sha256 over the exact bytes of arrays and the reprs of scalars."""
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(str(part.shape).encode())
            h.update(np.ascontiguousarray(part).tobytes())
        else:
            h.update(repr(part).encode())
    return h.hexdigest()[:16]


class OpResult:
    """What one op produced: phase times, an output digest and check findings."""

    def __init__(self):
        self.phases: dict[str, float] = {}
        self.digest = ""
        #: wrong outputs; any entry fails the op and the run
        self.problems: list[str] = []
        #: the AL result missed its budget -- a finding about the method
        self.infeasible = False


def load_surrogates() -> tuple:
    """Load every surrogate the ops use; returns ``(P^AF, P^N)`` for ``train``.

    The CLI fits P^N with 500 q samples for ``train``/``montecarlo`` and with
    ``n_q // 2`` = 400 for ``sweep``.
    """
    from repro.pdk.params import ActivationKind
    from repro.power.surrogate import get_cached_surrogate

    af = get_cached_surrogate(ActivationKind.TANH, n_q=SURROGATE_N_Q, epochs=SURROGATE_EPOCHS)
    neg = get_cached_surrogate("negation", n_q=500, epochs=SURROGATE_EPOCHS)
    get_cached_surrogate("negation", n_q=SURROGATE_N_Q // 2, epochs=SURROGATE_EPOCHS)
    return af, neg


def _tanh():
    from repro.pdk.params import ActivationKind

    return ActivationKind.TANH


def _build(data, seed: int, surrogates):
    from repro.circuits import pnc

    af, neg = surrogates
    return pnc.PrintedNeuralNetwork(
        data.n_features, data.n_classes, pnc.PNCConfig(kind=_tanh()),
        np.random.default_rng(seed), af, neg,
    )


def _split(dataset: str, seed: int):
    import repro.datasets as datasets

    data = datasets.load_dataset(dataset)
    return data, datasets.train_val_test_split(data, seed=seed)


def _train_setup_model(dataset: str, surrogates) -> tuple:
    """The net ``variation``/``signoff`` start from: seed 0, 40 epochs, no budget.

    It is the same on every run, so runs with different seeds do the same
    amount of work; the op seeds vary the inputs.
    """
    import repro.training as training

    data, split = _split(dataset, 0)
    net = _build(data, 0, surrogates)
    settings = training.TrainerSettings(epochs=SETUP_EPOCHS, patience=SETUP_EPOCHS)
    training.train_unconstrained(net, split, settings=settings)
    net.eval()
    return net, split


class TrainAL:
    """Serial captured-graph replay: one AL training under a hard budget."""

    name = "train_al"
    pool = 8
    #: a median over three seeds, whatever the host speed
    min_ops = 3

    def setup(self, surrogates) -> None:
        self.surrogates = surrogates

    def op(self, seed: int, tmp: Path):
        import repro.training as training

        out = OpResult()
        # cmd_train: split from --seed, constrained net from --seed + 1,
        # --epochs 300 → patience max(40, 300 // 4).
        data, split = _split("iris", seed)
        net = _build(data, seed + 1, self.surrogates)
        settings = training.TrainerSettings(epochs=300, patience=75, capture_graph=True)
        result = training.train_power_constrained(
            net, split, power_budget=BUDGET_W, mu=5.0, settings=settings
        )

        def finish() -> OpResult:
            out.infeasible = not result.feasible
            values = np.asarray(
                [result.power, result.test_accuracy, *result.loss_trace, *result.power_trace]
            )
            if not np.all(np.isfinite(values)):
                out.problems.append("train: non-finite AL result")
            out.digest = digest(values, result.device_count, result.feasible)
            return out

        return finish


class Variation:
    """Instance-stacked forward: vectorized penalty sweep, then MC yield."""

    name = "variation"
    pool = 4
    #: one op (~20 s) is all a run has time for
    min_ops = 1

    def setup(self, surrogates) -> None:
        self.net, self.split = _train_setup_model("iris", surrogates)

    def op(self, seed: int, tmp: Path):
        from repro.evaluation import experiments, montecarlo
        from repro.pdk.variation import VariationSpec
        from repro.training import penalty

        out = OpResult()
        # cmd_sweep: repro sweep iris --vectorized --epochs 40 --seed s.
        config = experiments.ExperimentConfig(
            epochs=40, patience=40, seed=seed,
            surrogate_n_q=SURROGATE_N_Q, surrogate_epochs=SURROGATE_EPOCHS,
        )
        spec = experiments.network_spec("iris", _tanh(), config)
        split = experiments.dataset_split("iris", seed=seed)
        start = perf_counter()
        sweep = penalty.penalty_pareto_sweep(
            spec.build, split, n_alphas=6, n_seeds=2,
            settings=config.trainer_settings(), n_jobs=1, net_spec=spec,
            vectorized=True, instance_chunk=MC_CHUNK,
        )
        out.phases["sweep_s"] = perf_counter() - start

        # Every `repro montecarlo` command captures its ensemble program
        # once; empty the process-wide single-slot cache so each op does too.
        montecarlo._PROGRAM_CACHE = None
        start = perf_counter()
        report = montecarlo.run_monte_carlo(
            self.net, self.split.x_test, self.split.y_test, VariationSpec(),
            n_samples=MC_INSTANCES, seed=seed, power_budget=BUDGET_W,
            accuracy_floor=0.5, vectorized=True, instance_chunk=MC_CHUNK,
        )
        out.phases["mc_s"] = perf_counter() - start

        def finish() -> OpResult:
            if sweep.errors:
                out.problems.append(f"sweep: {len(sweep.errors)} task errors")
            points = np.asarray(sweep.points(), dtype=np.float64)
            if len(sweep.results) != SWEEP_POINTS or not np.all(np.isfinite(points)):
                out.problems.append("sweep: missing or non-finite points")
            mc = np.concatenate([[report.parametric_yield], report.accuracies, report.powers])
            if not np.all(np.isfinite(mc)):
                out.problems.append("montecarlo: non-finite yield or powers")
            out.digest = digest(points, mc)
            return out

        return finish


class Signoff:
    """Artifact round trip, serving predict, compile with SPICE verify."""

    name = "signoff"
    pool = 4
    min_ops = 1

    def setup(self, surrogates) -> None:
        self.net, split = _train_setup_model("cardiotocography", surrogates)
        self.x_test = split.x_test

    def _live_logits(self, x: np.ndarray) -> np.ndarray:
        from repro.autograd.tensor import Tensor, no_grad

        with no_grad():
            return self.net.forward(Tensor(x)).data

    def op(self, seed: int, tmp: Path):
        from repro.compile import compiler
        from repro.compile.constraints import TileConstraints
        from repro.serving import artifact

        out = OpResult()
        # The seed orders the test rows; the first 8 become the signed-off
        # test vectors.  repro export → predict → compile --tile-rows 8
        # --tile-cols 4 --vectors 8 (verify on).
        x = self.x_test[np.random.default_rng(seed).permutation(len(self.x_test))]
        path = artifact.export_artifact(self.net, tmp / "model.pnz")
        model = artifact.load_artifact(path)
        logits = model.predict(x)
        result = compiler.compile_model(
            model.net, TileConstraints(max_rows=8, max_cols=4), x, tmp / "compiled",
            n_vectors=8, negation="ideal", tolerance_v=0.05,
        )

        def finish() -> OpResult:
            report = result.report
            if report is None or not report.ok:
                out.problems.append("compile: sign-off failed")
            if not np.array_equal(model.eager_logits(x), self._live_logits(x)):
                out.problems.append("serving: artifact logits differ from the live net")
            if not np.all(np.isfinite(logits)):
                out.problems.append("serving: non-finite predictions")
            out.digest = digest(logits, result.layout.n_tiles)
            return out

        return finish


WORKLOADS = {cls.name: cls for cls in (TrainAL, Variation, Signoff)}
