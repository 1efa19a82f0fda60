"""Batch-native optimizer stack: batched paths pinned to their serial
counterparts (same trajectories, same minima, same nfev accounting)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs.generators import cycle_graph
from repro.optimizers import (
    BATCH_MODES,
    SPSA,
    Adam,
    Cobyla,
    MultiRestart,
    NelderMead,
    batch_values,
)
from repro.optimizers import spsa as spsa_module
from repro.qaoa.ansatz import build_qaoa_ansatz
from repro.qaoa.energy import AnsatzEnergy

TARGET = np.array([1.0, -2.0])


def quadratic(x):
    return float(np.sum((x - TARGET) ** 2))


class Quadratic:
    """``|x - target|^2`` as a batch objective: the objective carries its
    own batch evaluator and gradients, the one channel optimizers read."""

    def __init__(self, target=TARGET):
        self.target = np.asarray(target, dtype=float)

    def __call__(self, x):
        return float(np.sum((np.asarray(x) - self.target) ** 2))

    def values(self, X):
        return np.array([self(row) for row in X])

    def gradient(self, x):
        return 2.0 * (np.asarray(x) - self.target)

    def gradients(self, X):
        return np.stack([self.gradient(row) for row in X])


def populations(max_dim=4, max_restarts=5):
    """Random (K, dim) start-point populations."""
    return st.integers(1, max_dim).flatmap(
        lambda dim: st.integers(1, max_restarts).flatmap(
            lambda k: st.lists(
                st.lists(
                    st.floats(-3.0, 3.0, allow_nan=False, width=32),
                    min_size=dim,
                    max_size=dim,
                ),
                min_size=k,
                max_size=k,
            )
        )
    )


def assert_results_match(serial, batched):
    assert len(serial) == len(batched)
    for a, b in zip(serial, batched):
        assert a.nfev == b.nfev
        assert a.nit == b.nit
        assert a.converged == b.converged
        assert a.fun == b.fun
        np.testing.assert_array_equal(a.x, b.x)
        assert a.history == b.history


class TestObjectiveTracer:
    def test_scalar_objective_falls_back_to_loop(self):
        values = batch_values(quadratic, [[0.0, 0.0], [1.0, -2.0]])
        np.testing.assert_allclose(values, [5.0, 0.0])

    def test_batch_values_validates_shape(self):
        class Short(Quadratic):
            def values(self, X):
                return np.zeros(1)

        with pytest.raises(ValueError, match="returned 1 values for 2"):
            batch_values(Short(), np.zeros((2, 2)))


class TestNegatedEnergy:
    def test_negated_values_and_gradients(self):
        energy = AnsatzEnergy(build_qaoa_ansatz(cycle_graph(4), 1))
        negated = energy.negative_objective()
        X = np.array([[0.3, 0.2], [0.1, -0.4]])
        np.testing.assert_allclose(negated.values(X), -energy.values(X))
        np.testing.assert_allclose(negated.gradients(X), -energy.gradients(X))
        assert negated(X[0]) == -energy.value(X[0])
        np.testing.assert_allclose(negated.gradient(X[0]), -energy.gradient(X[0]))


class TestBatchedSPSA:
    @settings(max_examples=20, deadline=None)
    @given(populations(), st.integers(0, 2**31 - 1))
    def test_matches_serial_per_restart(self, rows, seed):
        X0 = np.asarray(rows, dtype=float)
        fn = Quadratic(np.arange(X0.shape[1], dtype=float))
        optimizer = SPSA(maxiter=15, seed=seed)
        serial = [optimizer.minimize(fn, x0) for x0 in X0]
        batched = optimizer.minimize_batch(fn, X0)
        assert_results_match(serial, batched)

    def test_nfev_counts_points(self):
        results = SPSA(maxiter=10, seed=0).minimize_batch(Quadratic(), np.zeros((3, 2)))
        assert [r.nfev for r in results] == [2 * 10 + 2] * 3


class Recording(Quadratic):
    """A quadratic that keeps every batch it is handed."""

    def __init__(self):
        super().__init__()
        self.batches = []

    def values(self, X):
        self.batches.append(np.array(X))
        return super().values(X)


class TestSPSATable:
    """An integer seed's ± sequence is drawn once per (seed, dim, maxiter)
    and replayed: every candidate of a sweep trains under the sweep's seed."""

    @pytest.fixture(autouse=True)
    def _empty_table_memo(self):
        spsa_module._rademacher_table.cache_clear()

    def test_the_table_is_the_serial_draws_row_by_row(self):
        table = spsa_module._rademacher_table(11, 3, 20)
        rng = np.random.default_rng(11)
        assert table.shape == (20, 3)
        for row in table:
            assert np.array_equal(row, spsa_module._rademacher(rng, 3))
        with pytest.raises(ValueError, match="read-only"):
            table[0, 0] = 0.0

    def test_an_integer_seed_draws_it_once_and_replays_it(self):
        fn = Quadratic(np.array([0.5, -1.0]))
        runs = [
            SPSA(maxiter=12, seed=seed).minimize(fn, [0.1, 0.2]) for seed in (5, 5, np.int64(5))
        ]
        info = spsa_module._rademacher_table.cache_info()
        assert (info.misses, info.hits, info.currsize) == (1, 2, 1)
        for run in runs[1:]:
            assert run.history == runs[0].history and np.array_equal(run.x, runs[0].x)

    def test_none_and_generator_seeds_draw_per_iteration(self):
        fn = Quadratic()
        for seed in (None, np.random.default_rng(3)):
            SPSA(maxiter=6, seed=seed).minimize(fn, [0.0, 0.0])
            SPSA(maxiter=6, seed=seed).minimize_batch(fn, np.zeros((3, 2)))
        assert spsa_module._rademacher_table.cache_info().currsize == 0
        # a Generator is one stream: a second run continues it
        generator = np.random.default_rng(3)
        first = SPSA(maxiter=6, seed=generator).minimize(fn, [0.0, 0.0])
        second = SPSA(maxiter=6, seed=generator).minimize(fn, [0.0, 0.0])
        assert first.history != second.history

    def test_restarts_broadcast_the_one_stream(self):
        fn = Recording()
        maxiter = 8
        X0 = np.array([[0.0, 0.0], [1.0, -1.0], [2.0, 0.5]])
        SPSA(maxiter=maxiter, seed=9).minimize_batch(fn, X0)
        table = spsa_module._rademacher_table(9, 2, maxiter)
        steps = fn.batches[1:-1]
        assert len(steps) == maxiter
        for k, batch in enumerate(steps):
            plus, minus = batch[:3], batch[3:]
            ck = SPSA.c / (k + 1) ** SPSA.gamma
            deltas = np.sign(plus - minus)
            assert np.array_equal(deltas, np.broadcast_to(table[k], (3, 2)))
            np.testing.assert_allclose(plus - minus, 2 * ck * deltas, rtol=1e-12)


class TestBatchedNelderMead:
    @settings(max_examples=20, deadline=None)
    @given(populations(max_dim=3))
    def test_matches_serial_per_restart(self, rows):
        X0 = np.asarray(rows, dtype=float)
        fn = Quadratic(np.arange(X0.shape[1], dtype=float))
        optimizer = NelderMead(maxiter=40)
        serial = [optimizer.minimize(fn, x0) for x0 in X0]
        batched = optimizer.minimize_batch(fn, X0)
        assert_results_match(serial, batched)

    def test_restarts_converge_independently(self):
        # One restart starts at the optimum (converges fast), one far away.
        X0 = np.vstack([TARGET, TARGET + 50.0])
        results = NelderMead(maxiter=300).minimize_batch(Quadratic(), X0)
        assert results[0].converged and results[1].converged
        assert results[0].nit < results[1].nit


class TestBatchedAdam:
    @settings(max_examples=15, deadline=None)
    @given(populations(max_dim=3, max_restarts=4))
    def test_matches_serial_per_restart(self, rows):
        X0 = np.asarray(rows, dtype=float)
        fn = Quadratic(np.arange(X0.shape[1], dtype=float))
        optimizer = Adam(maxiter=30)
        with pytest.MonkeyPatch.context() as patch:  # a fixture would outlive one example
            patch.setattr(Adam, "learning_rate", 0.1)
            patch.setattr(Adam, "gtol", 1e-3)
            serial = [optimizer.minimize(fn, x0) for x0 in X0]
            batched = optimizer.minimize_batch(fn, X0)
        assert_results_match(serial, batched)

    def test_gradients_shape_validated(self):
        class Flat(Quadratic):
            def gradients(self, X):
                return np.zeros((1, 1))

        with pytest.raises(ValueError, match="gradients returned shape"):
            Adam(maxiter=5).minimize_batch(Flat(), np.zeros((2, 2)))


class TestSerialFallback:
    def test_cobyla_population_uses_serial_minimize(self):
        X0 = np.array([[0.0, 0.0], [3.0, 3.0]])
        results = Cobyla(maxiter=60).minimize_batch(Quadratic(), X0)
        direct = [Cobyla(maxiter=60).minimize(quadratic, x0) for x0 in X0]
        assert [r.fun for r in results] == [r.fun for r in direct]
        assert not Cobyla.supports_batch


class TestMultiRestart:
    def test_returns_best_restart_and_sums_nfev(self):
        X0 = np.vstack([TARGET + 40.0, TARGET])  # second seed is the optimum
        meta = MultiRestart(NelderMead(maxiter=60))
        result = meta.minimize_population(Quadratic(), X0)
        assert result.sub_results is not None and len(result.sub_results) == 2
        assert result.fun == min(r.fun for r in result.sub_results)
        assert result.nfev == sum(r.nfev for r in result.sub_results)

    @pytest.mark.parametrize("mode", BATCH_MODES)
    def test_modes_agree_on_exact_objective(self, mode):
        X0 = np.array([[3.0, 3.0], [0.0, 0.0], [-1.0, 2.0]])
        meta = MultiRestart(SPSA(maxiter=25, seed=7), batch_mode=mode)
        result = meta.minimize_population(Quadratic(), X0)
        reference = MultiRestart(
            SPSA(maxiter=25, seed=7), batch_mode="serial"
        ).minimize_population(quadratic, X0)
        assert result.fun == reference.fun
        assert result.nfev == reference.nfev
        np.testing.assert_array_equal(result.x, reference.x)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="unknown batch mode"):
            MultiRestart(SPSA(), batch_mode="turbo")

    def test_empty_population_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            MultiRestart(SPSA()).minimize_population(
                quadratic, np.empty((0, 2))
            )


class TestOnCompiledEnergy:
    """Batched training on the real (compiled-engine) QAOA objective."""

    @pytest.fixture(scope="class")
    def negated(self):
        energy = AnsatzEnergy(build_qaoa_ansatz(cycle_graph(6), 2))
        return energy.negative_objective()

    def test_spsa_batched_close_to_serial(self, negated):
        # The batched engine path evaluates through states(X) instead of
        # per-point state(x); trajectories agree to float round-off, so
        # minima match to tight (not bitwise) tolerance.
        X0 = np.random.default_rng(2).uniform(-0.5, 0.5, (4, 4))
        batched = MultiRestart(
            SPSA(maxiter=30, seed=1), batch_mode="batched"
        ).minimize_population(negated, X0)
        serial = MultiRestart(
            SPSA(maxiter=30, seed=1), batch_mode="serial"
        ).minimize_population(negated, X0)
        assert batched.nfev == serial.nfev
        assert batched.fun == pytest.approx(serial.fun, abs=1e-8)

    def test_adam_rides_batched_parameter_shift(self, negated, monkeypatch):
        monkeypatch.setattr(Adam, "learning_rate", 0.1)
        X0 = np.random.default_rng(3).uniform(-0.5, 0.5, (3, 4))
        optimizer = Adam(maxiter=15)
        results = optimizer.minimize_batch(negated, X0)
        serial = [optimizer.minimize(negated, x0) for x0 in X0]
        for a, b in zip(serial, results):
            assert a.nfev == b.nfev
            assert a.fun == pytest.approx(b.fun, abs=1e-8)


class RowwiseQuadratics:
    """A population objective on an exact function: row ``r`` minimizes
    ``|x - targets[r]|^2``. Records every ``rows`` it is handed."""

    def __init__(self, targets):
        self.targets = np.asarray(targets, dtype=float)
        self.seen = []

    def row_objective(self, row):
        target = self.targets[row]

        class Row:
            def __call__(self, x):
                return float(np.sum((np.asarray(x) - target) ** 2))

            def gradient(self, x):
                return 2.0 * (np.asarray(x) - target)

        return Row()

    def values(self, X, rows):
        self.seen.append(np.asarray(rows).copy())
        assert len(rows) == len(X)
        return np.array([self.row_objective(r)(x) for r, x in zip(rows, X)])

    def gradients(self, X, rows):
        assert len(rows) == len(X)
        return np.stack([self.row_objective(r).gradient(x) for r, x in zip(rows, X)])


class TestPopulationObjective:
    """One objective per row: the lockstep must submit each point's row
    (ownership cannot be read off the position in the batch) and the serial
    walk must minimize each row's own objective."""

    TARGETS = np.array([[1.0, -2.0], [-3.0, 0.5], [0.0, 4.0]])
    X0 = np.array([[0.2, 0.1], [1.5, -0.5], [-1.0, 2.0]])

    @pytest.fixture(autouse=True)
    def _adam_constants(self, monkeypatch):
        monkeypatch.setattr(Adam, "learning_rate", 0.1)
        monkeypatch.setattr(Adam, "gtol", 1e-3)

    def optimizers(self):
        return [SPSA(maxiter=25, seed=7), NelderMead(maxiter=60), Adam(maxiter=40)]

    def test_lockstep_matches_each_rows_own_serial_run(self):
        for optimizer in self.optimizers():
            population = RowwiseQuadratics(self.TARGETS)
            serial = [
                optimizer.minimize(population.row_objective(row), x0)
                for row, x0 in enumerate(self.X0)
            ]
            assert_results_match(serial, optimizer.minimize_batch(population, self.X0))
            assert population.seen, optimizer.name

    def test_spsa_stacks_plus_then_minus(self):
        population = RowwiseQuadratics(self.TARGETS)
        SPSA(maxiter=2, seed=0).minimize_batch(population, self.X0)
        assert [rows.tolist() for rows in population.seen] == [
            [0, 1, 2], [0, 1, 2, 0, 1, 2], [0, 1, 2, 0, 1, 2], [0, 1, 2],
        ]

    def test_nelder_mead_and_adam_submit_live_subsets(self):
        # row 0 starts at its optimum and stops early; the others go on
        X0 = np.vstack([self.TARGETS[0], self.X0[1:]])
        for optimizer in self.optimizers()[1:]:
            population = RowwiseQuadratics(self.TARGETS)
            results = optimizer.minimize_batch(population, X0)
            assert results[0].nit < results[1].nit
            assert any(0 not in rows for rows in population.seen), optimizer.name

    @pytest.mark.parametrize("mode", BATCH_MODES)
    def test_multi_restart_modes_agree(self, mode):
        for base in self.optimizers() + [Cobyla(maxiter=40)]:
            population = RowwiseQuadratics(self.TARGETS)
            result = MultiRestart(base, batch_mode=mode).minimize_population(
                population, self.X0
            )
            reference = [
                base.minimize(population.row_objective(row), x0)
                for row, x0 in enumerate(self.X0)
            ]
            assert_results_match(reference, result.sub_results)
