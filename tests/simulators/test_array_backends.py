"""Array-backend dispatch: the compiled engine's GPU seam, tested on CPU.

The contract: any registered backend run through the *identical* compiled
program must be indistinguishable from the NumPy default — energies,
batches, gradients, and final states pinned to 1e-10 across the full
mixer token alphabet (the mock GPU computes on NumPy, so it is in fact
bit-identical) — while the mock backend's device accounting proves every
evaluation really flows through the seam (kernels launched, bytes
transferred) rather than through a stray module-level ``np``.
"""

import importlib.util

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs.generators import cycle_graph, erdos_renyi_graph
from repro.qaoa.ansatz import build_qaoa_ansatz
from repro.qaoa.energy import AnsatzEnergy
from repro.qaoa.mixers import MIXER_TOKENS
from repro.simulators.backends import (
    ArrayBackend,
    MockGPUArrayBackend,
    NumpyArrayBackend,
    available_array_backends,
    get_array_backend,
    register_array_backend,
)
from repro.simulators.compiled import compile_ansatz

ATOL = 1e-10


@pytest.fixture(scope="module")
def er6():
    return erdos_renyi_graph(6, 0.5, seed=21, require_connected=True)


# -- registry ----------------------------------------------------------------


class TestRegistry:
    def test_numpy_and_mock_gpu_always_registered(self):
        names = available_array_backends()
        assert "numpy" in names
        assert "mock_gpu" in names

    def test_cupy_registered_only_when_importable(self):
        has_cupy = importlib.util.find_spec("cupy") is not None
        assert ("cupy" in available_array_backends()) == has_cupy

    def test_get_by_name(self):
        assert isinstance(get_array_backend("numpy"), NumpyArrayBackend)
        assert isinstance(get_array_backend("mock_gpu"), MockGPUArrayBackend)

    def test_fresh_instance_per_get(self):
        """Stateful backends must not share counters across programs."""
        assert get_array_backend("mock_gpu") is not get_array_backend("mock_gpu")

    def test_instance_passes_through(self):
        backend = MockGPUArrayBackend()
        assert get_array_backend(backend) is backend

    def test_unknown_name_lists_options(self):
        with pytest.raises(ValueError, match="unknown array backend.*numpy"):
            get_array_backend("tpu")

    def test_registration_is_open(self):
        """The ROADMAP drop-in point: a new library registers by name."""

        class Custom(NumpyArrayBackend):
            pass

        Custom.name = "custom_test_backend"
        register_array_backend("custom_test_backend", Custom)
        try:
            assert "custom_test_backend" in available_array_backends()
            assert isinstance(
                get_array_backend("custom_test_backend"), Custom
            )
        finally:
            from repro.simulators import backends as module

            module._REGISTRY.pop("custom_test_backend")


class TestNumpyBackend:
    def test_xp_is_numpy(self):
        assert NumpyArrayBackend().xp is np

    def test_host_boundaries_are_identity(self):
        backend = NumpyArrayBackend()
        a = np.arange(4.0)
        assert backend.asarray(a) is a
        assert backend.to_host(a) is a


# -- numpy vs mock-GPU equivalence over the token alphabet -------------------


def _pair(ansatz):
    """The same ansatz on the default and the mock-GPU backend."""
    return (
        AnsatzEnergy(ansatz, engine="compiled"),
        AnsatzEnergy(ansatz, engine="compiled", array_backend="mock_gpu"),
    )


@settings(max_examples=30, deadline=None)
@given(
    tokens=st.lists(st.sampled_from(MIXER_TOKENS), min_size=1, max_size=4),
    p=st.integers(1, 3),
    initial_hadamard=st.booleans(),
    seed=st.integers(0, 2**31 - 1),
)
def test_energy_identical_across_backends(tokens, p, initial_hadamard, seed):
    graph = cycle_graph(5)
    ansatz = build_qaoa_ansatz(
        graph, p, tuple(tokens), initial_hadamard=initial_hadamard
    )
    numpy_engine, mock_engine = _pair(ansatz)
    x = np.random.default_rng(seed).uniform(-np.pi, np.pi, ansatz.num_parameters)
    assert mock_engine.value(x) == pytest.approx(numpy_engine.value(x), abs=ATOL)


@settings(max_examples=15, deadline=None)
@given(
    tokens=st.lists(st.sampled_from(MIXER_TOKENS), min_size=1, max_size=3),
    seed=st.integers(0, 2**31 - 1),
)
def test_batched_energies_and_gradients_identical(tokens, seed):
    graph = cycle_graph(5)
    ansatz = build_qaoa_ansatz(graph, 2, tuple(tokens))
    numpy_engine, mock_engine = _pair(ansatz)
    X = np.random.default_rng(seed).uniform(
        -np.pi, np.pi, (4, ansatz.num_parameters)
    )
    np.testing.assert_allclose(
        mock_engine.values(X), numpy_engine.values(X), atol=ATOL
    )
    np.testing.assert_allclose(
        mock_engine.gradients(X), numpy_engine.gradients(X), atol=ATOL
    )


@pytest.mark.parametrize("token", MIXER_TOKENS)
def test_every_token_alone_matches_across_backends(token, er6):
    """Deterministic sweep of the full alphabet (the hypothesis runs above
    sample combinations; this pins every token individually)."""
    ansatz = build_qaoa_ansatz(er6, 2, (token,))
    numpy_engine, mock_engine = _pair(ansatz)
    rng = np.random.default_rng(hash(token) % 2**32)
    x = rng.uniform(-np.pi, np.pi, ansatz.num_parameters)
    X = rng.uniform(-np.pi, np.pi, (3, ansatz.num_parameters))
    assert mock_engine.value(x) == pytest.approx(numpy_engine.value(x), abs=ATOL)
    np.testing.assert_allclose(
        mock_engine.values(X), numpy_engine.values(X), atol=ATOL
    )
    np.testing.assert_allclose(
        mock_engine.gradient(x), numpy_engine.gradient(x), atol=ATOL
    )
    np.testing.assert_allclose(
        mock_engine.final_state(x), numpy_engine.final_state(x), atol=ATOL
    )


def test_states_match_across_backends(er6):
    ansatz = build_qaoa_ansatz(er6, 2, ("rx", "ry"))
    X = np.random.default_rng(5).uniform(-np.pi, np.pi, (3, ansatz.num_parameters))
    by_name = {
        name: compile_ansatz(ansatz, backend=name).states(X)
        for name in ("numpy", "mock_gpu")
    }
    assert isinstance(by_name["mock_gpu"], np.ndarray)
    np.testing.assert_allclose(by_name["mock_gpu"], by_name["numpy"], atol=ATOL)


# -- the mock backend's device accounting ------------------------------------


class TestMockGPUAccounting:
    def test_evaluation_launches_kernels_and_transfers(self, er6):
        ansatz = build_qaoa_ansatz(er6, 2, ("rx",))
        backend = MockGPUArrayBackend()
        program = compile_ansatz(ansatz, backend=backend)
        x = np.zeros(ansatz.num_parameters)
        program.energy(x)
        stats = backend.stats()
        assert stats["kernels"] > 0
        assert stats["bytes_to_device"] > 0
        assert stats["bytes_to_host"] > 0
        assert stats["device_seconds"] > 0

    def test_program_constants_upload_once(self, er6):
        """The _dev memo: repeat evaluations re-upload parameters, never
        the program's generator vectors / cut table."""
        ansatz = build_qaoa_ansatz(er6, 2, ("rx",))
        backend = MockGPUArrayBackend()
        program = compile_ansatz(ansatz, backend=backend)
        x = np.zeros(ansatz.num_parameters)
        program.energy(x)
        after_first = backend.stats()["bytes_to_device"]
        program.energy(x)
        per_repeat = backend.stats()["bytes_to_device"] - after_first
        assert per_repeat < after_first / 2, (
            "repeat evaluations re-upload program constants — the device "
            "memo is broken"
        )

    def test_reset_stats(self):
        backend = MockGPUArrayBackend()
        backend.asarray(np.zeros(16))
        backend.xp.exp(np.zeros(16))
        assert backend.stats()["kernels"] == 1
        backend.reset_stats()
        assert backend.stats() == {
            "kernels": 0.0,
            "elements": 0.0,
            "bytes_to_device": 0.0,
            "bytes_to_host": 0.0,
            "device_seconds": 0.0,
        }

    def test_namespace_forwards_non_callables(self):
        backend = MockGPUArrayBackend()
        assert backend.xp.pi == np.pi
        assert backend.xp.complex128 is np.complex128


class CountingBackend(NumpyArrayBackend):
    """NumPy behind an ``xp`` proxy that counts calls by name: what a
    backend's namespace returns is what the engine's hot paths run."""

    def __init__(self):
        self.calls: dict[str, int] = {}
        backend = self

        class Namespace:
            def __getattr__(self, name):
                attr = getattr(np, name)
                if not callable(attr) or isinstance(attr, type):
                    return attr

                def counted(*args, **kwargs):
                    backend.calls[name] = backend.calls.get(name, 0) + 1
                    return attr(*args, **kwargs)

                return counted

        self._xp = Namespace()

    @property
    def xp(self):
        return self._xp


def test_named_ops_are_routed_through_the_backend(er6):
    """The engine's kernels are looked up in the backend's ``xp``, not in
    a module-level ``np``: a substituted namespace observes every
    evaluation path — the phase ops of the QAOA program and the
    contraction ops of non-diagonal multi-qubit columns."""
    from repro.circuits.circuit import QuantumCircuit
    from repro.circuits.parameters import Parameter
    from repro.simulators.compiled import compile_circuit

    backend = CountingBackend()
    ansatz = build_qaoa_ansatz(er6, 2, ("rx",))
    program = compile_ansatz(ansatz, backend=backend)
    x = np.full(ansatz.num_parameters, 0.3)
    reference = compile_ansatz(ansatz)
    assert program.energy(x) == reference.energy(x)
    np.testing.assert_array_equal(
        program.energies(np.stack([x, -x])), reference.energies(np.stack([x, -x]))
    )
    program.gradient(x)

    theta = Parameter("t")
    qc = QuantumCircuit(3)
    qc.rxx(theta, 0, 1).rxx(theta, 1, 2)
    columns = compile_circuit(qc, [theta], backend=backend)
    columns.state([0.4])
    columns.states(np.array([[0.4], [0.9]]))
    for op in ("exp", "take", "multiply", "einsum", "tensordot", "moveaxis"):
        assert backend.calls.get(op, 0) > 0, f"{op} never reached the namespace"


# -- the knob on AnsatzEnergy ------------------------------------------------


class TestAnsatzEnergyKnob:
    def test_unknown_backend_rejected_eagerly(self, er6):
        ansatz = build_qaoa_ansatz(er6, 1, ("rx",))
        with pytest.raises(ValueError, match="unknown array backend"):
            AnsatzEnergy(ansatz, array_backend="tpu")

    def test_backend_instance_accepted(self, er6):
        ansatz = build_qaoa_ansatz(er6, 1, ("rx",))
        backend = MockGPUArrayBackend()
        energy = AnsatzEnergy(ansatz, array_backend=backend)
        assert energy.array_backend is backend
        assert energy.program.backend is backend

    def test_default_is_numpy(self, er6):
        ansatz = build_qaoa_ansatz(er6, 1, ("rx",))
        energy = AnsatzEnergy(ansatz)
        assert isinstance(energy.array_backend, ArrayBackend)
        assert energy.array_backend.name == "numpy"
