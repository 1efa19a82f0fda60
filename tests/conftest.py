"""Shared fixtures: small graphs, ansätze, and RNGs used across the suite."""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.core.evaluator import EvaluationConfig
from repro.graphs.generators import (
    complete_graph,
    cycle_graph,
    erdos_renyi_graph,
    path_graph,
    random_regular_graph,
)
from repro.parallel import executor as executor_module
from repro.parallel.executor import close_parked_fleet


@pytest.fixture(autouse=True)
def no_parked_fleet_crosses_tests():
    """``api.search(workers=N)`` parks its worker processes for the next
    call. Released after every test (not once per session): a worker forked
    under one test's monkeypatches, or killed by it, must not serve the
    next, and a test that counts children starts from none."""
    yield
    close_parked_fleet()


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def small_er_graph():
    """A connected 6-node ER instance (fixed seed)."""
    return erdos_renyi_graph(6, 0.5, seed=42, require_connected=True)


@pytest.fixture
def regular_graph():
    """A 6-node 3-regular instance (fixed seed)."""
    return random_regular_graph(6, 3, seed=42)


@pytest.fixture
def c5():
    return cycle_graph(5)


@pytest.fixture
def k4():
    return complete_graph(4)


@pytest.fixture
def p3():
    return path_graph(3)


@pytest.fixture
def fast_eval_config():
    """A small optimizer budget for tests that actually train circuits."""
    return EvaluationConfig(max_steps=12, seed=3)


def random_circuit(num_qubits: int, num_gates: int, seed: int = 0):
    """A random mixed 1q/2q circuit exercising every gate family."""
    from repro.circuits.circuit import QuantumCircuit

    rng = np.random.default_rng(seed)
    qc = QuantumCircuit(num_qubits)
    one_q = ["h", "x", "y", "z", "s", "t", "sdg", "tdg"]
    rot = ["rx", "ry", "rz", "p"]
    two_q = ["cx", "cz", "swap"]
    rot2 = ["rzz", "rxx", "cp"]
    for _ in range(num_gates):
        choice = rng.random()
        q = int(rng.integers(num_qubits))
        if choice < 0.3:
            qc.append_named(str(rng.choice(one_q)), [q])
        elif choice < 0.6:
            qc.append_named(str(rng.choice(rot)), [q], float(rng.uniform(-3, 3)))
        elif num_qubits >= 2 and choice < 0.8:
            r = int(rng.integers(num_qubits - 1))
            r = r if r != q else num_qubits - 1
            qc.append_named(str(rng.choice(two_q)), [q, r])
        elif num_qubits >= 2:
            r = int(rng.integers(num_qubits - 1))
            r = r if r != q else num_qubits - 1
            qc.append_named(str(rng.choice(rot2)), [q, r], float(rng.uniform(-3, 3)))
        else:
            qc.h(q)
    return qc


def _running(pid: int) -> bool:
    """True while ``pid`` exists and is not a zombie waiting to be reaped."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().rpartition(")")[2].split()[0] != "Z"
    except FileNotFoundError:
        return False


@pytest.fixture
def still_running():
    """``still_running(pids, timeout)`` waits up to ``timeout`` seconds for
    every pid to be gone and returns the ones that are not — the check
    behind "no worker process outlives its pool / its server"."""

    def check(pids, timeout: float = 5.0) -> list[int]:
        deadline = time.monotonic() + timeout
        while True:
            left = [pid for pid in pids if _running(pid)]
            if not left or time.monotonic() > deadline:
                return left
            time.sleep(0.02)

    return check


def parked_pids() -> list[int]:
    """Worker pids of the fleet ``leased_fleet`` has parked ([] = none is)."""
    return [
        pid
        for fleet in executor_module._parked
        for pool in fleet
        for pid in pool.worker_pids()
    ]


def evaluations(result):
    """Every evaluation of a ``SearchResult`` minus its wall-clock
    ``seconds`` — what two runs of the same sweep must agree on."""
    return [
        (e.tokens, e.p, e.energy, e.ratio, e.per_graph_energy, e.nfev, e.best_params)
        for depth in result.depth_results
        for e in depth.evaluations
    ]
