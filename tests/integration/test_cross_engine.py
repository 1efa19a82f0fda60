"""Cross-engine consistency on the paper's actual workload circuits.

Every simulation pathway in the package — dense state vector, tensor
network with each ordering heuristic and backend, and the p=1 closed form
— must report the same QAOA energies on the paper's 10-node datasets.
"""

import numpy as np
import pytest

from repro.graphs.datasets import paper_er_dataset, paper_regular_dataset
from repro.qaoa.analytic import maxcut_energy_p1
from repro.qaoa.ansatz import build_qaoa_ansatz
from repro.qaoa.energy import AnsatzEnergy
from repro.qtensor.simulator import QTensorSimulator

ANGLES_P1 = [0.41, -0.63]
ANGLES_P2 = [0.41, -0.63, 0.17, 0.52]


def qtensor_energy(ansatz, x):
    """The tensor-network simulator, driven directly: it is the paper's
    scaling backend and a cross-check here, not an ``AnsatzEnergy`` engine."""
    return QTensorSimulator().maxcut_energy(
        ansatz.bind(x), ansatz.graph, initial_state=ansatz.initial_state_label
    )


@pytest.fixture(scope="module")
def er10():
    return paper_er_dataset(2)


@pytest.fixture(scope="module")
def reg10():
    return paper_regular_dataset(2)


class TestTenQubitConsistency:
    @pytest.mark.parametrize("tokens", [("rx",), ("rx", "ry")])
    def test_p1_all_engines_agree(self, er10, tokens):
        for graph in er10:
            ansatz = build_qaoa_ansatz(graph, 1, tokens)
            sv = AnsatzEnergy(ansatz, engine="statevector").value(ANGLES_P1)
            tn = qtensor_energy(ansatz, ANGLES_P1)
            assert tn == pytest.approx(sv, abs=1e-8)
            if tokens == ("rx",):
                closed = maxcut_energy_p1(graph, *ANGLES_P1)
                assert sv == pytest.approx(closed, abs=1e-9)

    def test_p2_tn_vs_dense_on_regular(self, reg10):
        for graph in reg10:
            ansatz = build_qaoa_ansatz(graph, 2, ("rx", "ry"))
            sv = AnsatzEnergy(ansatz, engine="statevector").value(ANGLES_P2)
            tn = qtensor_energy(ansatz, ANGLES_P2)
            assert tn == pytest.approx(sv, abs=1e-8)

    def test_ordering_heuristics_agree(self, reg10):
        graph = reg10[0]
        bound = build_qaoa_ansatz(graph, 1, ("ry", "p")).bind(ANGLES_P1)
        energies = [
            QTensorSimulator(ordering_method=m, ordering_seed=0).maxcut_energy(
                bound, graph, initial_state="0"
            )
            for m in ("min_fill", "min_degree", "random")
        ]
        np.testing.assert_allclose(energies, energies[0], atol=1e-8)

    def test_backends_agree(self, reg10):
        graph = reg10[0]
        bound = build_qaoa_ansatz(graph, 1).bind(ANGLES_P1)
        cpu = QTensorSimulator(backend="numpy").maxcut_energy(bound, graph, initial_state="0")
        gpu = QTensorSimulator(backend="gpu").maxcut_energy(bound, graph, initial_state="0")
        assert gpu == pytest.approx(cpu, abs=1e-10)

    def test_qtensor_width_stays_small_at_p1(self, reg10):
        """On sparse 10-node graphs the lightcone keeps contraction width
        well below the qubit count — the reason TN simulation scales."""
        graph = reg10[0]
        bound = build_qaoa_ansatz(graph, 1).bind(ANGLES_P1)
        sim = QTensorSimulator()
        sim.maxcut_energy(bound, graph, initial_state="0")
        assert max(sim.last_widths) <= 8
