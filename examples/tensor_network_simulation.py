"""Tensor-network simulation tour: the QTensor-style engine under the hood.

Walks through what happens when QArchSearch evaluates a candidate on a
graph too large for dense simulation: lightcone pruning per edge,
contraction-order search, bucket elimination, and variable slicing. Ends
with a 24-qubit QAOA energy evaluation that a dense simulator would need a
256 MB state vector for.

    python examples/tensor_network_simulation.py
"""

import time

import numpy as np

from repro.graphs.generators import random_regular_graph
from repro.qaoa.analytic import maxcut_energy_p1
from repro.qaoa.ansatz import build_qaoa_ansatz
from repro.qtensor import (
    QTensorSimulator,
    TensorNetwork,
    choose_slice_vars,
    contract_network,
    contract_sliced,
    interaction_graph,
    lightcone_circuit,
    min_fill_order,
    random_order,
)

# --- 1. a QAOA circuit on a 24-node graph --------------------------------
graph = random_regular_graph(24, 3, seed=11)
ansatz = build_qaoa_ansatz(graph, 1, ("rx", "ry"))
bound = ansatz.bind([0.45, -0.6])
print(f"circuit: {bound.num_qubits} qubits, {bound.size()} gates, "
      f"depth {bound.depth()}")

# --- 2. lightcone pruning for one edge observable -------------------------
u, v = graph.edges[0]
cone = lightcone_circuit(bound, [u, v])
print(f"\nlightcone of edge ({u},{v}): {cone.size()} of {bound.size()} gates survive")

# --- 3. contraction-order quality ------------------------------------------
net = TensorNetwork.expectation(
    cone, [((u, v), np.array([0, 1, 1, 0], dtype=complex))], initial_state="0"
)
g = interaction_graph(net.tensors)
fill = min_fill_order(g)
rand = random_order(g, seed=0)
print(f"min-fill order: width {fill.width} (cost ~2^{fill.log2_cost:.1f})")
print(f"random order:   width {rand.width} (cost ~2^{rand.log2_cost:.1f})")

# --- 4. full energy via per-edge contractions --------------------------------
sim = QTensorSimulator()
start = time.perf_counter()
energy = sim.maxcut_energy(bound, graph, initial_state="0")
elapsed = time.perf_counter() - start
print(f"\n<C> over all {graph.num_edges} edges: {energy:.6f} "
      f"({elapsed * 1e3:.1f} ms, max width {max(sim.last_widths)})")

# exactness check against the p=1 closed form (valid for the plain RX mixer)
baseline = build_qaoa_ansatz(graph, 1, ("rx",)).bind([0.45, -0.6])
tn_baseline = sim.maxcut_energy(baseline, graph, initial_state="0")
closed_form = maxcut_energy_p1(graph, 0.45, -0.6)
print(f"RX-mixer energy, tensor net:  {tn_baseline:.6f}")
print(f"RX-mixer energy, closed form: {closed_form:.6f}")
assert abs(tn_baseline - closed_form) < 1e-8, "tensor network disagrees with the closed form"

# --- 5. slicing: split one contraction into independent pieces ----------------
amp_net = TensorNetwork.from_circuit(bound, output_bitstring=0)
direct = complex(contract_network(amp_net))
slice_vars = choose_slice_vars(amp_net.tensors, 2)
sliced = contract_sliced(amp_net, slice_vars)
print(f"\namplitude <0...0|psi>: direct {direct:.3e}")
print(f"sliced over {len(slice_vars)} vars (4 pieces): {sliced:.3e}")
assert abs(direct - sliced) < 1e-12, "sliced and direct amplitudes disagree"
