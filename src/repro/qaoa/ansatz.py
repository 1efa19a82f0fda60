"""The p-layer QAOA ansatz of Eq. (2).

``|gamma, beta> = e^{-i beta_p B} e^{-i gamma_p C} ... e^{-i beta_1 B}
e^{-i gamma_1 C} |s>`` with ``|s> = |+>^n``. The mixer slot accepts any
token sequence from :mod:`repro.qaoa.mixers`, which is where the searched
architectures plug in.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property, lru_cache

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.parameters import Parameter
from repro.circuits.qasm import Template, qasm_header, qasm_template
from repro.graphs.generators import Graph
from repro.qaoa.mixers import append_mixer_layer, check_mixer_tokens, mixer_label, mixer_layer
from repro.utils.validation import check_positive

__all__ = ["QAOAAnsatz", "build_qaoa_ansatz"]


@dataclass(frozen=True)
class QAOAAnsatz:
    """A built ansatz: its parameter vectors and what they parameterize.

    ``parameters`` concatenates ``gammas + betas`` — the flat layout the
    optimizers see. The circuit prepares ``|+>^n`` itself with a Hadamard
    column, so a simulator starts it from ``|0>^n``. The symbolic
    :attr:`circuit` is built on first access: the gate-level engines,
    :meth:`bind` and drawing read it; :meth:`compile` and :meth:`qasm`
    work from the ansatz's layer structure and never do.
    """

    gammas: tuple[Parameter, ...]
    betas: tuple[Parameter, ...]
    graph: Graph
    mixer_tokens: tuple[str, ...]
    #: registry key of the problem this ansatz optimizes (the phase
    #: separators of ``circuit`` come from this workload)
    workload: str = "maxcut"

    @cached_property
    def circuit(self) -> QuantumCircuit:
        """The symbolic Eq. (2) circuit over ``gammas`` and ``betas``."""
        # imported lazily: repro.workloads pulls in repro.qaoa.cost_operator,
        # so a module-level import here would be circular
        from repro.workloads import get_workload

        problem = get_workload(self.workload)
        n = self.graph.num_nodes
        circuit = QuantumCircuit(
            n, name=f"qaoa_p{self.p}_{mixer_label(self.mixer_tokens)}"
        )
        for q in range(n):
            circuit.h(q)
        for gamma, beta in zip(self.gammas, self.betas):
            problem.append_cost_layer(circuit, self.graph, gamma)
            append_mixer_layer(circuit, self.mixer_tokens, beta)
        return circuit

    @property
    def p(self) -> int:
        return len(self.gammas)

    @property
    def parameters(self) -> list[Parameter]:
        return list(self.gammas) + list(self.betas)

    @property
    def num_parameters(self) -> int:
        return 2 * self.p

    def _check_values(self, values: Sequence[float]) -> None:
        if len(values) != self.num_parameters:
            raise ValueError(
                f"expected {self.num_parameters} values (p={self.p}), got {len(values)}"
            )

    def bind(self, values: Sequence[float]) -> QuantumCircuit:
        """Bind a flat ``[gammas..., betas...]`` vector."""
        self._check_values(values)
        mapping = dict(zip(self.parameters, values))
        return self.circuit.bind_parameters(mapping)

    def qasm(self, values: Sequence[float]) -> str:
        """``to_qasm(self.bind(values))`` byte for byte, stitched without a
        circuit: the header, then ``p`` copies of the memoized one-layer
        cost and mixer templates with their angle slots filled."""
        from repro.workloads import get_workload

        self._check_values(values)
        n = self.graph.num_nodes
        cost, cost_slots = _cost_template(get_workload(self.workload), self.graph)
        mixer, mixer_slots = _mixer_template(self.mixer_tokens, n)
        # the Hadamard column is the ``h`` mixer's layer
        parts = [qasm_header(n), _mixer_template(("h",), n)[0]]
        for gamma, beta in zip(map(float, values[: self.p]), map(float, values[self.p :])):
            parts.append(cost.format(*[offset + c * gamma for offset, c in cost_slots]))
            parts.append(mixer.format(*[offset + c * beta for offset, c in mixer_slots]))
        return "".join(parts)

    def compile(self, *, backend=None):
        """Lower into a :class:`~repro.simulators.compiled.CompiledProgram`.

        The returned program evaluates energies, batches, and
        parameter-shift gradients without ever building or binding
        :attr:`circuit` (the fast path of
        :class:`~repro.qaoa.energy.AnsatzEnergy`'s default engine).
        ``backend`` selects the array backend the program runs under — a
        registered name or :class:`~repro.simulators.backends.ArrayBackend`
        instance (default ``"numpy"``).
        """
        from repro.simulators.compiled import compile_ansatz

        return compile_ansatz(self, backend=backend)


@lru_cache(maxsize=256)
def _cost_template(workload, graph: Graph) -> Template:
    """``workload``'s one-layer phase separator on ``graph`` over one
    ``gamma`` — keyed by the workload *object*, so a workload re-registered
    under an old name never exports its predecessor's layer."""
    gamma = Parameter("gamma")
    layer = workload.append_cost_layer(QuantumCircuit(graph.num_nodes), graph, gamma)
    return qasm_template(layer, gamma)


@lru_cache(maxsize=1024)
def _mixer_template(tokens: tuple[str, ...], num_qubits: int) -> Template:
    """The one-layer mixer ``tokens`` on ``num_qubits`` qubits over one ``beta``."""
    beta = Parameter("beta")
    return qasm_template(mixer_layer(num_qubits, tokens, beta), beta)


def build_qaoa_ansatz(
    graph: Graph,
    p: int,
    mixer_tokens: Sequence[str] = ("rx",),
    *,
    workload: str = "maxcut",
) -> QAOAAnsatz:
    """Construct the Eq. (2) ansatz for ``graph`` at depth ``p``.

    One ``gamma_k``/``beta_k`` pair per layer; within a layer every
    parameterized mixer gate shares ``beta_k`` (the paper's weight-sharing
    choice, which keeps the parameter count at ``2p`` regardless of mixer
    length). ``workload`` selects the phase separator ``e^{-i gamma C}``
    from the :mod:`repro.workloads` registry (default: the paper's MaxCut).
    """
    # imported lazily: repro.workloads pulls in repro.qaoa.cost_operator,
    # so a module-level import here would be circular
    from repro.workloads import get_workload

    check_positive(p, "p")
    get_workload(workload).validate_instance(graph)
    tokens = tuple(mixer_tokens)
    check_mixer_tokens(tokens)
    gammas = tuple(Parameter(f"gamma_{k}") for k in range(p))
    betas = tuple(Parameter(f"beta_{k}") for k in range(p))
    return QAOAAnsatz(gammas, betas, graph, tokens, workload)
