"""QAOA mixer layers — the object of the architecture search.

The baseline mixer is the transverse-field layer ``e^{-i beta B}`` with
``B = sum_k X_k``, i.e. ``RX(2 beta)`` on every qubit. QArchSearch replaces
it with a *searched* layer: a sequence of gates from the rotation alphabet
``A_R = {rx, ry, rz, h, p}``, each applied to every node/qubit of the
problem graph, with **all parameterized gates sharing the single parameter
beta** (Fig. 7 caption: "All parameterized gates in the mixer circuit share
the same parameter and hence do not incur additional computational cost").
The winning candidate of Fig. 6 is the sequence ``('rx', 'ry')``.

Entangler tokens (``cz_ring``, ``cx_ring``) extend the alphabet with the
"entanglement operators" the predictor-module description mentions; they
are off by default and exercised by the extension tests/benches.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.parameters import ParameterValue
from repro.utils.validation import check_positive

__all__ = [
    "PARAMETERIZED_TOKENS",
    "FIXED_TOKENS",
    "ENTANGLER_TOKENS",
    "MIXER_TOKENS",
    "check_mixer_tokens",
    "baseline_mixer",
    "append_mixer_layer",
    "mixer_layer",
    "mixer_label",
]

#: single-qubit rotation tokens that consume the shared beta (as angle 2*beta)
PARAMETERIZED_TOKENS = ("rx", "ry", "rz", "p")
#: parameter-free single-qubit tokens
FIXED_TOKENS = ("h",)
#: optional multi-qubit extension tokens
ENTANGLER_TOKENS = ("cz_ring", "cx_ring")
#: every token a mixer sequence may contain
MIXER_TOKENS = PARAMETERIZED_TOKENS + FIXED_TOKENS + ENTANGLER_TOKENS


def check_mixer_tokens(tokens: Iterable[str]) -> None:
    """Raise ``ValueError`` on the first token no mixer can contain."""
    for token in tokens:
        if token not in MIXER_TOKENS:
            raise ValueError(
                f"unknown mixer token {token!r}; valid tokens: {MIXER_TOKENS}"
            )


def append_mixer_layer(
    circuit: QuantumCircuit,
    tokens: Sequence[str],
    beta: ParameterValue,
) -> QuantumCircuit:
    """Append the mixer described by ``tokens`` with shared parameter ``beta``.

    Each token is applied to every qubit (gate-major order: all qubits get
    token 0, then all get token 1, ... — the layout drawn in Fig. 6).
    """
    check_mixer_tokens(tokens)
    n = circuit.num_qubits
    qubits = range(n)
    for token in tokens:
        if token in PARAMETERIZED_TOKENS:
            for q in qubits:
                circuit.append_named(token, [q], beta * 2.0)
        elif token in FIXED_TOKENS:
            for q in qubits:
                circuit.append_named(token, [q])
        elif token == "cz_ring":
            for q in qubits:
                circuit.cz(q, (q + 1) % n)
        else:  # cx_ring
            for q in qubits:
                circuit.cx(q, (q + 1) % n)
    return circuit


def mixer_layer(num_qubits: int, tokens: Sequence[str], beta: ParameterValue) -> QuantumCircuit:
    """The mixer as a standalone circuit."""
    check_positive(num_qubits, "num_qubits")
    return append_mixer_layer(
        QuantumCircuit(num_qubits, name=f"mixer[{mixer_label(tokens)}]"), tokens, beta
    )


def baseline_mixer(num_qubits: int, beta: ParameterValue) -> QuantumCircuit:
    """The default transverse-field mixer: ``RX(2 beta)`` on every qubit."""
    return mixer_layer(num_qubits, ("rx",), beta)


def mixer_label(tokens: Sequence[str]) -> str:
    """Display label matching the paper's figures, e.g. ``('rx', 'ry')``."""
    return "(" + ", ".join(f"'{t}'" for t in tokens) + ")"
