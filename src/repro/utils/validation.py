"""Argument validation helpers shared across the package.

These raise early with precise messages instead of letting NumPy broadcast
errors surface three stack frames deeper, which matters when candidate
circuits are being built inside worker processes where tracebacks are
harder to read.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import Any

__all__ = [
    "ConfigError",
    "check_choice",
    "check_integer",
    "check_positive",
    "check_probability",
    "check_qubit_index",
]


class ConfigError(ValueError):
    """A sweep setting, or a combination of settings, was rejected before
    any candidate trained: front-ends report it as a message (CLI exit
    text, service 400); any other ``ValueError`` from a sweep is a bug."""


def check_integer(value: Any, name: str) -> int:
    """Return ``value`` as ``int`` or raise ``TypeError``.

    Accepts NumPy integer scalars (common when indices come out of arrays)
    but rejects floats, including integral floats, to catch unit mistakes.
    """
    if isinstance(value, bool):
        raise TypeError(f"{name} must be an integer, got bool")
    try:
        as_int = int(value)
    except (TypeError, ValueError):
        raise TypeError(f"{name} must be an integer, got {type(value).__name__}") from None
    if as_int != value:
        raise TypeError(f"{name} must be an integer, got {value!r}")
    if isinstance(value, float):
        raise TypeError(f"{name} must be an integer, got float {value!r}")
    return as_int


def check_choice(value: Any, name: str, options: Sequence[str]) -> None:
    """Validate that ``value`` is one of ``options`` (a registry's names)."""
    if value not in options:
        raise ValueError(f"unknown {name} {value!r}; options: {', '.join(options)}")


def check_positive(value: Any, name: str, *, strict: bool = True) -> int:
    """Validate that ``value`` is a (strictly) positive integer."""
    as_int = check_integer(value, name)
    if strict and as_int <= 0:
        raise ValueError(f"{name} must be > 0, got {as_int}")
    if not strict and as_int < 0:
        raise ValueError(f"{name} must be >= 0, got {as_int}")
    return as_int


def check_probability(value: Any, name: str) -> float:
    """Validate that ``value`` lies in the closed interval [0, 1]."""
    try:
        as_float = float(value)
    except (TypeError, ValueError):
        raise TypeError(f"{name} must be a float in [0, 1], got {type(value).__name__}") from None
    if not 0.0 <= as_float <= 1.0:
        raise ValueError(f"{name} must be in [0, 1], got {as_float}")
    return as_float


def check_qubit_index(qubit: Any, num_qubits: int, name: str = "qubit") -> int:
    """Validate a qubit index against the register size."""
    as_int = check_integer(qubit, name)
    if not 0 <= as_int < num_qubits:
        raise ValueError(f"{name} {as_int} out of range for {num_qubits} qubit register")
    return as_int
