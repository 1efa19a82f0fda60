"""Tensors with named indices.

A :class:`Tensor` couples an ndarray with the tuple of
:class:`~repro.qtensor.variables.Variable` labelling its axes. All
contraction logic manipulates variables; the ndarray tags along and is only
touched by the backend's einsum calls.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.qtensor.variables import Variable

__all__ = ["Tensor"]


class Tensor:
    """An ndarray whose axes are labelled by Variables."""

    __slots__ = ("name", "data", "indices")

    def __init__(self, name: str, data: np.ndarray, indices: Sequence[Variable]) -> None:
        data = np.asarray(data)
        indices = tuple(indices)
        if data.ndim != len(indices):
            raise ValueError(
                f"tensor '{name}': data rank {data.ndim} != {len(indices)} indices"
            )
        for axis, var in enumerate(indices):
            if data.shape[axis] != var.size:
                raise ValueError(
                    f"tensor '{name}': axis {axis} has size {data.shape[axis]} "
                    f"but variable {var} has size {var.size}"
                )
        if len(set(indices)) != len(indices):
            raise ValueError(f"tensor '{name}': repeated variable in {indices}")
        self.name = name
        self.data = data
        self.indices = indices

    @property
    def rank(self) -> int:
        return len(self.indices)

    def conj(self) -> Tensor:
        return Tensor(f"{self.name}*", self.data.conj(), self.indices)

    def fix_variable(self, var: Variable, value: int) -> Tensor:
        """Slice the tensor at ``var = value`` (removes that axis).

        Backbone of sliced contraction: fixing a variable on every tensor
        that carries it splits the contraction into independent summands.
        """
        if var not in self.indices:
            return self
        axis = self.indices.index(var)
        new_data = np.take(self.data, value, axis=axis)
        new_indices = self.indices[:axis] + self.indices[axis + 1 :]
        return Tensor(self.name, new_data, new_indices)

    def scalar(self) -> complex:
        """The value of a rank-0 tensor."""
        if self.rank != 0:
            raise ValueError(f"tensor '{self.name}' has rank {self.rank}, not scalar")
        return complex(self.data)

    def __repr__(self) -> str:
        inner = ",".join(v.name for v in self.indices)
        return f"{self.name}({inner})"
