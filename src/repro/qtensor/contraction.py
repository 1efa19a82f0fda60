"""Bucket-elimination contraction and variable slicing.

Bucket elimination processes variables along an elimination order: every
tensor lives in the bucket of its earliest-ordered variable; eliminating a
variable multiplies its bucket together, sums the variable out, and files
the result into a later bucket. Cost is ``2^width`` in the order's
contraction width — the quantity :mod:`repro.qtensor.ordering` minimizes.

The numeric work runs on an :class:`~repro.simulators.backends.ArrayBackend`,
the device seam the compiled engine uses: input tensors enter through
``backend.asarray`` once, every bucket and the final combine are one
``backend.xp.einsum``, and the result leaves through ``backend.to_host``.
Everything else here is index bookkeeping, so a device library registered
with :func:`~repro.simulators.backends.register_array_backend` serves both
simulators.

:func:`contract_sliced` implements QTensor's step-dependent parallelism:
fixing ``s`` slice variables splits the contraction into ``2^s``
independent summands, each a smaller network — the second level of the
paper's two-level parallelization scheme (the first level, across candidate
circuits, lives in :mod:`repro.parallel`).
"""

from __future__ import annotations

import itertools
from collections.abc import Sequence

import numpy as np

from repro.qtensor.network import TensorNetwork, interaction_graph
from repro.qtensor.ordering import order_for_tensors
from repro.qtensor.tensor import Tensor
from repro.qtensor.variables import Variable
from repro.simulators.backends import ArrayBackend, NumpyArrayBackend

__all__ = [
    "bucket_elimination",
    "contract_network",
    "contract_sliced",
    "choose_slice_vars",
]

_HOST = NumpyArrayBackend()
#: einsum accepts at most 32 operands; wider products are folded in chunks
_MAX_OPERANDS = 16


def _einsum_args(operands: Sequence[Tensor], out_vars: Sequence[Variable]) -> list:
    """The integer-subscript argument list of ``einsum``: each operand's data
    and its labels, then the labels of ``out_vars``."""
    local: dict[Variable, int] = {}
    args: list = []
    for tensor in operands:
        args.extend([tensor.data, [local.setdefault(v, len(local)) for v in tensor.indices]])
    args.append([local[v] for v in out_vars])
    return args


def _contract(
    backend: ArrayBackend, operands: Sequence[Tensor], out_vars: Sequence[Variable], name: str
) -> Tensor:
    """The product of ``operands`` over exactly ``out_vars`` (every other
    index summed out), folding the first 16 operands into one tensor over
    the union of their indices while more remain."""
    while len(operands) > _MAX_OPERANDS:
        chunk, operands = operands[:_MAX_OPERANDS], operands[_MAX_OPERANDS:]
        chunk_out = sorted({v for t in chunk for v in t.indices})
        merged = backend.xp.einsum(*_einsum_args(chunk, chunk_out), optimize=True)
        operands = [Tensor(f"{name}_chunk", merged, chunk_out)] + list(operands)
    data = backend.xp.einsum(*_einsum_args(operands, out_vars), optimize=True)
    return Tensor(name, data, out_vars)


def bucket_elimination(
    tensors: Sequence[Tensor],
    order: Sequence[Variable],
    open_vars: Sequence[Variable] = (),
    backend: ArrayBackend = _HOST,
) -> Tensor:
    """Contract ``tensors``, eliminating ``order``, keeping ``open_vars``.

    Returns a host tensor over exactly ``open_vars`` (scalar when empty).
    Each eliminated bucket's result is indexed by its remaining variables
    sorted by id, so the contraction is the same in every run and process.
    Raises if a non-open variable is missing from the order — silently
    keeping it would return a wrong-shaped result.
    """
    position: dict[Variable, int] = {v: i for i, v in enumerate(order)}
    open_set = set(open_vars)
    if open_set & set(position):
        overlap = sorted(v.name for v in open_set & set(position))
        raise ValueError(f"open variables {overlap} also appear in the order")
    all_vars = {v for t in tensors for v in t.indices}
    unaccounted = all_vars - set(position) - open_set
    if unaccounted:
        names = sorted(v.name for v in unaccounted)
        raise ValueError(f"variables {names} neither ordered nor open")

    buckets: list[list[Tensor]] = [[] for _ in order]
    leftovers: list[Tensor] = []

    def file_tensor(tensor: Tensor) -> None:
        eliminable = [position[v] for v in tensor.indices if v in position]
        if eliminable:
            buckets[min(eliminable)].append(tensor)
        else:
            leftovers.append(tensor)

    for t in tensors:
        file_tensor(Tensor(t.name, backend.asarray(t.data), t.indices))

    for i, var in enumerate(order):
        bucket = buckets[i]
        if bucket:
            out_vars = sorted({v for t in bucket for v in t.indices} - {var})
            file_tensor(_contract(backend, bucket, out_vars, f"B{i}"))

    if not leftovers:
        return Tensor("final", backend.to_host(np.asarray(1.0 + 0.0j)), [])
    final = _contract(backend, leftovers, list(open_vars), "final")
    return Tensor(final.name, backend.to_host(final.data), final.indices)


def contract_network(
    network: TensorNetwork,
    *,
    backend: ArrayBackend = _HOST,
    method: str = "min_fill",
    n_restarts: int = 1,
    seed=None,
) -> np.ndarray:
    """Order + contract; returns the raw ndarray result.

    For a closed network the result is a 0-d complex array; for an open one
    the axes follow ``network.open_vars``.
    """
    order = order_for_tensors(
        network.tensors,
        exclude=network.open_vars,
        method=method,
        n_restarts=n_restarts,
        seed=seed,
    )
    result = bucket_elimination(network.tensors, order.order, network.open_vars, backend)
    return result.data


def choose_slice_vars(
    tensors: Sequence[Tensor],
    num_vars: int,
    *,
    exclude: Sequence[Variable] = (),
) -> list[Variable]:
    """Pick slice variables by highest interaction-graph degree.

    High-degree variables appear in many tensors, so fixing them shrinks the
    most intermediates — the standard slicing heuristic.
    """
    graph = interaction_graph(tensors)
    excluded = set(exclude)
    candidates = sorted(
        (v for v in graph if v not in excluded),
        key=lambda v: (-len(graph[v]), v.id),
    )
    return candidates[:num_vars]


def contract_sliced(
    network: TensorNetwork,
    slice_vars: Sequence[Variable],
    *,
    method: str = "min_fill",
    map_fn=map,
) -> complex:
    """Contract a *closed* network as a sum over slice-variable assignments.

    ``map_fn`` lets callers inject a parallel map (e.g.
    ``multiprocessing.Pool.map`` or an executor from
    :mod:`repro.parallel.executor`) — each of the ``2^s`` slices is an
    independent contraction.
    """
    if network.open_vars:
        raise ValueError("sliced contraction currently supports closed networks only")
    slice_vars = list(slice_vars)
    assignments = list(itertools.product((0, 1), repeat=len(slice_vars)))
    jobs = [(network, slice_vars, values, method) for values in assignments]
    partials = list(map_fn(_contract_slice, jobs))
    return complex(sum(partials))


def _contract_slice(job) -> complex:
    """One slice: fix variables, re-order, contract. Top-level function so
    it pickles for multiprocessing maps."""
    network, slice_vars, values, method = job
    sliced = []
    for tensor in network.tensors:
        for var, value in zip(slice_vars, values):
            tensor = tensor.fix_variable(var, value)
        sliced.append(tensor)
    order = order_for_tensors(sliced, method=method)
    result = bucket_elimination(sliced, order.order)
    return result.scalar()
