"""Tensor and Variable primitives."""

import numpy as np
import pytest

from repro.qtensor.tensor import Tensor
from repro.qtensor.variables import Variable, VariableFactory


class TestVariable:
    def test_identity_by_id(self):
        assert Variable(1) == Variable(1)
        assert Variable(1) != Variable(2)

    def test_ordering_by_id(self):
        assert Variable(1) < Variable(2)
        assert sorted([Variable(3), Variable(1)]) == [Variable(1), Variable(3)]

    def test_hashable(self):
        assert len({Variable(1), Variable(1), Variable(2)}) == 2

    def test_factory_sequential_unique(self):
        factory = VariableFactory()
        vars_ = factory.fresh_many(5)
        assert len({v.id for v in vars_}) == 5
        assert vars_[0].id < vars_[4].id

    def test_factories_independent(self):
        """Each network builder restarts ids at 0 (reproducible orders)."""
        a, b = VariableFactory(), VariableFactory()
        assert a.fresh().id == b.fresh().id == 0


class TestTensor:
    def test_rank_shape_validation(self):
        v = Variable(0)
        with pytest.raises(ValueError, match="rank"):
            Tensor("t", np.zeros((2, 2)), [v])

    def test_size_validation(self):
        v = Variable(0)
        with pytest.raises(ValueError, match="size"):
            Tensor("t", np.zeros(3), [v])

    def test_repeated_variable_rejected(self):
        v = Variable(0)
        with pytest.raises(ValueError, match="repeated"):
            Tensor("t", np.zeros((2, 2)), [v, v])

    def test_conj(self):
        v = Variable(0)
        t = Tensor("t", np.array([1 + 1j, 2 - 1j]), [v])
        np.testing.assert_array_equal(t.conj().data, [1 - 1j, 2 + 1j])
        assert t.conj().indices == t.indices

    def test_fix_variable_slices(self):
        a, b = Variable(0), Variable(1)
        data = np.arange(4).reshape(2, 2)
        t = Tensor("t", data, [a, b])
        fixed = t.fix_variable(a, 1)
        assert fixed.indices == (b,)
        np.testing.assert_array_equal(fixed.data, data[1])

    def test_fix_absent_variable_noop(self):
        a, b = Variable(0), Variable(1)
        t = Tensor("t", np.zeros(2), [a])
        assert t.fix_variable(b, 0) is t

    def test_scalar_extraction(self):
        t = Tensor("s", np.asarray(3.0 + 1j), [])
        assert t.scalar() == 3.0 + 1j

    def test_scalar_on_ranked_tensor_raises(self):
        t = Tensor("t", np.zeros(2), [Variable(0)])
        with pytest.raises(ValueError, match="rank"):
            t.scalar()

    def test_repr_contains_vars(self):
        t = Tensor("g", np.zeros((2, 2)), [Variable(0, name="a"), Variable(1, name="b")])
        assert "g(a,b)" == repr(t)
