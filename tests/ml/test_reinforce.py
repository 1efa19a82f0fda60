"""REINFORCE machinery: the moving reward baseline."""

import pytest

from repro.ml.reinforce import MovingBaseline


class TestMovingBaseline:
    def test_first_update_adopts_reward(self):
        b = MovingBaseline()
        b.update(2.0)
        assert b.value == 2.0

    def test_advantage_before_update(self, monkeypatch):
        monkeypatch.setattr(MovingBaseline, "decay", 0.5)
        b = MovingBaseline()
        adv1 = b.update(1.0)
        assert adv1 == 1.0  # baseline starts at 0
        adv2 = b.update(2.0)
        assert adv2 == pytest.approx(1.0)  # 2.0 - 1.0

    def test_decay_mixing(self, monkeypatch):
        monkeypatch.setattr(MovingBaseline, "decay", 0.5)
        b = MovingBaseline()
        b.update(0.0)
        b.update(4.0)
        assert b.value == pytest.approx(2.0)
