"""Integration tests for the extension features working together:
constraints + controller, warm starts inside the search protocol."""

from repro.core.alphabet import GateAlphabet
from repro.core.constraints import (
    ConstraintSet,
    MaxGates,
    NoAdjacentRepeats,
    RequiresParameterizedGate,
)
from repro.core.controller import ControllerPredictor, PolicyController
from repro.core.evaluator import EvaluationConfig, Evaluator
from repro.core.predictor import PredictorProposer
from repro.graphs.datasets import paper_er_dataset


class TestConstrainedControllerLoop:
    def test_controller_behind_constraints(self):
        """The RL controller behind the proposer's constraint filter only
        surfaces admissible candidates while still learning from rewards."""
        alphabet = GateAlphabet()
        controller = PolicyController(alphabet, max_gates=3, seed=2)
        constraints = ConstraintSet(
            [RequiresParameterizedGate(), NoAdjacentRepeats(), MaxGates(3)]
        )
        proposer = PredictorProposer(
            ControllerPredictor(controller, batch_size=4, seed=2), 4, constraints
        )
        graphs = paper_er_dataset(1)
        evaluator = Evaluator(
            graphs, EvaluationConfig(max_steps=10, seed=0)
        )
        for _ in range(3):
            proposals = proposer.propose(1)
            assert proposals, "constrained controller must keep proposing"
            for tokens in proposals:
                assert constraints.satisfied(tokens)
            proposer.observe([evaluator.evaluate(tokens, 1) for tokens in proposals])


class TestWarmStartInsideEvaluation:
    def test_ramp_strategy_improves_deep_training(self):
        """At p=3 with a modest budget the ramp start should not lose to
        random starts (the ablation's claim as a regression test)."""
        graphs = paper_er_dataset(2)
        uniform = Evaluator(
            graphs, EvaluationConfig(max_steps=25, restarts=1, seed=0)
        ).evaluate(("rx",), 3)
        ramp = Evaluator(
            graphs,
            EvaluationConfig(max_steps=25, restarts=1, seed=0, init_strategy="ramp"),
        ).evaluate(("rx",), 3)
        assert ramp.energy >= uniform.energy - 0.15
