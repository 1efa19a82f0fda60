"""Search-space constraints (§6's 'arbitrary constraints')."""

from repro.core.alphabet import GateAlphabet, enumerate_search_space
from repro.core.constraints import (
    ConstraintSet,
    ForbiddenTokens,
    MaxGates,
    MaxMixerDepth,
    MinGates,
    NoAdjacentRepeats,
    PredicateConstraint,
    RequiredTokens,
    RequiresParameterizedGate,
)
from repro.core.predictor import ExhaustivePredictor, PredictorProposer, RandomPredictor


class TestIndividualConstraints:
    def test_max_gates(self):
        c = MaxGates(2)
        assert c(("rx", "ry"))
        assert not c(("rx", "ry", "rz"))

    def test_min_gates(self):
        c = MinGates(2)
        assert not c(("rx",))
        assert c(("rx", "ry"))

    def test_forbidden(self):
        c = ForbiddenTokens(("p", "rz"))
        assert c(("rx", "ry"))
        assert not c(("rx", "p"))

    def test_required(self):
        c = RequiredTokens(("rx",))
        assert c(("rx", "h"))
        assert not c(("ry", "h"))

    def test_requires_parameterized(self):
        c = RequiresParameterizedGate()
        assert c(("h", "rx"))
        assert not c(("h",))

    def test_no_adjacent_repeats(self):
        c = NoAdjacentRepeats()
        assert c(("rx", "ry", "rx"))
        assert not c(("rx", "rx"))

    def test_max_mixer_depth_counts_entanglers_double(self):
        c = MaxMixerDepth(3)
        assert c(("rx", "ry", "rz"))
        assert c(("rx", "cz_ring"))
        assert not c(("rx", "ry", "cz_ring"))

    def test_predicate_escape_hatch(self):
        c = PredicateConstraint(lambda t: t[0] == "rx", name="starts_rx")
        assert c(("rx", "h"))
        assert not c(("h", "rx"))


class TestConstraintSet:
    def test_conjunction(self):
        cs = ConstraintSet([MaxGates(2), RequiresParameterizedGate()])
        assert cs.satisfied(("rx", "h"))
        assert not cs.satisfied(("h",))
        assert not cs.satisfied(("rx", "ry", "rz"))

    def test_rejection_accounting(self):
        cs = ConstraintSet([MaxGates(1), RequiresParameterizedGate()])
        cs.satisfied(("rx", "ry"))  # rejected by max_gates
        cs.satisfied(("h",))  # rejected by requires_parameterized
        assert cs.rejections["max_gates"] == 1
        assert cs.rejections["requires_parameterized"] == 1

    def test_filter(self):
        space = enumerate_search_space(GateAlphabet(), 2, mode="combinations")
        cs = ConstraintSet([MinGates(2), RequiredTokens(("rx",))])
        admissible = cs.filter(space)
        assert all(len(t) == 2 and "rx" in t for t in admissible)
        assert len(admissible) == 4  # rx paired with each of ry, rz, h, p

    def test_violated_by(self):
        cs = ConstraintSet([MaxGates(1), ForbiddenTokens(("p",))])
        assert cs.violated_by(("rx", "p")) == ["max_gates", "forbidden_tokens"]
        assert cs.violated_by(("rx",)) == []

    def test_empty_set_admits_everything(self):
        assert ConstraintSet().satisfied(("anything",))


class TestConstrainedPredictor:
    """Constraints over a predictor's proposals: ``PredictorProposer``'s
    filter, the one place a predictor meets a ``ConstraintSet``."""

    def test_only_admissible_proposals(self):
        cs = ConstraintSet([RequiredTokens(("rx",))])
        inner = RandomPredictor(GateAlphabet(), 3, seed=0)
        proposals = PredictorProposer(inner, 20, constraints=cs).propose(1)
        assert proposals
        assert all("rx" in t for t in proposals)

    def test_exhausted_inner_stops(self):
        cs = ConstraintSet([ForbiddenTokens(("rx", "ry", "rz", "h", "p"))])
        inner = ExhaustivePredictor(GateAlphabet(), 1)
        proposer = PredictorProposer(inner, 5, constraints=cs)
        assert proposer.propose(1) == []  # everything forbidden

    def test_update_passthrough(self):
        from repro.core.predictor import EpsilonGreedyPredictor
        from repro.core.results import CandidateEvaluation

        inner = EpsilonGreedyPredictor(GateAlphabet(), 2, epsilon=0.0, seed=0)
        proposer = PredictorProposer(inner, 4, constraints=ConstraintSet())
        proposer.observe(
            [CandidateEvaluation(tokens=("ry",), p=1, energy=1.0, ratio=1.0)]
        )
        assert inner._count.sum() > 0

    def test_name_reflects_inner(self):
        proposer = PredictorProposer(
            RandomPredictor(GateAlphabet(), 2, seed=0), constraints=ConstraintSet()
        )
        assert proposer.name == "random"


class TestSearchIntegration:
    def test_search_respects_constraints(self):
        from repro.core.evaluator import EvaluationConfig
        from repro.core.search import SearchConfig, search_mixer
        from repro.graphs.generators import erdos_renyi_graph

        graphs = [erdos_renyi_graph(5, 0.6, seed=1, require_connected=True)]
        cs = ConstraintSet([RequiredTokens(("ry",)), MaxGates(2)])
        config = SearchConfig(
            p_max=1, k_max=2, mode="combinations",
            evaluation=EvaluationConfig(max_steps=8, seed=0),
            constraints=cs,
        )
        result = search_mixer(graphs, config)
        for depth in result.depth_results:
            for evaluation in depth.evaluations:
                assert "ry" in evaluation.tokens
                assert len(evaluation.tokens) <= 2
