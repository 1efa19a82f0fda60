"""LSTM policy controller and its Predictor adapter."""

import numpy as np
import pytest

from repro.core.alphabet import GateAlphabet
from repro.core.controller import ControllerPredictor, PolicyController


@pytest.fixture
def alphabet():
    return GateAlphabet()


class TestSampling:
    def test_episode_token_range(self, alphabet):
        controller = PolicyController(alphabet, max_gates=4, seed=0)
        rng = np.random.default_rng(0)
        for _ in range(20):
            ep = controller.sample_episode(rng)
            assert len(ep.actions) <= 4
            assert all(0 <= a < alphabet.size for a in ep.actions)

    def test_end_never_at_step_zero(self, alphabet):
        controller = PolicyController(alphabet, max_gates=3, seed=1)
        rng = np.random.default_rng(1)
        for _ in range(50):
            ep = controller.sample_episode(rng)
            assert len(ep.caches) >= 1
            first_action = ep.caches[0][-1]
            assert first_action != controller.end_index

    def test_allow_end_false_fixes_length(self, alphabet):
        controller = PolicyController(alphabet, max_gates=3, allow_end=False, seed=2)
        rng = np.random.default_rng(2)
        assert all(len(controller.sample_episode(rng).actions) == 3 for _ in range(20))

    def test_log_prob_matches_step_probs(self, alphabet):
        controller = PolicyController(alphabet, max_gates=2, allow_end=False, seed=3)
        ep = controller.sample_episode(np.random.default_rng(3))
        total = sum(float(np.log(cache[3][cache[-1]])) for cache in ep.caches)
        assert ep.log_prob == pytest.approx(total)

    def test_tokens_of(self, alphabet):
        controller = PolicyController(alphabet, max_gates=2, allow_end=False, seed=4)
        ep = controller.sample_episode(np.random.default_rng(4))
        tokens = controller.tokens_of(ep)
        assert all(t in alphabet.tokens for t in tokens)

    def test_greedy_is_deterministic(self, alphabet):
        controller = PolicyController(alphabet, max_gates=3, seed=5)
        assert controller.greedy_episode() == controller.greedy_episode()


class TestPolicyGradient:
    def test_update_increases_probability_of_rewarded_episode(self, alphabet):
        controller = PolicyController(alphabet, max_gates=2, allow_end=False, seed=6,
                                      learning_rate=0.1)
        rng = np.random.default_rng(6)
        ep = controller.sample_episode(rng)

        def episode_prob():
            h, c = controller.lstm.initial_state()
            prev = controller.start_index
            logp = 0.0
            for step, cache in enumerate(ep.caches):
                probs, h, c, _ = controller.step_probs(prev, h, c, step)
                action = cache[-1]
                logp += float(np.log(probs[action]))
                prev = action
            return logp

        before = episode_prob()
        controller.zero_grad()
        # positive advantage => scale negative (descend -adv*logp)
        controller.backprop_episode(ep, scale=-1.0, entropy_weight=0.0)
        controller.apply_gradients()
        assert episode_prob() > before

    def test_negative_advantage_decreases_probability(self, alphabet):
        controller = PolicyController(alphabet, max_gates=2, allow_end=False, seed=7,
                                      learning_rate=0.1)
        rng = np.random.default_rng(7)
        ep = controller.sample_episode(rng)
        before = ep.log_prob
        controller.zero_grad()
        controller.backprop_episode(ep, scale=+1.0)
        controller.apply_gradients()
        # re-evaluate same action sequence
        h, c = controller.lstm.initial_state()
        prev = controller.start_index
        logp = 0.0
        for step, cache in enumerate(ep.caches):
            probs, h, c, _ = controller.step_probs(prev, h, c, step)
            logp += float(np.log(probs[cache[-1]]))
            prev = cache[-1]
        assert logp < before


class TestControllerPredictor:
    def test_propose_returns_nonempty_sequences(self, alphabet):
        controller = PolicyController(alphabet, max_gates=3, seed=8)
        predictor = ControllerPredictor(controller, batch_size=4, seed=8)
        proposals = predictor.propose(10)
        assert all(len(p) >= 1 for p in proposals)

    def test_update_flushes_on_full_batch(self, alphabet):
        controller = PolicyController(alphabet, max_gates=2, allow_end=False, seed=9)
        predictor = ControllerPredictor(controller, batch_size=3, seed=9)
        proposals = predictor.propose(3)
        for tokens in proposals:
            predictor.update(tokens, 0.5)
        assert predictor.updates == 1

    def test_update_unmatched_tokens_ignored(self, alphabet):
        controller = PolicyController(alphabet, max_gates=2, seed=10)
        predictor = ControllerPredictor(controller, batch_size=2, seed=10)
        predictor.update(("rx", "never-proposed"), 1.0)
        assert predictor.updates == 0

    def test_closed_loop_improves_reward(self, alphabet):
        """Full Fig. 1 loop: reward = fraction of 'p' gates; the controller
        predictor should shift its proposals toward 'p'."""
        controller = PolicyController(
            alphabet, max_gates=3, allow_end=False, seed=11, learning_rate=0.05
        )
        predictor = ControllerPredictor(
            controller, batch_size=8, entropy_weight=0.003, seed=11
        )

        def reward(tokens):
            return sum(1.0 for t in tokens if t == "p") / len(tokens)

        early = []
        late = []
        for round_idx in range(40):
            proposals = predictor.propose(8)
            rewards = [reward(t) for t in proposals]
            for tokens, r in zip(proposals, rewards):
                predictor.update(tokens, r)
            (early if round_idx < 10 else late).extend(rewards)
        assert np.mean(late[-80:]) > np.mean(early) + 0.2

    def test_learns_to_emit_target_token(self):
        """Reward = fraction of 'rx' tokens: the policy should converge to
        emitting mostly rx."""
        alphabet = GateAlphabet(("rx", "ry", "rz", "h", "p"))
        controller = PolicyController(alphabet, max_gates=3, allow_end=False, seed=0)
        predictor = ControllerPredictor(controller, batch_size=8, entropy_weight=0.003, seed=1)

        def reward(tokens):
            return sum(1.0 for t in tokens if t == "rx") / len(tokens)

        mean_rewards = []
        for _ in range(60):  # one REINFORCE update per batch of 8
            proposals = predictor.propose(8)
            rewards = [reward(t) for t in proposals]
            for tokens, r in zip(proposals, rewards):
                predictor.update(tokens, r)
            mean_rewards.append(np.mean(rewards))
        assert predictor.updates == 60
        early = np.mean(mean_rewards[:10])
        late = np.mean(mean_rewards[-10:])
        assert late > early + 0.2
        assert controller.greedy_episode() == ("rx", "rx", "rx")
