"""The benchmark's reference computations against hand-worked cases.

    python3 -m pytest bench/test_oracles.py
"""
import math

import numpy as np
import pytest

import oracles


def test_gae_two_envs_three_steps_with_timeout_bootstrap():
    # gamma = lam = 0.5. Env 1 is truncated at t = 1 with V(s_T) = 6, so that
    # step bootstraps through the limit and carries no advantage back from t = 2.
    rewards = [[1.0, 2.0, 3.0], [1.0, 1.0, 1.0]]
    values = [[0.5, 1.0, 1.5], [1.0, 2.0, 4.0]]
    dones = [[0.0, 0.0, 0.0], [0.0, 1.0, 0.0]]
    timeout_values = [[0.0, 0.0, 0.0], [0.0, 6.0, 0.0]]
    bootstrap = [2.0, 8.0]
    adv, ret = oracles.gae(rewards, values, dones, bootstrap, timeout_values, 0.5, 0.5)
    # env 0: deltas 1, 1.75, 2.5; A_2 = 2.5, A_1 = 1.75 + 0.25 * 2.5, A_0 = 1 + 0.25 * A_1
    # env 1: delta_2 = 1 + 0.5 * 8 - 4 = 1; delta_1 = 1 + 0.5 * 6 - 2 = 2 (cut);
    #        delta_0 = 1 + 0.5 * 2 - 1 = 1, A_0 = 1 + 0.25 * 2
    assert adv.tolist() == [[1.59375, 2.375, 2.5], [1.5, 2.0, 1.0]]
    assert ret.tolist() == [[2.09375, 3.375, 4.0], [2.5, 4.0, 5.0]]


WEIGHTS = {"distance": 1.0, "grasp": 1.0, "move": 0.2, "success": 2.0,
           "grasp_threshold": 0.1, "success_threshold": 0.05}


def test_reward_terms_one_frame():
    # hand points 0.03, 0.04 and 0.05 m from the grasp point: mean 0.04, so
    # f_g holds; the goal is 0.5 m away, so no success bonus.
    hand = np.array([[0.03, 0.0, 0.0], [0.0, 0.04, 0.0], [0.0, 0.0, 0.05]])
    palm = np.array([0.0, 0.0, 0.1])
    grasp = np.zeros(3)
    goal = np.array([0.3, 0.4, 0.0])
    action = np.array([0.3, 0.4, 0.2, 0.0, 0.0, 0.0, 0.01])   # a - (goal - palm) = (0, 0, 0.3)
    r_d, r_m, r_s, total, hand_distance = oracles.reward_terms(
        hand, palm, grasp, goal, action, True, -7.0, WEIGHTS)
    assert hand_distance == pytest.approx(0.04)
    assert r_d == pytest.approx(-0.54)
    assert r_m == pytest.approx(-0.06)
    assert r_s == 0.0
    assert total == pytest.approx(-0.54 + 1.0 - 0.06)     # r_a is gated out
    *_, total_open, _ = oracles.reward_terms(hand, palm, grasp, goal, action, False,
                                             -7.0, WEIGHTS)
    assert total_open == pytest.approx(-0.54 - 7.0)        # only r_d + r_a


def test_reward_success_bonus_is_strictly_inside_threshold():
    hand = np.zeros((1, 3))
    inside = oracles.reward_terms(hand, np.zeros(3), np.zeros(3), np.array([0.049, 0, 0]),
                                  np.zeros(7), True, 0.0, WEIGHTS)
    edge = oracles.reward_terms(hand, np.zeros(3), np.zeros(3), np.array([0.05, 0, 0]),
                                np.zeros(7), True, 0.0, WEIGHTS)
    assert inside[2] == 2.0 and edge[2] == 0.0


def test_mlp_forward_known_weights():
    weights = [np.array([[1.0, 0.0], [0.0, 2.0]]), np.array([[1.0], [-1.0]])]
    biases = [np.array([0.0, 0.5]), np.array([0.25])]
    x = np.array([[0.5, -0.25]])
    # hidden = tanh([0.5, -0.5 + 0.5]) = [tanh 0.5, 0]; out = tanh 0.5 + 0.25
    assert oracles.mlp_forward(weights, biases, x)[0, 0] == pytest.approx(math.tanh(0.5) + 0.25)
    mean = oracles.policy_mean(weights, biases, np.array([2.0, 1.0]), np.array([2.0]),
                               np.array([[0.25, -0.25]]))
    assert mean[0, 0] == pytest.approx(2.0 * math.tanh(math.tanh(0.5) + 0.25))


def test_gaussian_log_prob_standard_normal():
    lp = oracles.gaussian_log_prob(np.zeros((1, 2)), np.array([[1.0, 0.0]]), np.zeros(2))
    assert lp[0] == pytest.approx(-0.5 - math.log(2.0 * math.pi))
    shifted = oracles.gaussian_log_prob(np.zeros((1, 1)), np.array([[2.0]]),
                                        np.array([math.log(2.0)]))
    assert shifted[0] == pytest.approx(-0.5 - math.log(2.0) - 0.5 * math.log(2.0 * math.pi))


def test_time_block_quarter_period():
    assert oracles.time_block(0, 300).tolist() == [0.0, 1.0] * 15
    quarter = oracles.time_block(75, 300)
    assert quarter[0:4] == pytest.approx([1.0, 0.0, 0.0, -1.0], abs=1e-12)
