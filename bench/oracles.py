"""Reference computations the benchmark checks the program against.

Each function re-derives a quantity from its definition with plain numpy and
Python loops, sharing no code with `manibench`, so a fault in the program
cannot hide in both sides of a comparison.
"""
from __future__ import annotations

import math

import numpy as np


def gae(rewards, values, dones, bootstrap, timeout_values, gamma, lam):
    """Generalized advantage estimation, one env and one step at a time.

    delta_t = r_t + gamma * (V_{t+1} * (1 - d_t) + V_T,t) - V_t, where V_{t+1}
    is the next step's value (the bootstrap value after the last step) and
    V_T,t is the value of the terminal observation at a step-limit
    truncation (0 elsewhere). A_t = delta_t + gamma * lam * (1 - d_t) * A_{t+1}.
    Returns (advantages, returns) with returns = advantages + values.
    """
    n_envs, horizon = len(rewards), len(rewards[0])
    adv = np.zeros((n_envs, horizon))
    for i in range(n_envs):
        following = 0.0
        for t in reversed(range(horizon)):
            next_value = values[i][t + 1] if t + 1 < horizon else bootstrap[i]
            live = 0.0 if dones[i][t] else 1.0
            delta = (rewards[i][t] + gamma * (next_value * live + timeout_values[i][t])
                     - values[i][t])
            following = delta + gamma * lam * live * following
            adv[i, t] = following
    return adv, adv + np.asarray(values, dtype=np.float64)


def mlp_forward(weights, biases, x):
    """tanh hidden layers, linear head; x is (batch, in)."""
    h = np.asarray(x, dtype=np.float64)
    for w, b in zip(weights[:-1], biases[:-1]):
        h = np.tanh(h @ w + b)
    return h @ weights[-1] + biases[-1]


def policy_mean(weights, biases, obs_inv_scale, half_range, obs):
    """Bounded Gaussian-policy mean: half_range * tanh(MLP(obs * 1/scale))."""
    return half_range * np.tanh(mlp_forward(weights, biases, obs * obs_inv_scale))


def gaussian_log_prob(mean, actions, log_std):
    """Diagonal-Gaussian log density of each row of actions, summed over dims."""
    std = np.exp(log_std)
    z = (actions - mean) / std
    k = mean.shape[-1]
    return -0.5 * (z * z).sum(axis=-1) - np.log(std).sum() - 0.5 * k * math.log(2.0 * math.pi)


def time_block(t, max_steps, frequencies=15):
    """Interleaved sin/cos(2 pi k t / T), k = 1..frequencies."""
    out = np.empty(2 * frequencies)
    for k in range(1, frequencies + 1):
        phase = 2.0 * math.pi * k * t / max_steps
        out[2 * k - 2] = math.sin(phase)
        out[2 * k - 1] = math.cos(phase)
    return out


def reward_terms(hand_points, palm, grasp, goal, action, f_g, r_a, w):
    """(r_d, r_m, r_s, total, hand_distance) from one frame's recorded state.

    r_d = -w_d (mean_i |hand_i - grasp| + |goal - grasp|)
    r_m = -w_m |a[0:3] - (goal - palm)|
    r_s = w_s if |goal - grasp| < success threshold else 0
    total = r_d + (1 - f_g) r_a + f_g (w_g + r_m + r_s)
    r_a needs the palm rotation at reset, which no frame records, so it is an
    input here; w maps the names of the reward weights to their values.
    """
    hand_distance = float(np.mean([math.dist(p, grasp) for p in hand_points]))
    goal_distance = math.dist(goal, grasp)
    r_d = -w["distance"] * (hand_distance + goal_distance)
    r_m = -w["move"] * math.dist(action[0:3], np.asarray(goal) - np.asarray(palm))
    r_s = w["success"] if goal_distance < w["success_threshold"] else 0.0
    gate = 1.0 if f_g else 0.0
    total = r_d + (1.0 - gate) * r_a + gate * (w["grasp"] + r_m + r_s)
    return r_d, r_m, r_s, total, hand_distance
