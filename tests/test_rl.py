import re
import resource
import struct

import numpy as np
import pytest

from manibench import rl
from manibench import world as w
from manibench.control import ScriptedController
from manibench.env import Env, EpisodeConfig, run_episode
from manibench.reward import RewardWeights
from manibench.rl import ppo
from manibench.rl.net import _ADAM_BLOCK, HIDDEN_WIDTHS, Workspace
from manibench.robot import gripper_bot, make_robot


def small_net(rng, widths=(5, 8, 6, 3)):
    return rl.init_mlp(widths, rng, head_gain=1.0)


def small_policy(rng, low, high, obs_dim=4, hidden=(8,)):
    """Unit input scaling and build_nets' initial log-std."""
    net = rl.init_mlp((obs_dim, *hidden, len(low)), rng, head_gain=0.01)
    return rl.GaussianPolicy(net, np.log(0.3 * (0.5 * (high - low))), low, high,
                             np.ones(obs_dim))


# ---------------------------------------------------------------------------
# net_forward / backward
# ---------------------------------------------------------------------------

def test_zero_net_zero_output():
    net = small_net(np.random.default_rng(0))
    for wgt in net.weights:
        wgt[:] = 0.0
    np.testing.assert_array_equal(net.forward(np.ones(5)), np.zeros(3))


def test_single_layer_is_affine():
    net = small_net(np.random.default_rng(1), widths=(4, 2))
    x = np.array([1.0, -2.0, 0.5, 3.0])
    np.testing.assert_allclose(net.forward(x), x @ net.weights[0] + net.biases[0],
                               atol=1e-15)


def test_forward_dim_mismatch():
    net = small_net(np.random.default_rng(2))
    with pytest.raises(ValueError, match="input width"):
        net.forward(np.zeros(7))


def test_gradients_match_finite_differences():
    # loss = 0.5*sum(y^2); dL/dy = y
    rng = np.random.default_rng(3)
    for trial in range(5):
        net = small_net(rng)
        x = rng.normal(size=(4, 5))

        def loss():
            y = net.forward(x)
            return 0.5 * float((y * y).sum())

        y, cache = net.forward_cached(x)
        grads, _ = net.backward(cache, y)
        params = net.parameters()
        h = 1e-6
        for p, g in zip(params, grads):
            flat = p.ravel()
            idx = rng.integers(0, flat.size, size=min(10, flat.size))
            for i in idx:
                orig = flat[i]
                flat[i] = orig + h
                lp = loss()
                flat[i] = orig - h
                lm = loss()
                flat[i] = orig
                fd = (lp - lm) / (2 * h)
                rel = abs(g.ravel()[i] - fd) / max(abs(fd), 1e-8)
                assert rel < 1e-4, f"trial {trial}: grad {g.ravel()[i]} vs fd {fd}"


def test_backward_input_gradient():
    rng = np.random.default_rng(4)
    net = small_net(rng)
    x = rng.normal(size=(1, 5))
    y, cache = net.forward_cached(x)
    _, dx = net.backward(cache, y)
    h = 1e-6
    for i in range(5):
        xp, xm = x.copy(), x.copy()
        xp[0, i] += h
        xm[0, i] -= h
        lp = 0.5 * (net.forward(xp) ** 2).sum()
        lm = 0.5 * (net.forward(xm) ** 2).sum()
        fd = (lp - lm) / (2 * h)
        assert abs(dx[0, i] - fd) / max(abs(fd), 1e-8) < 1e-4


def _backward_reference(net, activations, dy):
    """Mlp.backward as an out-of-place loop that leaves the cache alone."""
    grads = [None] * (2 * net.n_layers)
    dh = dy
    for i in range(net.n_layers - 1, -1, -1):
        grads[2 * i] = activations[i].T @ dh
        grads[2 * i + 1] = dh.sum(axis=0)
        dh = dh @ net.weights[i].T
        if i > 0:
            dh = dh * (1.0 - activations[i] * activations[i])
    return grads, dh


@pytest.mark.parametrize("widths", [(5, 3), (5, 8, 6, 3), (146, 64, 64, 32, 32, 7)])
def test_backward_is_bitwise_the_reference_and_consumes_its_cache(widths):
    rng = np.random.default_rng(11)
    net = rl.init_mlp(widths, rng, head_gain=1.0)
    x = rng.normal(size=(33, widths[0]))
    y, cache = net.forward_cached(x)
    dy = rng.normal(size=y.shape)
    want_grads, want_dx = _backward_reference(net, list(cache), dy)
    grads, dx = net.backward(cache, dy)
    assert len(grads) == len(want_grads)
    for got, want in zip(grads + [dx], want_grads + [want_dx]):
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
    assert cache == [None] * len(cache)


@pytest.mark.parametrize("widths", [(5, 3), (5, 8, 6, 3), (146, 64, 64, 32, 32, 7)])
def test_backward_with_a_shared_workspace_is_bitwise_the_reference(widths):
    rng = np.random.default_rng(12)
    nets = [rl.init_mlp(widths, rng, head_gain=1.0),
            rl.init_mlp(widths[:-1] + (1,), rng, head_gain=1.0)]
    workspace = Workspace(nets, 33)
    x = rng.normal(size=(33, widths[0]))
    x_before = x.copy()
    for _ in range(2):  # the second round runs in memory the first one used
        for net in nets:
            y, cache = net.forward_cached(x, workspace=workspace)
            assert y.tobytes() == net.forward(x).tobytes()
            dy = rng.normal(size=y.shape)
            want_grads, want_dx = _backward_reference(net, list(cache), dy)
            grads, dx = net.backward(cache, dy, workspace=workspace)
            for got, want in zip(grads + [dx], want_grads + [want_dx]):
                assert got.shape == want.shape and got.tobytes() == want.tobytes()
                assert any(np.shares_memory(got, r) for r in workspace.regions)
    assert x.tobytes() == x_before.tobytes()  # the input is read, never written


def test_calls_without_a_workspace_return_arrays_that_do_not_alias():
    rng = np.random.default_rng(13)
    net = small_net(rng)
    x = rng.normal(size=(4, 5))
    runs = []
    for _ in range(2):
        y, cache = net.forward_cached(x)
        grads, dx = net.backward(cache, rng.normal(size=y.shape))
        runs.append([y] + grads + [dx])
    first, second = runs
    for a in first:
        assert not any(np.shares_memory(a, b) for b in second)
    for i, a in enumerate(first):
        assert not any(np.shares_memory(a, b) for b in first[i + 1:])


def _adam_reference(p, m, v, grads, lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8):
    """Whole-array Adam, one step per gradient, in place."""
    for t, g in enumerate(grads, start=1):
        b1t, b2t = 1.0 - beta1 ** t, 1.0 - beta2 ** t
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * (g * g)
        p -= lr * (m / b1t) / (np.sqrt(v / b2t) + eps)


@pytest.mark.parametrize("shape", [
    (1,), (_ADAM_BLOCK - 1,), (_ADAM_BLOCK,), (_ADAM_BLOCK + 1,),
    (3 * _ADAM_BLOCK + 5,), (1024, 1024)], ids=str)
def test_adam_step_is_bitwise_the_whole_array_formula(shape):
    rng = np.random.default_rng(12)
    p = rng.normal(size=shape)
    grads = [rng.normal(size=shape) for _ in range(3)]
    ref_p, ref_m, ref_v = p.copy(), np.zeros(shape), np.zeros(shape)
    _adam_reference(ref_p, ref_m, ref_v, grads)
    opt = rl.Adam([p], lr=1e-3)
    for g in grads:
        opt.step([g])
    for got, want in ((p, ref_p), (opt.m[0], ref_m), (opt.v[0], ref_v)):
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_adam_rejects_a_parameter_it_cannot_step_in_place():
    with pytest.raises(ValueError, match="C-contiguous"):
        rl.Adam([np.zeros((4, 4))[:, ::2]], lr=1e-3)


def test_orthogonal_init_is_orthogonal():
    rng = np.random.default_rng(5)
    q = rl.orthogonal(rng, (64, 32), gain=1.0)
    np.testing.assert_allclose(q.T @ q, np.eye(32), atol=1e-10)


def test_adam_reduces_quadratic():
    rng = np.random.default_rng(6)
    p = rng.normal(size=4)
    opt = rl.Adam([p], lr=0.1)
    for _ in range(200):
        opt.step([2.0 * p])
    assert np.abs(p).max() < 1e-3


def test_clip_gradients_scales_to_cap():
    g = [np.array([3.0, 4.0])]
    norm = rl.clip_gradients(g, 1.0)
    assert norm == pytest.approx(5.0)
    assert np.linalg.norm(g[0]) == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# compute_gae
# ---------------------------------------------------------------------------

def test_gae_gamma_zero_is_one_step():
    rewards = np.array([[1.0, 2.0, 3.0]])
    values = np.array([[0.5, 0.5, 0.5]])
    dones = np.zeros((1, 3))
    adv, ret = rl.compute_gae(rewards, values, dones, np.array([0.5]), 0.0, 0.95)
    np.testing.assert_allclose(adv[0], rewards[0] - values[0])
    np.testing.assert_allclose(ret, adv + values)


def test_gae_lambda_zero_is_td_residual():
    rng = np.random.default_rng(7)
    rewards = rng.normal(size=(2, 5))
    values = rng.normal(size=(2, 5))
    dones = np.zeros((2, 5))
    boot = rng.normal(size=2)
    adv, _ = rl.compute_gae(rewards, values, dones, boot, 0.9, 0.0)
    next_values = np.concatenate([values[:, 1:], boot[:, None]], axis=1)
    np.testing.assert_allclose(adv, rewards + 0.9 * next_values - values, atol=1e-12)


def test_gae_undiscounted_suffix_sums():
    rewards = np.array([[1.0, 2.0, 3.0, 4.0]])
    values = np.zeros((1, 4))
    dones = np.zeros((1, 4))
    adv, _ = rl.compute_gae(rewards, values, dones, np.zeros(1), 1.0, 1.0)
    np.testing.assert_array_equal(adv[0], [10.0, 9.0, 7.0, 4.0])


def test_gae_resets_at_done():
    rewards = np.array([[1.0, 1.0, 1.0]])
    values = np.zeros((1, 3))
    dones = np.array([[0.0, 1.0, 0.0]])
    adv, _ = rl.compute_gae(rewards, values, dones, np.array([5.0]), 1.0, 1.0)
    np.testing.assert_array_equal(adv[0], [2.0, 1.0, 6.0])


def test_gae_shape_mismatch():
    with pytest.raises(ValueError, match="shape mismatch"):
        rl.compute_gae(np.zeros((2, 3)), np.zeros((2, 4)), np.zeros((2, 3)),
                       np.zeros(2), 0.99, 0.95)


def test_gae_timeout_bootstraps_through_step_limit():
    # one env, done at t=1 via timeout with V(terminal)=10: the pre-timeout
    # delta must include gamma * 10 instead of treating the end as absorbing
    rewards = np.array([[1.0, 1.0, 1.0]])
    values = np.zeros((1, 3))
    dones = np.array([[0.0, 1.0, 0.0]])
    timeout_values = np.array([[0.0, 10.0, 0.0]])
    adv, _ = rl.compute_gae(rewards, values, dones, np.zeros(1), 1.0, 1.0,
                            timeout_values=timeout_values)
    np.testing.assert_array_equal(adv[0], [12.0, 11.0, 1.0])


# ---------------------------------------------------------------------------
# clipped surrogate scalar case
# ---------------------------------------------------------------------------

def test_clip_objective_scalar_case():
    # rho = 1.5, A = 1, clip 0.2 -> objective uses clipped 1.2
    rho, adv, eps = 1.5, 1.0, 0.2
    clipped = np.clip(rho, 1 - eps, 1 + eps)
    assert min(rho * adv, clipped * adv) == pytest.approx(1.2)


def test_policy_log_prob_matches_gaussian():
    rng = np.random.default_rng(8)
    low = -np.ones(3)
    high = np.ones(3)
    policy = small_policy(rng, low, high)
    obs = rng.normal(size=(5, 4))
    mean = policy.mean(obs)
    actions = mean + 0.1 * rng.normal(size=mean.shape)
    lp = policy.log_prob(mean, actions)
    std = policy.std()
    expected = (-0.5 * (((actions - mean) / std) ** 2).sum(axis=1)
                - np.log(std).sum() - 1.5 * np.log(2 * np.pi))
    np.testing.assert_allclose(lp, expected, atol=1e-12)


def _policy_grad_reference(policy, obs_scaled, actions, dlp, entropy_coef):
    """The policy log-probs and gradients as `ppo_update` wrote them inline
    before `GaussianPolicy.log_prob_cached` and `GaussianPolicy.backward`."""
    raw_mean, cache = policy.net.forward_cached(obs_scaled)
    squashed = np.tanh(raw_mean)
    mean = policy.mean_scale * squashed
    std = np.exp(np.clip(policy.log_std, -20.0, 2.0))
    z = (actions - mean) / std
    log_probs = -0.5 * ((z * z).sum(axis=-1) + 2.0 * np.log(std).sum()
                        + policy.act_dim * np.log(2.0 * np.pi))
    dmean = dlp[:, None] * (z / std)
    dlog_std = (dlp[:, None] * (z * z - 1.0)).sum(axis=0)
    dlog_std -= entropy_coef * 1.0
    draw = policy.mean_scale * (1.0 - squashed * squashed) * dmean
    grads, _ = policy.net.backward(cache, draw)
    grads.append(dlog_std)
    return log_probs, grads


def _policy_batch(policy, rng, batch):
    obs = rng.normal(size=(batch, policy.obs_dim))
    mean = policy.mean(obs)
    actions = mean + policy.std() * rng.standard_normal(mean.shape)
    return obs, actions, rng.normal(size=batch)


@pytest.mark.parametrize("entropy_coef", [0.0, 0.01])
def test_policy_backward_matches_finite_differences(entropy_coef):
    # L = sum(dlp * log_prob) - c * entropy, through the tanh mean and log_std
    rng = np.random.default_rng(21)
    low, high = np.array([-0.02, -0.05, 0.0]), np.array([0.02, 0.05, 0.04])
    net = rl.init_mlp((4, 8, 6, 3), rng, head_gain=1.0)   # tanh well off its linear range
    policy = rl.GaussianPolicy(net, np.log(np.array([0.3, 0.2, 0.5]) * 0.5 * (high - low)),
                               low, high, np.ones(4))
    obs, actions, dlp = _policy_batch(policy, rng, 6)

    def loss():
        lp = policy.log_prob(policy.mean(obs), actions)
        return float((dlp * lp).sum()) - entropy_coef * policy.entropy()

    log_probs, cache = policy.log_prob_cached(policy.scale_obs(obs), actions)
    assert log_probs.tobytes() == policy.log_prob(policy.mean(obs), actions).tobytes()
    grads = policy.backward(cache, dlp, entropy_coef)
    params = policy.parameters()
    assert [g.shape for g in grads] == [p.shape for p in params]
    h = 1e-6
    for k, (p, g) in enumerate(zip(params, grads)):
        flat = p.ravel()
        idx = range(flat.size) if p is policy.log_std else rng.integers(0, flat.size, size=5)
        for i in idx:
            orig = flat[i]
            flat[i] = orig + h
            lp = loss()
            flat[i] = orig - h
            lm = loss()
            flat[i] = orig
            fd = (lp - lm) / (2 * h)
            assert abs(g.ravel()[i] - fd) <= 1e-5 * max(abs(fd), 1.0), \
                f"parameter {k} entry {i}: grad {g.ravel()[i]} vs fd {fd}"


@pytest.mark.parametrize("entropy_coef", [0.0, 0.01])
def test_policy_backward_is_bitwise_the_inline_reference(entropy_coef):
    policy, _ = rl.build_nets(gripper_bot(), rl.PPOConfig(seed=0))
    obs, actions, dlp = _policy_batch(policy, np.random.default_rng(22), 64)
    obs_scaled = policy.scale_obs(obs)
    want_lp, want_grads = _policy_grad_reference(policy, obs_scaled, actions, dlp,
                                                 entropy_coef)
    log_probs, cache = policy.log_prob_cached(obs_scaled, actions)
    grads = policy.backward(cache, dlp, entropy_coef)
    assert log_probs.tobytes() == want_lp.tobytes()
    assert len(grads) == len(want_grads) == len(policy.parameters())
    for got, want in zip(grads, want_grads):
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_log_std_initialized_to_fraction_of_limit():
    spec = gripper_bot()
    policy, _ = rl.build_nets(spec, rl.PPOConfig(seed=0))
    low, high = rl.action_bounds(spec)
    np.testing.assert_allclose(np.exp(policy.log_std), 0.3 * 0.5 * (high - low),
                               rtol=1e-12)


def test_deterministic_action_stays_in_action_box():
    rng = np.random.default_rng(9)
    policy = small_policy(rng, -0.01 * np.ones(2), 0.01 * np.ones(2))
    policy.net.biases[-1][:] = 10.0  # saturate the bounded mean head
    obs = rng.normal(size=4)
    act = policy.deterministic_action(obs)
    assert np.all(act <= 0.01) and np.all(act >= -0.01)
    np.testing.assert_allclose(act, [0.01, 0.01], atol=1e-6)


def test_sampled_actions_clamped_to_limits():
    rng = np.random.default_rng(19)
    policy = small_policy(rng, -0.01 * np.ones(2), 0.01 * np.ones(2))
    mean = np.zeros((64, 2))
    noise = 100.0 * rng.standard_normal((64, 2))
    acts = policy.sample(mean, noise)
    assert np.all(acts >= -0.01) and np.all(acts <= 0.01)


# ---------------------------------------------------------------------------
# ppo_update behaviour
# ---------------------------------------------------------------------------

def tiny_setup(seed=0, n_envs=2, horizon=4):
    task = w.make_task("laptop", "open")
    spec = gripper_bot()
    cfg = rl.PPOConfig(num_envs=n_envs, rollout_horizon=horizon, seed=seed)
    episode_config = EpisodeConfig(seed=seed, max_steps=20)
    policy = small_policy(np.random.default_rng(seed), *rl.action_bounds(spec),
                          obs_dim=146, hidden=(16, 16))
    value_net = rl.init_mlp((146, 16, 16, 1), np.random.default_rng(seed + 1), head_gain=0.01)
    slots = rl.make_slots(task, spec, episode_config, n_envs)
    return cfg, policy, value_net, slots


def test_collect_rollout_shapes():
    cfg, policy, value_net, slots = tiny_setup()
    batch = rl.collect_rollouts(slots, policy, value_net, 1, RewardWeights())
    assert batch.observations.shape == (2, 1, 146)
    assert batch.actions.shape == (2, 1, 7)
    assert batch.log_probs.shape == (2, 1)


def test_collect_rollouts_worker_count_invariant():
    # build fresh, identical setups for each worker count
    cfg, policy, value_net, slots = tiny_setup()
    b1 = rl.collect_rollouts(slots, policy, value_net, 6, RewardWeights(), workers=1)
    cfg, policy, value_net, slots = tiny_setup()
    b8 = rl.collect_rollouts(slots, policy, value_net, 6, RewardWeights(), workers=8)
    np.testing.assert_array_equal(b1.observations, b8.observations)
    np.testing.assert_array_equal(b1.actions, b8.actions)
    np.testing.assert_array_equal(b1.rewards, b8.rewards)
    np.testing.assert_array_equal(b1.dones, b8.dones)


def test_zero_advantage_keeps_policy_fixed():
    cfg, policy, value_net, slots = tiny_setup()
    batch = rl.collect_rollouts(slots, policy, value_net, 4, RewardWeights())
    batch.advantages = np.zeros_like(batch.rewards)
    batch.returns = batch.values.copy()
    w_before = [p.copy() for p in policy.parameters()]
    rl.ppo_update(policy, value_net, rl.Adam(policy.parameters(), 1e-3),
                  rl.Adam(value_net.parameters(), 1e-3), batch, cfg,
                  np.random.default_rng(0))
    for before, after in zip(w_before, policy.parameters()):
        np.testing.assert_array_equal(before, after)


def test_update_reduces_value_error():
    cfg, policy, value_net, slots = tiny_setup()
    batch = rl.collect_rollouts(slots, policy, value_net, 8, RewardWeights())
    batch.advantages, batch.returns = rl.compute_gae(
        batch.rewards, batch.values, batch.dones, batch.bootstrap, 0.99, 0.95)
    obs = batch.observations.reshape(-1, 146)
    ret = batch.returns.reshape(-1)
    err_before = float(((value_net.forward(obs)[:, 0] - ret) ** 2).mean())
    popt = rl.Adam(policy.parameters(), 1e-3)
    vopt = rl.Adam(value_net.parameters(), 1e-3)
    for _ in range(10):
        rl.ppo_update(policy, value_net, popt, vopt, batch, cfg,
                      np.random.default_rng(1))
    err_after = float(((value_net.forward(obs)[:, 0] - ret) ** 2).mean())
    assert err_after < err_before


def test_update_stats_average_over_policy_steps_taken():
    _, policy, value_net, slots = tiny_setup(n_envs=4)
    cfg = rl.PPOConfig(num_envs=4, rollout_horizon=8, seed=0, target_kl=1e-12)
    batch = rl.collect_rollouts(slots, policy, value_net, 8, RewardWeights())
    batch.advantages, batch.returns = rl.compute_gae(
        batch.rewards, batch.values, batch.dones, batch.bootstrap, 0.99, 0.95)
    # move the old log-probs off the current policy so the first step's KL
    # is well above target_kl: the guard stops after one policy step
    batch.log_probs = batch.log_probs - np.random.default_rng(5).uniform(
        0.1, 0.5, batch.log_probs.shape)

    total = batch.log_probs.size
    idx = np.random.default_rng(2).permutation(total)[:total // cfg.minibatches]
    obs = batch.observations.reshape(-1, 146)[idx]
    actions = batch.actions.reshape(-1, 7)[idx]
    ratio = np.exp(policy.log_prob(policy.mean(obs), actions)
                   - batch.log_probs.reshape(-1)[idx])
    first_kl = float(((ratio - 1.0) - np.log(ratio)).mean())
    first_clip = float((np.abs(ratio - 1.0) > cfg.clip_ratio).mean())

    stats = rl.ppo_update(policy, value_net, rl.Adam(policy.parameters(), 1e-3),
                          rl.Adam(value_net.parameters(), 1e-3), batch, cfg,
                          np.random.default_rng(2))
    assert stats.minibatch_steps == 1 < cfg.epochs_per_iter * cfg.minibatches
    assert first_kl > 0.01
    assert stats.approx_kl == pytest.approx(first_kl, rel=1e-9)
    assert stats.clip_fraction == pytest.approx(first_clip, abs=1e-12)
    assert stats.grad_norm_policy > 0.0 and stats.grad_norm_value > 0.0


def _synthetic_update(cfg):
    """Gripper-bot `build_nets`, their optimizers and a synthetic rollout
    batch of `cfg`'s shape, for `ppo_update`."""
    spec = gripper_bot()
    policy, value_net = rl.build_nets(spec, cfg)
    rng = np.random.default_rng(13)
    shape = (cfg.num_envs, cfg.rollout_horizon)
    obs = rng.normal(size=shape + (policy.obs_dim,))
    means = policy.mean(obs.reshape(-1, policy.obs_dim))
    actions = policy.sample(means, rng.standard_normal(means.shape))
    batch = rl.RolloutBatch(
        observations=obs, actions=actions.reshape(shape + (policy.act_dim,)),
        log_probs=policy.log_prob(means, actions).reshape(shape),
        values=np.zeros(shape), rewards=np.zeros(shape), dones=np.zeros(shape),
        bootstrap=np.zeros(cfg.num_envs), advantages=rng.normal(size=shape),
        returns=rng.normal(size=shape))
    policy_opt = rl.Adam(policy.parameters(), cfg.learning_rate)
    value_opt = rl.Adam(value_net.parameters(), cfg.learning_rate)
    return policy, value_net, policy_opt, value_opt, batch


def _workspace_bytes(policy, value_net, batch_size):
    """One net's gradients, one forward's layer outputs and one hidden-width
    dh: the update's workspace, summed here from the nets' shapes."""
    grad_bytes = max(sum(p.nbytes for p in policy.net.parameters()),
                     sum(p.nbytes for p in value_net.parameters()))
    output_bytes = 8 * batch_size * sum(policy.net.widths[1:])
    dh_bytes = 8 * batch_size * max(HIDDEN_WIDTHS)
    return grad_bytes + output_bytes + dh_bytes


def test_update_holds_one_nets_gradients_and_activations_at_a_time(traced_peak):
    cfg = rl.PPOConfig(epochs_per_iter=1, seed=0)   # 64 envs x 32 steps, 4 minibatches
    policy, value_net, policy_opt, value_opt, batch = _synthetic_update(cfg)

    stats, peak = traced_peak(rl.ppo_update, policy, value_net, policy_opt, value_opt,
                              batch, cfg, np.random.default_rng(14))
    assert stats.minibatch_steps >= 1
    # the workspace, plus the one array every step gathers and scales its
    # minibatch observations into
    batch_size = batch.log_probs.size // cfg.minibatches
    workspace_bytes = _workspace_bytes(policy, value_net, batch_size)
    workspace = Workspace((policy.net, value_net), batch_size)
    assert sum(r.nbytes for r in workspace.regions) == workspace_bytes
    input_bytes = 8 * batch_size * policy.obs_dim
    assert peak <= workspace_bytes + input_bytes + 1e6


def test_update_reuses_its_workspace_without_faulting_it_in_again(minor_faults):
    cfg = rl.PPOConfig(epochs_per_iter=1, seed=0)
    policy, value_net, policy_opt, value_opt, batch = _synthetic_update(cfg)
    update_rng = np.random.default_rng(14)
    for _ in range(2):
        stats, faults = minor_faults(rl.ppo_update, policy, value_net, policy_opt,
                                     value_opt, batch, cfg, update_rng)
    assert stats.minibatch_steps >= 1
    # freeing and re-faulting each step's arrays costs tens of thousands
    batch_size = batch.log_probs.size // cfg.minibatches
    pages = _workspace_bytes(policy, value_net, batch_size) / resource.getpagesize()
    assert faults < 2 * pages


def test_advantage_normalization_idempotent_under_rescale():
    adv = np.random.default_rng(10).normal(size=256)
    n1 = (adv - adv.mean()) / (adv.std() + 1e-8)
    scaled = 7.5 * adv
    n2 = (scaled - scaled.mean()) / (scaled.std() + 1e-8)
    np.testing.assert_allclose(n1, n2, atol=1e-9)


# ---------------------------------------------------------------------------
# train / evaluate plumbing
# ---------------------------------------------------------------------------

def test_train_zero_iterations_returns_initial_nets():
    task = w.make_task("laptop", "open")
    spec = gripper_bot()
    cfg = rl.PPOConfig(num_envs=2, iterations=0, seed=3)
    result = rl.train(task, spec, cfg, EpisodeConfig(seed=3, max_steps=10))
    ref_policy, ref_value = rl.build_nets(spec, cfg)
    for a, b in zip(result.policy.parameters(), ref_policy.parameters()):
        np.testing.assert_array_equal(a, b)
    assert result.curve == []


def test_train_curve_length_and_determinism():
    task = w.make_task("laptop", "open")
    spec = gripper_bot()
    cfg = rl.PPOConfig(num_envs=2, iterations=2, rollout_horizon=4, seed=5)
    econf = EpisodeConfig(seed=5, max_steps=10)
    r1 = rl.train(task, spec, cfg, econf)
    timings = []
    r2 = rl.train(task, spec, cfg, econf, progress=lambda point, stats, rollout_s, update_s:
                  timings.append((rollout_s, update_s)))
    assert len(r1.curve) == 2
    assert r1.curve == r2.curve  # the timings reach progress only
    assert len(timings) == 2
    assert all(isinstance(t, float) and t > 0.0 for pair in timings for t in pair)
    for a, b in zip(r1.policy.parameters(), r2.policy.parameters()):
        np.testing.assert_array_equal(a, b)


def test_evaluate_no_episodes_errors():
    task = w.make_task("laptop", "open")
    spec = gripper_bot()
    policy, _ = rl.build_nets(spec, rl.PPOConfig(seed=0))
    with pytest.raises(ValueError, match="no episodes"):
        rl.evaluate(policy, task, spec, EpisodeConfig(seed=0), 0)


def test_evaluate_deterministic_and_near_zero_for_random_policy():
    task = w.make_task("laptop", "open")
    spec = gripper_bot()
    policy, _ = rl.build_nets(spec, rl.PPOConfig(seed=0))
    econf = EpisodeConfig(seed=123, max_steps=40)
    r1 = rl.evaluate(policy, task, spec, econf, 5)
    r2 = rl.evaluate(policy, task, spec, econf, 5)
    assert [rec.success for rec in r1.records] == [rec.success for rec in r2.records]
    assert r1.success_rate <= 0.05


def test_evaluate_dim_mismatch():
    from manibench.robot import hand_bot
    task = w.make_task("laptop", "open")
    policy, _ = rl.build_nets(gripper_bot(), rl.PPOConfig(seed=0))
    with pytest.raises(ValueError, match="obs dim"):
        rl.evaluate(policy, task, hand_bot(), EpisodeConfig(seed=0), 1)


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("robot", ["gripper-bot", "hand-bot"])
def test_checkpoint_round_trip(tmp_path, robot):
    spec = make_robot(robot)
    policy, value_net = rl.build_nets(spec, rl.PPOConfig(seed=7))
    path = tmp_path / "ck.mmrl"
    rl.save_checkpoint(path, policy, value_net, spec.name, spec.dof_effector)
    loaded_policy, loaded_value, meta = rl.load_checkpoint(path)
    assert meta["robot"] == robot
    assert meta["dof_effector"] == spec.dof_effector
    for saved, loaded in ((policy.net, loaded_policy.net), (value_net, loaded_value)):
        assert loaded.widths == saved.widths
        for a, b in zip(saved.weights + saved.biases, loaded.weights + loaded.biases):
            np.testing.assert_array_equal(a, b)
    for name in ("log_std", "low", "high", "mean_scale", "obs_inv_scale"):
        np.testing.assert_array_equal(getattr(loaded_policy, name), getattr(policy, name))


def _mmrl_bytes(policy, value_net, robot_name, dof_effector):
    """The checkpoint layout written out from the checkpoint module docstring."""
    name = robot_name.encode("utf-8")
    out = [b"MMRL", struct.pack("<I", 1), struct.pack("<I", len(name)), name,
           struct.pack("<I", dof_effector)]
    for widths in (policy.net.widths, value_net.widths):
        out.append(struct.pack("<I", len(widths)))
        out += [struct.pack("<I", width) for width in widths]
    arrays = []
    for w_, b in zip(policy.net.weights, policy.net.biases):
        arrays += [w_, b]
    arrays += [policy.log_std, policy.low, policy.high]
    for w_, b in zip(value_net.weights, value_net.biases):
        arrays += [w_, b]
    out += [np.asarray(a, dtype="<f8").tobytes(order="C") for a in arrays]
    return b"".join(out)


@pytest.mark.parametrize("robot", ["gripper-bot", "hand-bot"])
def test_checkpoint_bytes_follow_the_documented_layout(tmp_path, robot):
    spec = make_robot(robot)
    policy, value_net = rl.build_nets(spec, rl.PPOConfig(seed=3))
    path = tmp_path / "ck.mmrl"
    rl.save_checkpoint(path, policy, value_net, spec.name, spec.dof_effector)
    assert path.read_bytes() == _mmrl_bytes(policy, value_net, spec.name,
                                            spec.dof_effector)


def test_checkpoint_streams_without_a_copy_of_the_parameters(tmp_path, traced_peak):
    spec = make_robot("hand-bot")
    policy, value_net = rl.build_nets(spec, rl.PPOConfig(seed=0))
    payload = sum(a.nbytes for a in policy.parameters() + value_net.parameters()
                  + [policy.low, policy.high])
    path = tmp_path / "ck.mmrl"
    _, save_peak = traced_peak(rl.save_checkpoint, path, policy, value_net, spec.name,
                               spec.dof_effector)
    loaded, load_peak = traced_peak(rl.load_checkpoint, path)
    del loaded
    assert payload > 30e6
    assert save_peak < 1e6
    assert load_peak <= payload + 1e6


def test_checkpoint_loads_writable_c_contiguous_float64(tmp_path):
    spec = make_robot("hand-bot")
    policy, value_net = rl.build_nets(spec, rl.PPOConfig(seed=0))
    path = tmp_path / "ck.mmrl"
    rl.save_checkpoint(path, policy, value_net, spec.name, spec.dof_effector)
    loaded_policy, loaded_value, _ = rl.load_checkpoint(path)
    arrays = (loaded_policy.parameters() + loaded_value.parameters()
              + [loaded_policy.low, loaded_policy.high])
    assert len(arrays) == 2 * 5 + 3 + 2 * 5
    for a in arrays:
        assert a.dtype == np.float64
        assert a.flags.c_contiguous and a.flags.writeable


# gripper-bot header: magic 0-4, version 4-8, name length 8-12, "gripper-bot"
# 12-23, dof_effector 23-27, 6 policy widths 27-55, 6 value widths 55-83
_GRIPPER_PAYLOAD_START = 83
_GRIPPER_POLICY_WIDTHS = (146, *HIDDEN_WIDTHS, 7)
# the policy layers' W and b, then log_std(7), then action low(7) and high(7)
_GRIPPER_LOW_START = _GRIPPER_PAYLOAD_START + 8 * (
    sum(n_in * n_out + n_out for n_in, n_out in zip(_GRIPPER_POLICY_WIDTHS,
                                                    _GRIPPER_POLICY_WIDTHS[1:])) + 7)


def _set_f64(data: bytes, offset: int, value: float) -> bytes:
    return data[:offset] + struct.pack("<d", value) + data[offset + 8:]


_CHECKPOINT_EDITS = {
    "bad_magic": (lambda d: b"NOPE" + d[4:], "bad checkpoint magic"),
    "version_2": (lambda d: d[:4] + struct.pack("<I", 2) + d[8:],
                  "unsupported checkpoint version 2"),
    "cut_mid_payload": (lambda d: d[: len(d) // 2], "truncated .* at byte offset"),
    "one_trailing_byte": (lambda d: d + b"\x00", "trailing bytes .* at byte offset"),
    "hidden_width_2_31": (lambda d: d[:35] + struct.pack("<I", 2**31 - 1) + d[39:],
                          f"truncated .* at byte offset {_GRIPPER_PAYLOAD_START}$"),
    "zero_widths": (lambda d: d[:27] + struct.pack("<I", 0) + d[55:],
                    "policy widths \\[\\] need at least 2 entries"),
    "gripper_nets_under_hand_bot": (
        lambda d: d[:8] + struct.pack("<I", 8) + b"hand-bot" + d[23:],
        "policy widths first entry is 146, robot hand-bot needs 223"),
    "robot_name_not_utf8": (lambda d: d[:12] + b"\xff" * 11 + d[23:],
                            "robot name is not utf-8"),
    "dof_effector_5": (lambda d: d[:23] + struct.pack("<I", 5) + d[27:],
                       "dof_effector is 5, robot gripper-bot has 1"),
    "action_low_doubled": (lambda d: _set_f64(d, _GRIPPER_LOW_START, -0.04),
                           "action low \\[-0.04, -0.02, .*\\] is not robot gripper-bot's"),
    "action_high_gripper_0_08": (lambda d: _set_f64(d, _GRIPPER_LOW_START + 8 * 13, 0.08),
                                 "action high \\[.*, 0.08\\] is not robot gripper-bot's"),
    "action_low_negative_zero": (lambda d: _set_f64(d, _GRIPPER_LOW_START + 8 * 6, -0.0),
                                 "action low \\[.*, -0.0\\] is not robot gripper-bot's"),
}


@pytest.mark.parametrize("case", sorted(_CHECKPOINT_EDITS))
def test_malformed_checkpoint_is_value_error_naming_the_file(tmp_path, case):
    edit, message = _CHECKPOINT_EDITS[case]
    spec = gripper_bot()
    policy, value_net = rl.build_nets(spec, rl.PPOConfig(seed=7))
    path = tmp_path / "ck.mmrl"
    rl.save_checkpoint(path, policy, value_net, spec.name, spec.dof_effector)
    path.write_bytes(edit(path.read_bytes()))
    with pytest.raises(ValueError) as exc:
        rl.load_checkpoint(path)
    assert type(exc.value) is ValueError
    assert str(path) in str(exc.value)
    assert re.search(message, str(exc.value)), str(exc.value)


# ---------------------------------------------------------------------------
# network-input scale
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("robot", ["gripper-bot", "hand-bot"])
def test_observation_inv_scale_follows_the_layout(robot):
    spec = make_robot(robot)
    n, j = spec.n_hand_points, spec.n_joints
    low, high = rl.action_bounds(spec)

    def full(size, scale):
        return np.full(size, 1.0 / scale)

    # proprioception in assemble's order: palm pose, palm velocities, hand
    # point poses, their velocities, q, qdot, qddot
    proprioception = np.concatenate([
        np.ones(6), full(3, ppo._VEL_SCALE), full(3, ppo._ANGVEL_SCALE),
        np.ones(6 * n), full(3 * n, ppo._VEL_SCALE), full(3 * n, ppo._ANGVEL_SCALE),
        full(j, ppo._Q_SCALE), full(j, ppo._QDOT_SCALE), full(j, ppo._QDDOT_SCALE)])
    expected = {"time": lambda size: np.ones(size),
                "object_state": lambda size: np.ones(size),
                "proprioception": lambda size: proprioception,
                "distance": lambda size: full(size, ppo._DIST_SCALE),
                "previous_action": lambda size: 1.0 / (0.5 * (high - low))}
    layout = Env(EpisodeConfig(), w.make_task("laptop", "open"), spec).layout
    inv = rl.observation_inv_scale(spec)
    assert inv.shape == (layout.total,)
    assert list(layout.slices()) == list(expected)
    for name, block in layout.slices().items():
        np.testing.assert_array_equal(inv[block], expected[name](block.stop - block.start),
                                      err_msg=name)


@pytest.mark.parametrize("robot", ["gripper-bot", "hand-bot"])
def test_scaled_proprioception_stays_in_unit_range(robot):
    # a part of the observation scaled by another part's constant (a reorder
    # of assemble against observation_inv_scale) leaves this range: raw joint
    # accelerations reach ~60 rad/s^2; the peak over this episode is 0.944
    spec = make_robot(robot)
    env = Env(EpisodeConfig(seed=0), w.make_task("laptop", "open"), spec)
    inv = rl.observation_inv_scale(spec)
    block = env.layout.slices()["proprioception"]
    scaled = np.array([(obs * inv)[block] for _, obs, _ in
                       run_episode(env, ScriptedController().deterministic_action, 0)])
    assert env.success
    assert np.abs(scaled).max() < 1.0
