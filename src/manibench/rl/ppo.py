"""PPO with clipped surrogate, GAE, and vectorized deterministic rollouts.

One Gaussian policy per task: a 4-hidden-layer MLP outputs the (6+D) action
mean; a state-independent learned log-std (initialized to log(0.3 * limit))
completes the distribution. Samples are clamped to per-component action
limits. A same-shaped value MLP outputs the scalar state value.

Rollout collection steps the env slots in order or on a thread pool that the
call owns; each env slot owns its Philox action-noise stream and per-slot
episode counter, so a batch is bit-identical for any worker count or scheduling.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from ..env import Env, EpisodeConfig, STREAM_ACTION, episode_rng, run_episode
from ..observation import ObservationLayout, check_policy_obs_dim
from ..reward import RewardWeights
from ..robot import RobotSpec
from ..world import TaskSpec
from .net import HIDDEN_WIDTHS, Adam, Mlp, Workspace, clip_gradients, init_mlp

_LOG_STD_MIN, _LOG_STD_MAX = -20.0, 2.0
_LOG2PI = np.log(2.0 * np.pi)

# rng stream ids above the per-episode ones in env
_STREAM_POLICY_INIT = 16
_STREAM_VALUE_INIT = 17
_STREAM_UPDATE = 18

_SLOT_EPISODE_STRIDE = 1 << 32  # slot i uses episode ids i*stride + k


class TrainingDiverged(RuntimeError):
    pass


@dataclass(frozen=True)
class PPOConfig:
    num_envs: int = 64
    learning_rate: float = 1e-3
    iterations: int = 300
    rollout_horizon: int = 32
    minibatches: int = 4
    epochs_per_iter: int = 5
    clip_ratio: float = 0.2
    gamma: float = 0.99
    gae_lambda: float = 0.95
    entropy_coef: float = 0.0
    value_coef: float = 0.5
    grad_clip: float = 1.0
    seed: int = 0
    workers: int = 1
    log_std_init_scale: float = 0.3
    target_kl: float = 0.05   # stop policy minibatch steps once KL exceeds this

    def __post_init__(self):
        for name in ("num_envs", "rollout_horizon", "minibatches", "epochs_per_iter",
                     "workers"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.iterations < 0:
            raise ValueError(f"iterations must be >= 0, got {self.iterations}")
        if not 0.0 < self.clip_ratio < 1.0:
            raise ValueError(f"clip_ratio must lie in (0, 1), got {self.clip_ratio}")
        for name in ("learning_rate", "grad_clip", "log_std_init_scale"):
            if not (np.isfinite(getattr(self, name)) and getattr(self, name) > 0.0):
                raise ValueError(f"{name} must be finite and > 0, got {getattr(self, name)}")
        if not self.target_kl > 0.0:
            raise ValueError(f"target_kl must be > 0, got {self.target_kl}")
        for name in ("gamma", "gae_lambda"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {getattr(self, name)}")
        for name in ("entropy_coef", "value_coef"):
            if not getattr(self, name) >= 0.0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")
        if self.minibatches > self.num_envs * self.rollout_horizon:
            raise ValueError(f"minibatches must be <= num_envs * rollout_horizon "
                             f"({self.num_envs * self.rollout_horizon}), got {self.minibatches}")


# ---------------------------------------------------------------------------
# Policy
# ---------------------------------------------------------------------------

def action_bounds(spec: RobotSpec):
    """Per-component clamp bounds: +-pos/rot step limit, effector limits."""
    low = np.concatenate([
        -spec.pos_step_limit * np.ones(3),
        -spec.rot_step_limit * np.ones(3),
        spec.effector_limits()[:, 0],
    ])
    high = np.concatenate([
        spec.pos_step_limit * np.ones(3),
        spec.rot_step_limit * np.ones(3),
        spec.effector_limits()[:, 1],
    ])
    return low, high


# Fixed network-input scaling. The observation vector itself stays in raw
# physical units (its contract); these constants are part of the network
# architecture. Without them joint accelerations (up to ~2*vmax/dt^2 ~ 240)
# saturate the first tanh layer and kill every gradient.
_VEL_SCALE = 2.0
_ANGVEL_SCALE = 4.0
_Q_SCALE = 3.0
_QDOT_SCALE = 4.0
_QDDOT_SCALE = 240.0
_DIST_SCALE = 2.0

# Value net output scale: raw head output is multiplied by this so that
# episode returns (hundreds) are reachable within a few hundred Adam steps.
VALUE_SCALE = 20.0


def observation_inv_scale(spec: RobotSpec) -> np.ndarray:
    """1/scale per observation component, from physical bounds."""
    n, d, j = spec.n_hand_points, spec.dof_effector, spec.n_joints
    low, high = action_bounds(spec)
    parts = [
        np.ones(30),                      # time embedding in [-1, 1]
        np.ones(9),                       # grasp/rotation/goal, metres & rad
        np.ones(6),                       # palm position + rotation
        np.full(3, 1.0 / _VEL_SCALE),
        np.full(3, 1.0 / _ANGVEL_SCALE),
        np.ones(6 * n),                   # fingertip positions + rotations
        np.full(3 * n, 1.0 / _VEL_SCALE),
        np.full(3 * n, 1.0 / _ANGVEL_SCALE),
        np.full(j, 1.0 / _Q_SCALE),
        np.full(j, 1.0 / _QDOT_SCALE),
        np.full(j, 1.0 / _QDDOT_SCALE),
        np.full(1 + n + spec.n_distance_points + 3, 1.0 / _DIST_SCALE),
        1.0 / (0.5 * (high - low)),       # previous action to ~[-1, 1]
    ]
    return np.concatenate(parts)


class GaussianPolicy:
    """The policy's action distribution, its one owner: a Gaussian with a
    bounded MLP mean and a state-independent log-std, sampled into the
    action box.

    The mean is bounded: mean = mean_scale * tanh(net output), with
    mean_scale the half-range of the box. Two failure modes force this at lr
    1e-3: an unscaled head moves the mean by tens of physical sigmas (sigma ~
    0.006 m) per Adam step, and an unbounded head drifts outside the action
    box once sampled actions saturate, after which the importance ratio
    overflows faster than clipping can react.

    Rollouts and eval use `mean`, `sample` and `log_prob`. Training uses
    `log_prob_cached` and `backward`: the log-probs of a minibatch, then the
    gradient of sum(dlp * log_prob) - entropy_coef * entropy with respect to
    `parameters()`. Every fact of the distribution (the squash, the
    log-density, the entropy and their gradients) is written here once, so a
    new parameterisation changes this class and `build_nets`'s initial
    `log_std` only.
    """

    def __init__(self, net: Mlp, log_std: np.ndarray, low: np.ndarray,
                 high: np.ndarray, obs_inv_scale: np.ndarray):
        self.net = net
        self.log_std = log_std
        self.low = low
        self.high = high
        self.mean_scale = 0.5 * (high - low)
        self.obs_inv_scale = obs_inv_scale

    def scale_obs(self, obs: np.ndarray, *, out: np.ndarray | None = None) -> np.ndarray:
        """The net's input: `obs` times the per-entry inverse scale, into
        `out` when given (which may be `obs` itself)."""
        return np.multiply(obs, self.obs_inv_scale, out=out)

    @property
    def obs_dim(self) -> int:
        return self.net.widths[0]

    @property
    def act_dim(self) -> int:
        return self.net.widths[-1]

    def parameters(self):
        return self.net.parameters() + [self.log_std]

    def std(self) -> np.ndarray:
        return np.exp(np.clip(self.log_std, _LOG_STD_MIN, _LOG_STD_MAX))

    def _squash(self, raw: np.ndarray):
        """(mean, tanh(raw)): the bounded mean of a raw net output, and the
        tanh the backward's chain rule needs."""
        squashed = np.tanh(raw)
        return self.mean_scale * squashed, squashed

    def mean(self, obs: np.ndarray) -> np.ndarray:
        return self._squash(self.net.forward(self.scale_obs(obs)))[0]

    def clamp(self, actions: np.ndarray) -> np.ndarray:
        return np.clip(actions, self.low, self.high)

    def sample(self, mean: np.ndarray, noise: np.ndarray) -> np.ndarray:
        return self.clamp(mean + self.std() * noise)

    def _log_density(self, mean: np.ndarray, actions: np.ndarray):
        """(log-probs, z, std) with z = (actions - mean) / std."""
        std = self.std()
        z = (actions - mean) / std
        log_probs = -0.5 * ((z * z).sum(axis=-1)
                            + 2.0 * np.log(std).sum()
                            + self.act_dim * _LOG2PI)
        return log_probs, z, std

    def log_prob(self, mean: np.ndarray, actions: np.ndarray) -> np.ndarray:
        return self._log_density(mean, actions)[0]

    def entropy(self) -> float:
        return float(np.log(self.std()).sum()
                     + 0.5 * self.act_dim * (1.0 + _LOG2PI))

    def log_prob_cached(self, obs_scaled: np.ndarray, actions: np.ndarray, *,
                        workspace: Workspace | None = None):
        """(log-probs, cache) of `actions` under the policy at the scaled
        observations; `backward` takes the cache, once. The net's activations
        live in `workspace` (see `Mlp.forward_cached`)."""
        raw, net_cache = self.net.forward_cached(obs_scaled, workspace=workspace)
        mean, squashed = self._squash(raw)
        log_probs, z, std = self._log_density(mean, actions)
        return log_probs, (net_cache, squashed, z, std)

    def backward(self, cache, dlp: np.ndarray, entropy_coef: float, *,
                 workspace: Workspace | None = None):
        """Gradients of sum(dlp * log_prob) - entropy_coef * entropy, in
        `parameters()` order; `dlp` is dL/dlog_prob per sample. Consumes the
        net activations in `cache`; the net's gradients are views of
        `workspace` (see `Mlp.backward`)."""
        net_cache, squashed, z, std = cache
        dmean = dlp[:, None] * (z / std)                  # dlog_prob/dmean = z / std
        dlog_std = (dlp[:, None] * (z * z - 1.0)).sum(axis=0)
        dlog_std -= entropy_coef * 1.0                    # dH/dlog_std = 1 per dim
        draw = self.mean_scale * (1.0 - squashed * squashed) * dmean  # tanh'
        grads, _ = self.net.backward(net_cache, draw, workspace=workspace)
        grads.append(dlog_std)
        return grads

    def deterministic_action(self, obs: np.ndarray, env=None) -> np.ndarray:
        return self.clamp(self.mean(obs))


def value_forward(value_net: Mlp, policy: GaussianPolicy, obs: np.ndarray) -> np.ndarray:
    """State values: scaled-input MLP with a fixed output gain."""
    return VALUE_SCALE * value_net.forward(policy.scale_obs(obs))[:, 0]


# ---------------------------------------------------------------------------
# GAE
# ---------------------------------------------------------------------------

def compute_gae(rewards: np.ndarray, values: np.ndarray, dones: np.ndarray,
                bootstrap: np.ndarray, gamma: float, lam: float,
                timeout_values: np.ndarray | None = None):
    """delta_t = r_t + g*v_{t+1}*(1-d_t) - v_t; A_t = delta_t + g*l*(1-d_t)*A_{t+1}.

    Shapes (num_envs, horizon); bootstrap is the post-horizon value (num_envs,).
    timeout_values carries V(terminal state) at steps where the episode hit
    its step limit rather than truly terminating: those steps bootstrap
    through the limit instead of treating it as an absorbing state (otherwise
    the pre-timeout step earns a spurious -V(s) advantage spike and the
    policy learns to chase episode ends). Returns (advantages, returns) with
    returns = advantages + values.
    """
    rewards = np.asarray(rewards, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    dones = np.asarray(dones, dtype=np.float64)
    if not (rewards.shape == values.shape == dones.shape):
        raise ValueError("rewards/values/dones shape mismatch")
    n_envs, horizon = rewards.shape
    if np.shape(bootstrap) != (n_envs,):
        raise ValueError("bootstrap shape mismatch")
    if timeout_values is not None and timeout_values.shape != rewards.shape:
        raise ValueError("timeout_values shape mismatch")
    advantages = np.zeros_like(rewards)
    next_adv = np.zeros(n_envs)
    next_value = np.asarray(bootstrap, dtype=np.float64)
    for t in range(horizon - 1, -1, -1):
        live = 1.0 - dones[:, t]
        carried = next_value * live
        if timeout_values is not None:
            carried = carried + timeout_values[:, t]
        delta = rewards[:, t] + gamma * carried - values[:, t]
        next_adv = delta + gamma * lam * live * next_adv
        advantages[:, t] = next_adv
        next_value = values[:, t]
    return advantages, advantages + values


# ---------------------------------------------------------------------------
# Rollouts
# ---------------------------------------------------------------------------

@dataclass
class RolloutBatch:
    observations: np.ndarray  # (E, H, obs)
    actions: np.ndarray       # (E, H, act)
    log_probs: np.ndarray     # (E, H)
    values: np.ndarray        # (E, H)
    rewards: np.ndarray       # (E, H)
    dones: np.ndarray         # (E, H)
    bootstrap: np.ndarray     # (E,)
    timeout_values: np.ndarray | None = None  # (E, H) V(s_T) at truncations
    advantages: np.ndarray | None = None
    returns: np.ndarray | None = None
    episode_returns: list = field(default_factory=list)
    episode_successes: list = field(default_factory=list)
    episode_lengths: list = field(default_factory=list)


class EnvSlot:
    """One env instance plus its private episode counter and noise stream."""

    def __init__(self, index: int, env: Env, seed: int):
        self.env = env
        self.noise_rng = episode_rng(seed, _SLOT_EPISODE_STRIDE * index, STREAM_ACTION)
        self.next_episode = _SLOT_EPISODE_STRIDE * index
        self.obs = self._reset()
        self.return_acc = 0.0

    def _reset(self) -> np.ndarray:
        """Start the slot's next episode; returns its first observation."""
        obs = self.env.reset(self.next_episode)
        self.next_episode += 1
        return obs

    def step(self, action: np.ndarray, weights: RewardWeights):
        obs, reward, done, _ = self.env.step(action, weights)
        self.return_acc += reward
        finished = timeout_obs = None   # finished: (return, success, length)
        if done:
            finished = (self.return_acc, self.env.success, self.env.t)
            if not self.env.success:
                timeout_obs = obs  # step-limit truncation, not terminal
            self.return_acc = 0.0
            obs = self._reset()
        self.obs = obs
        return reward, finished, timeout_obs


def make_slots(task: TaskSpec, robot_spec: RobotSpec, episode_config: EpisodeConfig,
               num_envs: int) -> list:
    return [EnvSlot(i, Env(episode_config, task, robot_spec), episode_config.seed)
            for i in range(num_envs)]


def collect_rollouts(slots, policy: GaussianPolicy, value_net: Mlp, horizon: int,
                     weights: RewardWeights, workers: int = 1) -> RolloutBatch:
    """One horizon of steps on every slot. With workers > 1 the slots step
    on a thread pool that this call creates and shuts down; the batch is
    the same for any worker count."""
    n = len(slots)
    batch = RolloutBatch(
        observations=np.empty((n, horizon, policy.obs_dim)),
        actions=np.empty((n, horizon, policy.act_dim)),
        log_probs=np.empty((n, horizon)),
        values=np.empty((n, horizon)),
        rewards=np.empty((n, horizon)),
        dones=np.empty((n, horizon)),
        bootstrap=np.empty(n),
    )
    pool = None
    if workers > 1:
        import concurrent.futures   # only the pool path pays for the import
        pool = concurrent.futures.ThreadPoolExecutor(max_workers=workers)
    truncations = []  # (slot index, t, terminal observation)
    try:
        for t in range(horizon):
            obs_mat = np.stack([slot.obs for slot in slots])
            means = policy.mean(obs_mat)
            values = value_forward(value_net, policy, obs_mat)
            # noise drawn in slot order from per-slot streams: worker-count
            # independent by construction
            noise = np.stack([slot.noise_rng.standard_normal(policy.act_dim)
                              for slot in slots])
            actions = policy.sample(means, noise)
            log_probs = policy.log_prob(means, actions)

            results = list((map if pool is None else pool.map)(
                lambda slot, action: slot.step(action, weights), slots, actions))

            batch.observations[:, t] = obs_mat
            batch.actions[:, t] = actions
            batch.log_probs[:, t] = log_probs
            batch.values[:, t] = values
            for i, (reward, finished, timeout_obs) in enumerate(results):
                batch.rewards[i, t] = reward
                batch.dones[i, t] = float(finished is not None)
                if timeout_obs is not None:
                    truncations.append((i, t, timeout_obs))
                if finished is not None:
                    ret, success, length = finished
                    batch.episode_returns.append(ret)
                    batch.episode_successes.append(bool(success))
                    batch.episode_lengths.append(length)
    finally:
        if pool is not None:
            pool.shutdown()
    final_obs = np.stack([slot.obs for slot in slots])
    batch.bootstrap = value_forward(value_net, policy, final_obs)
    batch.timeout_values = np.zeros_like(batch.rewards)
    if truncations:
        term_obs = np.stack([obs for _, _, obs in truncations])
        term_values = value_forward(value_net, policy, term_obs)
        for (i, t, _), v in zip(truncations, term_values):
            batch.timeout_values[i, t] = v
    return batch


# ---------------------------------------------------------------------------
# Update
# ---------------------------------------------------------------------------

@dataclass
class UpdateStats:
    """Means over one update: policy_loss, clip_fraction, grad_norm_policy
    and approx_kl over the policy steps taken (minibatch_steps of them,
    fewer than epochs x minibatches once the KL guard stops); the value
    statistics and entropy over every minibatch step."""

    policy_loss: float
    value_loss: float
    entropy: float
    clip_fraction: float
    grad_norm_policy: float
    grad_norm_value: float
    approx_kl: float
    minibatch_steps: int


def ppo_update(policy: GaussianPolicy, value_net: Mlp, policy_opt: Adam,
               value_opt: Adam, batch: RolloutBatch, cfg: PPOConfig,
               update_rng: np.random.Generator) -> UpdateStats:
    """Clipped-surrogate update; advantages are normalized per minibatch.

    The policy's log-probs and their gradients come from
    `GaussianPolicy.log_prob_cached` and `GaussianPolicy.backward`; this
    function forms the ratio, the clipped surrogate and its dL/dlog_prob, the
    clip fraction, the KL and its guard, and the value regression.

    Every minibatch step of both nets writes its activations, `dh` and
    gradients into one `Workspace`, and its scaled minibatch observations
    into one array, both allocated here and released on return, so no step
    frees arrays that the next one must fault in again. The
    policy's gradients are dead once `policy_opt.step` has run, before the
    value net's forward overwrites the workspace.
    """
    if batch.advantages is None or batch.returns is None:
        raise ValueError("batch needs advantages/returns (run compute_gae)")
    obs = batch.observations.reshape(-1, policy.obs_dim)
    actions = batch.actions.reshape(-1, policy.act_dim)
    old_log_probs = batch.log_probs.reshape(-1)
    advantages = batch.advantages.reshape(-1)
    returns = batch.returns.reshape(-1)
    total = obs.shape[0]
    mb_size = total // cfg.minibatches
    workspace = Workspace((policy.net, value_net), mb_size)
    # every step gathers its minibatch observations into this one array and
    # scales them there; both nets only read it
    mb_obs_scaled = np.empty((mb_size, policy.obs_dim))

    policy_stats = []  # (policy_loss, clip_frac, gnorm_p, approx_kl) per policy step
    value_stats = []   # (value_loss, entropy, gnorm_v) per minibatch step
    stop_policy = False  # KL guard halts policy steps; value keeps training
    for _ in range(cfg.epochs_per_iter):
        perm = update_rng.permutation(total)
        for k in range(cfg.minibatches):
            idx = perm[k * mb_size:(k + 1) * mb_size]
            # mode="clip" gathers straight into the array (the default
            # "raise" buffers through a temporary); idx is a permutation slice
            np.take(obs, idx, axis=0, out=mb_obs_scaled, mode="clip")
            policy.scale_obs(mb_obs_scaled, out=mb_obs_scaled)
            mb_ret = returns[idx]
            b = len(idx)

            entropy = policy.entropy()
            if not stop_policy:
                mb_act = actions[idx]
                mb_old = old_log_probs[idx]
                adv = advantages[idx]
                adv = (adv - adv.mean()) / (adv.std() + 1e-8)

                log_probs, cache = policy.log_prob_cached(mb_obs_scaled, mb_act,
                                                          workspace=workspace)
                # exp guard: a blown ratio still registers as huge finite loss
                ratio = np.exp(np.minimum(log_probs - mb_old, 50.0))
                clipped = np.clip(ratio, 1.0 - cfg.clip_ratio, 1.0 + cfg.clip_ratio)
                surrogate = np.minimum(ratio * adv, clipped * adv)
                policy_loss = -float(surrogate.mean()) - cfg.entropy_coef * entropy
                clip_frac = float((ratio != clipped).mean())
                approx_kl = float(((ratio - 1.0) - np.log(ratio)).mean())

                # gradient flows through ratio only where the unclipped branch
                # is active: A>=0 and ratio<1+eps, or A<0 and ratio>1-eps
                active = np.where(adv >= 0.0, ratio < 1.0 + cfg.clip_ratio,
                                  ratio > 1.0 - cfg.clip_ratio)
                dlp = -(adv * ratio * active) / b      # dL/dlogpi per sample
                grads = policy.backward(cache, dlp, cfg.entropy_coef, workspace=workspace)
                gnorm_p = clip_gradients(grads, cfg.grad_clip, workspace=workspace)
                policy_opt.step(grads)
                if not np.isfinite(policy_loss):
                    raise TrainingDiverged(f"diverged: policy_loss={policy_loss}")
                policy_stats.append((policy_loss, clip_frac, gnorm_p, approx_kl))
                if approx_kl > cfg.target_kl:
                    stop_policy = True

            v_raw, vcache = value_net.forward_cached(mb_obs_scaled, workspace=workspace)
            v = VALUE_SCALE * v_raw[:, 0]
            value_loss = cfg.value_coef * float(((v - mb_ret) ** 2).mean())
            dv = 2.0 * cfg.value_coef * VALUE_SCALE * (v - mb_ret)[:, None] / b
            vgrads, _ = value_net.backward(vcache, dv, workspace=workspace)
            gnorm_v = clip_gradients(vgrads, cfg.grad_clip, workspace=workspace)
            value_opt.step(vgrads)

            if not np.isfinite(value_loss):
                raise TrainingDiverged(f"diverged: value_loss={value_loss}")
            value_stats.append((value_loss, entropy, gnorm_v))

    # policy statistics over the policy steps taken, value ones over all steps
    policy_loss, clip_frac, gnorm_p, approx_kl = np.mean(policy_stats, axis=0).tolist()
    value_loss, entropy, gnorm_v = np.mean(value_stats, axis=0).tolist()
    return UpdateStats(policy_loss=policy_loss, value_loss=value_loss,
                       entropy=entropy, clip_fraction=clip_frac,
                       grad_norm_policy=gnorm_p, grad_norm_value=gnorm_v,
                       approx_kl=approx_kl, minibatch_steps=len(policy_stats))


# ---------------------------------------------------------------------------
# Train / evaluate
# ---------------------------------------------------------------------------

@dataclass
class CurvePoint:
    iteration: int
    mean_return: float
    success_rate: float


@dataclass
class TrainResult:
    policy: GaussianPolicy
    value_net: Mlp
    curve: list
    robot_name: str


def _init_rng(seed: int, stream: int) -> np.random.Generator:
    return episode_rng(seed, 0, stream)


def build_nets(robot_spec: RobotSpec, cfg: PPOConfig):
    obs_dim = ObservationLayout.for_robot(robot_spec).total
    low, high = action_bounds(robot_spec)
    widths = (obs_dim, *HIDDEN_WIDTHS)
    # near-zero heads: small initial means, and initial values ~ 0 so early
    # advantages reduce to clean discounted reward sums instead of chasing a
    # random value landscape
    policy_net = init_mlp(widths + (len(low),), _init_rng(cfg.seed, _STREAM_POLICY_INIT),
                          head_gain=0.01)
    policy = GaussianPolicy(policy_net, np.log(cfg.log_std_init_scale * (0.5 * (high - low))),
                            low, high, observation_inv_scale(robot_spec))
    value_net = init_mlp(widths + (1,), _init_rng(cfg.seed, _STREAM_VALUE_INIT),
                         head_gain=0.01)
    return policy, value_net


def train(task: TaskSpec, robot_spec: RobotSpec, cfg: PPOConfig,
          episode_config: EpisodeConfig | None = None,
          weights: RewardWeights | None = None,
          progress=None) -> TrainResult:
    """collect -> GAE -> clipped update, for cfg.iterations iterations.

    After each iteration, `progress(point, stats, rollout_s, update_s)` gets
    the curve point, the `UpdateStats` and the wall seconds of
    `collect_rollouts` and of `ppo_update`. The timings go to `progress`
    only: the curve and the nets do not depend on them.
    """
    episode_config = episode_config or EpisodeConfig(seed=cfg.seed)
    weights = weights or RewardWeights()
    policy, value_net = build_nets(robot_spec, cfg)
    policy_opt = Adam(policy.parameters(), cfg.learning_rate)
    value_opt = Adam(value_net.parameters(), cfg.learning_rate)
    update_rng = _init_rng(cfg.seed, _STREAM_UPDATE)
    slots = make_slots(task, robot_spec, episode_config, cfg.num_envs)

    curve = []
    recent_returns: list = []
    recent_successes: list = []
    for iteration in range(cfg.iterations):
        t0 = time.perf_counter()
        batch = collect_rollouts(slots, policy, value_net, cfg.rollout_horizon,
                                 weights, workers=cfg.workers)
        rollout_s = time.perf_counter() - t0
        batch.advantages, batch.returns = compute_gae(
            batch.rewards, batch.values, batch.dones, batch.bootstrap,
            cfg.gamma, cfg.gae_lambda, timeout_values=batch.timeout_values)
        t0 = time.perf_counter()
        stats = ppo_update(policy, value_net, policy_opt, value_opt,
                           batch, cfg, update_rng)
        update_s = time.perf_counter() - t0
        recent_returns = (recent_returns + batch.episode_returns)[-64:]
        recent_successes = (recent_successes + batch.episode_successes)[-64:]
        point = CurvePoint(
            iteration=iteration,
            mean_return=float(np.mean(recent_returns)) if recent_returns else 0.0,
            success_rate=float(np.mean(recent_successes)) if recent_successes else 0.0,
        )
        curve.append(point)
        if progress is not None:
            progress(point, stats, rollout_s, update_s)
    return TrainResult(policy=policy, value_net=value_net, curve=curve,
                       robot_name=robot_spec.name)


def write_curve(path, curve) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write("iteration\tmean_return\tsuccess_rate\n")
        for p in curve:
            f.write(f"{p.iteration}\t{p.mean_return:.6f}\t{p.success_rate:.6f}\n")


@dataclass
class EpisodeRecord:
    episode: int
    success: bool
    steps: int
    final_goal_distance: float


@dataclass
class EvalResult:
    success_rate: float
    records: list


def evaluate(policy, task: TaskSpec, robot_spec: RobotSpec,
             episode_config: EpisodeConfig, n_episodes: int,
             weights: RewardWeights | None = None) -> EvalResult:
    """Deterministic policy (action = clamped mean) over n seeded episodes,
    each stepped through `run_episode`."""
    if n_episodes <= 0:
        raise ValueError("no episodes")
    check_policy_obs_dim(policy, robot_spec)
    weights = weights or RewardWeights()
    env = Env(episode_config, task, robot_spec)
    records = []
    for episode in range(n_episodes):
        steps = 0
        for _, _, info in run_episode(env, policy.deterministic_action, episode, weights):
            steps += 1
        records.append(EpisodeRecord(
            episode=episode, success=bool(env.success), steps=steps,
            final_goal_distance=float(info["goal_distance"])))
    rate = float(np.mean([r.success for r in records]))
    return EvalResult(success_rate=rate, records=records)
