"""From-scratch PPO: networks, GAE, rollout collection, training, evaluation."""

from .checkpoint import load_checkpoint, save_checkpoint
from .net import Adam, Mlp, clip_gradients, init_mlp, orthogonal
from .ppo import (
    CurvePoint,
    EnvSlot,
    EvalResult,
    GaussianPolicy,
    PPOConfig,
    RolloutBatch,
    TrainResult,
    TrainingDiverged,
    UpdateStats,
    action_bounds,
    build_nets,
    collect_rollouts,
    compute_gae,
    evaluate,
    make_slots,
    observation_inv_scale,
    ppo_update,
    train,
    value_forward,
    write_curve,
)
