"""Sequential merge/not-merge grouping of embedding albums, learned by
imitation from ground-truth partitions."""

from .core import (
    NOISE,
    Action,
    Album,
    CostModel,
    FaceItem,
    History,
    Partition,
    State,
    ground_truth_action,
    ground_truth_partition,
    transition,
)
from .engine import EpisodeTrace, PolicyConfig, run_episode
from .learn import ForestHyper, ForestModel, SvmHyper, SvmModel
from .metrics import BcubedScores, OpResult, bcubed, normalized_op, op_cost
from .recommend import RecommenderConfig, Strategy, recommend
from .train import TrainConfig, irl_train, q_train

__version__ = "0.1.0"

__all__ = [
    "NOISE",
    "Action",
    "Album",
    "BcubedScores",
    "CostModel",
    "EpisodeTrace",
    "FaceItem",
    "ForestHyper",
    "ForestModel",
    "History",
    "OpResult",
    "Partition",
    "PolicyConfig",
    "RecommenderConfig",
    "State",
    "Strategy",
    "SvmHyper",
    "SvmModel",
    "TrainConfig",
    "bcubed",
    "ground_truth_action",
    "ground_truth_partition",
    "irl_train",
    "normalized_op",
    "op_cost",
    "q_train",
    "recommend",
    "run_episode",
    "transition",
]
