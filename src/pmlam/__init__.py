"""Probabilistic metric learning for top-K recommendation.

Users and items are Gaussian embeddings compared by the closed-form squared
Wasserstein-2 distance; triplet hinge losses use per-triplet margins from a
small network trained by bilevel optimization, with extra user-user and
item-item relation losses built from thresholded cosine neighborhoods.
"""

from .bilevel import TrainState, train
from .config import RunConfig, make_config
from .data import (FoldSplit, InteractionDataset, filter_iterative, ingest,
                   split_five_fold)
from .distance import DistanceKind, euclidean_squared, w2_squared
from .embeddings import GaussianEmbeddingTable, init_table, project
from .evaluator import EvalReport, evaluate, rank
from .losses import TripletBatch
from .margin_net import MarginNetParams, indicator
from .simgraph import NeighborSets
from .synth import planted_clusters

__version__ = "0.1.0"

__all__ = [
    "DistanceKind", "EvalReport", "FoldSplit", "GaussianEmbeddingTable",
    "InteractionDataset", "MarginNetParams", "NeighborSets", "RunConfig",
    "TrainState", "TripletBatch", "euclidean_squared", "evaluate",
    "filter_iterative", "indicator", "ingest", "init_table", "make_config",
    "planted_clusters", "project", "rank", "split_five_fold", "train",
    "w2_squared",
]
