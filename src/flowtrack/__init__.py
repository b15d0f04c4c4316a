"""Multi-object tracking by min-cost network flow.

Detections are associated across frames by solving a min-cost flow problem
over a layered graph with successive shortest paths. Batch, online-optimal
and memory-bounded streaming solvers share one graph and cost model; a greedy
dynamic-programming baseline and a brute-force oracle are included for
comparison and verification.
"""

from .cost_model import CostModel, Detection, iou, pairwise_features
from .errors import DataError, FlowTrackError, InvariantBreach
from .graph import (FlowSolution, TrackingGraph, Trajectory, build_batch_graph,
                    check_flow_conservation, check_layered_dag)
from .metrics import GroundTruth, MotReport, clear_mot
from .online import OnlineTracker, TrackerConfig, assign_track_ids
from .oracle import brute_force_optimum
from .ssp import SolverStats, solve_dp_greedy, solve_dssp, solve_ssp
from .synthetic import SyntheticConfig, generate_synthetic

__version__ = "0.1.0"

__all__ = [
    "CostModel", "Detection", "iou", "pairwise_features",
    "FlowTrackError", "DataError", "InvariantBreach",
    "TrackingGraph", "Trajectory", "FlowSolution", "build_batch_graph",
    "check_layered_dag", "check_flow_conservation",
    "solve_ssp", "solve_dssp", "solve_dp_greedy", "SolverStats",
    "OnlineTracker", "TrackerConfig", "assign_track_ids",
    "brute_force_optimum",
    "GroundTruth", "MotReport", "clear_mot",
    "SyntheticConfig", "generate_synthetic",
]
