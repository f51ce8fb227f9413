"""flashopt: a multi-objective optimization toolkit.

Tree-surrogate sequential search plus recursive-bisection and NSGA-II
baselines, dominance predicates, GD/IGD quality indicators, a next-release
planning problem generator, domination-tree summaries, and Scott-Knott/a12
ranking, wired together by a reproducible benchmark CLI.
"""

from .core import (
    DecisionPoint,
    EvaluatedPoint,
    ObjectiveSchema,
    ObjectiveVector,
    Problem,
    ProblemKind,
    RunResult,
    Sense,
    load_tabular,
)
from .dominance import (
    FrontPartition,
    binary_dominates,
    domination_scores,
    front0,
    indicator_dominates,
    indicator_value,
    nondominated_sort,
)
from .cart import RegressionTree, fit_arrays, predict_many, tree_size
from .flash import FlashConfig, run_flash, what_to_evaluate_next
from .sway import SwayConfig, project, run_sway, two_distant_points
from .nsga2 import Nsga2Config, crowding_distance, run_nsga2
from .monrp import (
    MonrpInstance,
    ReleasePlan,
    evaluate_plan,
    generate,
    is_feasible,
    random_valid_plan,
)
from .metrics import ReferenceFront, gd, igd, reference_front
from .domtree import DominationTree, build_domination_tree, render, tree_stats
from .stats import RankedGroups, a12, scott_knott
from .synth import make_synthetic

__version__ = "0.1.0"
