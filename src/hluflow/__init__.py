"""Hierarchical-matrix LU factorization on a nested data-flow task runtime."""

from .blocks import (
    ADMISSIBLE,
    INADMISSIBLE,
    PARTITIONED,
    BlockNode,
    admissible,
    build_block_tree,
    build_diagonal_2x2_tree,
)
from .clustering import Cluster, ClusterTree, build_cluster_tree, diam, dist
from .hmatrix import (
    DENSE,
    LOWRANK,
    HMatrix,
    Skeleton,
    build_hmatrix,
    build_skeleton,
    flatten,
    hmatvec,
    load_hmatrix,
    save_hmatrix,
    structure_dump,
)
from .kernels import KernelConfig, assemble_hmatrix, kernel_eval, make_bem_case
from .lowrank import LowRank, SingularBlockError, TruncationControl
from .hlu import (
    HluPlan,
    emit_task_graph,
    hlu_factorize,
    lower_unit_matvec,
    make_plan,
    upper_matvec,
)
from .runtime import (
    DeadlockError,
    Region,
    Runtime,
    SubsetRuleError,
    TaskGraph,
)

__version__ = "0.1.0"
