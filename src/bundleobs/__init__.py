"""bundleobs: symmetry-based observer design on Lie groups.

Group/action primitives, cross-section (base/fiber) decomposition, the
gradient observer with autonomous error dynamics, and worked attitude and
SLAM systems.
"""

from .groups import (
    SE3,
    SO3,
    AlgebraElement,
    GroupElement,
    Metric,
    adjoint,
    bracket,
    exp,
    hat,
    inner,
    log,
    project_to_group,
    vee,
)
from .actions import ActionSpec, Point, act, infinitesimal_generator
from .bundle import (
    BaseCoordinate,
    BundlePoint,
    CrossSection,
    associated_section_from_output,
    givens_section,
    reduce_system,
    slam_bundle,
    slam_section,
    sphere_bundle,
    sphere_split,
)
from .observer import (
    ObserverProblem,
    group_error,
    innovation,
    preobserver_rate,
    zeta_e,
    zeta_e_numeric,
)
from .integrate import Input, IntegratorConfig, SplitRate, Trajectory, integrate_system, lie_step

__all__ = [
    "SE3",
    "SO3",
    "ActionSpec",
    "AlgebraElement",
    "BaseCoordinate",
    "BundlePoint",
    "CrossSection",
    "GroupElement",
    "Input",
    "IntegratorConfig",
    "SplitRate",
    "Metric",
    "ObserverProblem",
    "Point",
    "Trajectory",
    "act",
    "adjoint",
    "associated_section_from_output",
    "bracket",
    "exp",
    "givens_section",
    "group_error",
    "hat",
    "infinitesimal_generator",
    "inner",
    "innovation",
    "integrate_system",
    "lie_step",
    "log",
    "preobserver_rate",
    "project_to_group",
    "reduce_system",
    "slam_bundle",
    "slam_section",
    "sphere_bundle",
    "sphere_split",
    "vee",
    "zeta_e",
    "zeta_e_numeric",
]

__version__ = "0.1.0"
