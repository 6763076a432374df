"""Decentralized multi-robot trajectory planning in a deterministic 2D simulation.

Each simulated robot runs the same onboard pipeline: a 2D range scanner feeds a
shape-based local map, peers are tracked anonymously from broadcast states, a
moving tube of convex safe regions is carved out of free space, and a
receding-horizon B-spline quadratic program produces the next committed
trajectory.  The harness steps all agents on a fixed clock so that runs are
bit-for-bit reproducible for a given scenario and seed.
"""

from .geometry import Circle, Square, Rectangle, Triangle
from .bspline import TrajectorySpline, KnotLayout, plan_knot_layout
from .qp import QPProblem, QPSolution, solve_qp

__all__ = [
    "Circle", "Square", "Rectangle", "Triangle",
    "TrajectorySpline", "KnotLayout", "plan_knot_layout",
    "QPProblem", "QPSolution", "solve_qp",
]
