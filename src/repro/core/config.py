"""MAST configuration.

Defaults follow the paper: 10 % sampling budget (Tbl 1), UCB exploration
constant ``c = 2`` (§5.1), segment-tree max depth 10 (§5.1), binary
branching (RQ7 shows 2 is best), confidence threshold 0.5
(Example 5.2), and ``d_max`` = LiDAR range for the reward normalization
(Eq. 1).  ``beta`` (uniform fraction of the budget) and ``alpha_r``
(reward EMA rate, Eq. 2) are not given numerically in the paper; the
defaults here were tuned on held-out seeds and are swept in the
benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.utils.validation import (
    require,
    require_fraction,
    require_positive,
)

__all__ = ["MASTConfig"]


@dataclass(frozen=True)
class MASTConfig:
    """All knobs of the MAST pipeline."""

    #: Fraction of frames processed by the deep model (Tbl 1: 5 %-25 %).
    budget_fraction: float = 0.10
    #: Fraction of the budget spent on the initial uniform pass (beta).
    beta: float = 0.3
    #: EMA rate for segment-tree reward updates (alpha_r in Eq. 2).
    alpha_r: float = 0.3
    #: UCB exploration constant (c in the v_k formula).
    ucb_c: float = 2.0
    #: Segment-tree branching factor (RQ7 sweeps 2-10).
    branching: int = 2
    #: Maximum segment-tree depth; deeper leaves sample uniformly (§5.1).
    max_depth: int = 10
    #: Weight between the distance and cardinality reward terms (Eq. 1).
    c_var: float = 0.5
    #: Maximum sensor distance, normalizing the reward's distance term.
    d_max: float = 75.0
    #: Confidence above which a (predicted) box counts as present.
    confidence_threshold: float = 0.5
    #: Optional gating distance for Hungarian matching in ST-PC analysis
    #: (None = paper-faithful ungated matching).
    match_max_distance: float | None = None
    #: Aggregate-operator -> predictor assignment (§7.1: MAST uses
    #: ST-based prediction for retrieval/Count/Med and linear for Avg).
    predictor_by_operator: dict = field(
        default_factory=lambda: {
            "Avg": "linear",
            "Med": "st",
            "Count": "st",
            "Min": "st",
            "Max": "st",
        }
    )
    #: Predictor used for retrieval queries.
    retrieval_predictor: str = "st"
    #: Master seed for the sampling policy's tie-breaking / deep leaves.
    seed: int = 0

    def __post_init__(self) -> None:
        require_fraction(self.budget_fraction, "budget_fraction")
        require_fraction(self.beta, "beta")
        require_fraction(self.alpha_r, "alpha_r", inclusive=True)
        require_positive(self.ucb_c, "ucb_c")
        require(self.branching >= 2, f"branching must be >= 2, got {self.branching}")
        require(self.max_depth >= 1, f"max_depth must be >= 1, got {self.max_depth}")
        require_fraction(self.c_var, "c_var", inclusive=True)
        require_positive(self.d_max, "d_max")
        require_fraction(
            self.confidence_threshold, "confidence_threshold", inclusive=True
        )
        if self.match_max_distance is not None:
            require_positive(self.match_max_distance, "match_max_distance")
        for operator, predictor in self.predictor_by_operator.items():
            require(
                predictor in ("st", "linear"),
                f"predictor for {operator!r} must be 'st' or 'linear', "
                f"got {predictor!r}",
            )
        require(
            self.retrieval_predictor in ("st", "linear"),
            f"retrieval_predictor must be 'st' or 'linear', "
            f"got {self.retrieval_predictor!r}",
        )

    # ------------------------------------------------------------------
    def budget_for(self, n_frames: int) -> int:
        """Absolute sampling budget B for a sequence of ``n_frames``."""
        require_positive(n_frames, "n_frames")
        return min(n_frames, max(2, round(self.budget_fraction * n_frames)))

    def uniform_budget_for(self, budget: int) -> int:
        """Uniform-phase budget ``B_u = beta * B`` (at least 2 endpoints)."""
        return min(budget, max(2, round(self.beta * budget)))

    def with_overrides(self, **overrides) -> MASTConfig:
        """Return a copy with the given fields replaced."""
        return replace(self, **overrides)
