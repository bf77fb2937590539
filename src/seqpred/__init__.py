"""Bayesian mixture prediction over binary sequences.

Measures over infinite bit sequences, weighted mixture predictors,
exact and sampled error accounting, verification of the error bounds
relating the mixture to the informed predictor, dense grid checks of
the pointwise inequalities behind them, a program-enumeration
semimeasure, and a two-dice betting game with an analytic turnaround
bound.
"""

from .measures import (
    BernoulliMeasure,
    BinaryString,
    DeterministicMeasure,
    MarkovMeasure,
    MeasureError,
    NullEventError,
    SequenceMeasure,
    deterministic,
)
from .predictors import (
    ConstantPredictor,
    LaplaceRulePredictor,
    MeasurePredictor,
    Predictor,
    ThresholdPredictor,
    deterministic_wrap,
    exact_expectations,
    monte_carlo_expectations,
    monte_carlo_ladder,
)
from .universal import MixtureMeasure, WeightedClass

__version__ = "0.1.0"

__all__ = [
    "BernoulliMeasure",
    "BinaryString",
    "ConstantPredictor",
    "DeterministicMeasure",
    "LaplaceRulePredictor",
    "MarkovMeasure",
    "MeasureError",
    "MeasurePredictor",
    "MixtureMeasure",
    "NullEventError",
    "Predictor",
    "SequenceMeasure",
    "ThresholdPredictor",
    "WeightedClass",
    "deterministic",
    "deterministic_wrap",
    "exact_expectations",
    "monte_carlo_expectations",
    "monte_carlo_ladder",
    "__version__",
]
