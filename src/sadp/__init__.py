"""Differentially private SGD with annealed screening of model updates."""

from . import accountant, annealer, data, dp_optimizer, errors, harness, models

__version__ = "0.1.0"
