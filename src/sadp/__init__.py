"""Differentially private SGD with annealed screening of model updates."""

from .accountant import (
    AccountantState,
    PrivacySpend,
    max_steps_within,
    spend,
)
from .annealer import acceptance_probability, decide
from .data import LabeledDataset, load_csv, load_idx, poisson_sample, split, synth_blobs, synth_linear
from .dp_optimizer import ClipPolicy, clip_batch, clipped_grad_sum, noisy_average, sgd_step
from .harness import IterationRecord, TrainConfig, compare, emit_trace, load_config, train
from .models import Batch, ModelSpec, evaluate, init_params, per_example_losses_grads, to_batch

__version__ = "0.1.0"
