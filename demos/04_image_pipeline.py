"""Exercise the image-classification path end to end: synthesize a 10-class
image-like dataset, write it to IDX files, reload it through the binary
reader, and train a privately screened softmax classifier against a fixed
privacy budget. The screen evaluates candidates on held-out training rows;
the test files are scored once, on the final parameters.

Run: python demos/04_image_pipeline.py   (takes a few seconds)
"""

import tempfile
from pathlib import Path

from sadp import data
from sadp.harness import TrainConfig, train

with tempfile.TemporaryDirectory() as tmp:
    tmp = Path(tmp)
    train_ds = data.synth_blobs(10_000, 10, 784, seed=100)
    test_ds = data.synth_blobs(2_000, 10, 784, seed=101)
    data.save_idx(train_ds, tmp / "train-images", tmp / "train-labels", 28, 28)
    data.save_idx(test_ds, tmp / "test-images", tmp / "test-labels", 28, 28)

    cfg = TrainConfig(
        method="sa_dpsgd",
        model="softmax_regression",
        dataset="idx",
        idx_train_images=str(tmp / "train-images"),
        idx_train_labels=str(tmp / "train-labels"),
        idx_test_images=str(tmp / "test-images"),
        idx_test_labels=str(tmp / "test-labels"),
        lot_size=128,
        sigma=1.23,
        delta=1e-5,
        eps_budget=3.0,
        eta=0.5,
        clip_norm=0.1,
        q0=10.0,
        mu0=10,
        seed=0,
    )
    params, spend, records, (_, test_accuracy) = train(cfg)
    print(f"iterations run:      {records[-1].t}")
    print(f"updates accepted:    {records[-1].tau}")
    print(f"final test accuracy: {test_accuracy:.4f}")
    print(f"privacy spent:       epsilon = {spend.epsilon:.4f} (budget 3.0)")
