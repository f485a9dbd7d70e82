import csv
import struct

import numpy as np
import pytest

from sadp.data import (
    BadMagicError,
    CountMismatchError,
    LabeledDataset,
    SamplerConfig,
    TruncatedFileError,
    load_csv,
    load_idx,
    poisson_sample,
    save_idx,
    split,
    synth_blobs,
    synth_linear,
)


def write_idx_pair(tmp_path, images, labels, rows=2, cols=2):
    imgs = tmp_path / "images"
    lbls = tmp_path / "labels"
    with open(imgs, "wb") as f:
        f.write(struct.pack(">IIII", 0x803, len(images), rows, cols))
        f.write(bytes(b for img in images for b in img))
    with open(lbls, "wb") as f:
        f.write(struct.pack(">II", 0x801, len(labels)))
        f.write(bytes(labels))
    return imgs, lbls


class TestLoadIdx:
    def test_two_image_fixture(self, tmp_path):
        imgs, lbls = write_idx_pair(tmp_path, [[0, 0, 0, 0], [255, 255, 255, 255]], [7, 1])
        ds = load_idx(imgs, lbls)
        np.testing.assert_array_equal(ds.features, [[0, 0, 0, 0], [1, 1, 1, 1]])
        np.testing.assert_array_equal(ds.labels, [7, 1])

    def test_wrong_magic_rejected(self, tmp_path):
        imgs, lbls = write_idx_pair(tmp_path, [[0, 0, 0, 0]] * 5, [3, 1, 0, 2, 4])
        # labels file carrying the image magic
        bad_lbls = tmp_path / "bad_labels"
        bad_lbls.write_bytes(struct.pack(">II", 0x803, 5) + bytes([3, 1, 0, 2, 4]))
        with pytest.raises(BadMagicError):
            load_idx(imgs, bad_lbls)
        # image file carrying the label magic
        with pytest.raises(BadMagicError):
            load_idx(lbls, lbls)

    def test_truncated_rejected(self, tmp_path):
        imgs, lbls = write_idx_pair(tmp_path, [[0, 0, 0, 0]], [3])
        imgs.write_bytes(imgs.read_bytes()[:-2])
        with pytest.raises(TruncatedFileError):
            load_idx(imgs, lbls)

    def test_count_mismatch_rejected(self, tmp_path):
        imgs, _ = write_idx_pair(tmp_path, [[0, 0, 0, 0]], [3])
        _, lbls = write_idx_pair(tmp_path / "..", [[0, 0, 0, 0], [1, 1, 1, 1]], [3, 4])
        with pytest.raises(CountMismatchError):
            load_idx(imgs, lbls)

    def test_round_trip(self, tmp_path):
        ds = synth_blobs(50, n_classes=4, dim=9, seed=1)
        # quantize to the byte grid first so the round trip is exact
        ds = LabeledDataset(np.round(ds.features * 255) / 255, ds.labels)
        save_idx(ds, tmp_path / "i", tmp_path / "l", rows=3, cols=3)
        back = load_idx(tmp_path / "i", tmp_path / "l")
        np.testing.assert_allclose(back.features, ds.features, atol=1e-15)
        np.testing.assert_array_equal(back.labels, ds.labels)

    @pytest.mark.skipif(
        "not __import__('pathlib').Path('data/mnist/train-images-idx3-ubyte').exists()",
        reason="real MNIST files not present",
    )
    def test_real_mnist_shape(self):
        ds = load_idx(
            "data/mnist/train-images-idx3-ubyte", "data/mnist/train-labels-idx1-ubyte"
        )
        assert ds.n == 60000
        assert ds.dim == 784
        assert ds.features.min() == 0.0 and ds.features.max() == 1.0


class TestPoissonSample:
    def test_full_inclusion(self):
        idx = poisson_sample(100, SamplerConfig(q=1.0), np.random.default_rng(0))
        np.testing.assert_array_equal(idx, np.arange(100))

    def test_sorted_and_in_range(self):
        idx = poisson_sample(1000, SamplerConfig(q=0.3), np.random.default_rng(1))
        assert np.all(np.diff(idx) > 0)
        assert idx.min() >= 0 and idx.max() < 1000

    def test_tiny_rate_expected_size(self):
        rng = np.random.default_rng(2)
        sizes = [len(poisson_sample(10**6, SamplerConfig(q=1e-6), rng)) for _ in range(200)]
        assert 0.5 <= np.mean(sizes) <= 2.0

    def test_mean_batch_size(self):
        n, b, draws = 60000, 512, 10_000
        rng = np.random.default_rng(3)
        q = b / n
        sizes = [len(poisson_sample(n, SamplerConfig(q=q), rng)) for _ in range(draws)]
        tol = 3 * np.sqrt(n * q * (1 - q) / draws)
        assert abs(np.mean(sizes) - b) <= tol

    def test_pairwise_inclusion_independence(self):
        n, draws = 20, 4000
        rng = np.random.default_rng(4)
        hits = np.zeros((draws, n))
        for i in range(draws):
            hits[i, poisson_sample(n, SamplerConfig(q=0.5), rng)] = 1
        corr = np.corrcoef(hits, rowvar=False)
        off_diag = corr[~np.eye(n, dtype=bool)]
        assert np.max(np.abs(off_diag)) < 4 / np.sqrt(draws)

    @pytest.mark.parametrize("seed", [0, 1, 7, 2024])
    def test_mask_matches_uniform_threshold(self, seed):
        # the stream must equal uniform(size=n) < q draw for draw
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        for n, q in ((0, 0.5), (1, 0.5), (17, 0.3), (1000, 0.05), (16000, 0.004)):
            idx = poisson_sample(n, SamplerConfig(q=q), rng)
            np.testing.assert_array_equal(idx, np.flatnonzero(ref.uniform(size=n) < q))


class TestSynthLinear:
    def test_noiseless_targets_exact(self):
        ds = synth_linear(50, np.array([2.0, -3.0]), noise_std=0.0, seed=0)
        np.testing.assert_array_equal(ds.labels, ds.features @ [2.0, -3.0])

    def test_seed_determinism(self):
        a = synth_linear(50, np.array([1.0]), 0.1, seed=9)
        b = synth_linear(50, np.array([1.0]), 0.1, seed=9)
        np.testing.assert_array_equal(a.features, b.features)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_least_squares_recovers_weights(self):
        ds = synth_linear(10_000, np.array([2.0, -3.0]), noise_std=0.1, seed=11)
        w, *_ = np.linalg.lstsq(ds.features, ds.labels, rcond=None)
        np.testing.assert_allclose(w, [2.0, -3.0], atol=0.02)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            synth_linear(0, np.array([1.0]), 0.1, seed=0)
        with pytest.raises(ValueError):
            synth_linear(10, np.array([1.0]), -0.1, seed=0)


class TestSplit:
    def test_sizes_and_disjointness(self):
        ds = synth_blobs(101, n_classes=3, dim=4, seed=0)
        train, ev = split(ds, eval_fraction=0.25, seed=0)
        assert ev.n == 25
        assert train.n == 76
        # disjoint union: every original row appears exactly once
        combined = np.vstack([train.features, ev.features])
        assert {tuple(r) for r in combined} == {tuple(r) for r in ds.features}

    def test_seed_determinism(self):
        ds = synth_blobs(40, n_classes=2, dim=3, seed=1)
        a_train, a_eval = split(ds, 0.5, seed=5)
        b_train, b_eval = split(ds, 0.5, seed=5)
        np.testing.assert_array_equal(a_train.features, b_train.features)
        np.testing.assert_array_equal(a_eval.labels, b_eval.labels)

    def test_rejects_bad_fraction(self):
        ds = synth_blobs(10, 2, 2, seed=0)
        for frac in (0.0, 1.0, -0.5):
            with pytest.raises(ValueError):
                split(ds, frac, seed=0)


class TestLoadCsv:
    def test_with_header(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("a,b,label\n1.0,2.0,0\n3.5,4.0,1\n")
        ds = load_csv(p)
        np.testing.assert_array_equal(ds.features, [[1.0, 2.0], [3.5, 4.0]])
        np.testing.assert_array_equal(ds.labels, [0, 1])

    def test_without_header(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("1.0,2\n2.0,0\n")
        ds = load_csv(p)
        assert ds.labels.dtype == np.int64
        np.testing.assert_array_equal(ds.features, [[1.0], [2.0]])
        np.testing.assert_array_equal(ds.labels, [2, 0])

    @pytest.mark.parametrize("header", [False, True])
    @pytest.mark.parametrize("newline", ["\n", "\r\n"])
    @pytest.mark.parametrize("blank_lines", [False, True])
    @pytest.mark.parametrize("padded", [False, True])
    def test_matches_python_float_parse(self, tmp_path, header, newline, blank_lines, padded):
        rng = np.random.default_rng(0)
        values = rng.normal(0.0, 10.0 ** rng.integers(-12, 12, size=(60, 4)))
        formats = (repr, "{:.6e}".format, "{:.3f}".format, "{:g}".format)
        pad = " " if padded else ""
        lines = ["x1, x2 ,x3,x4,label"] if header else []
        for i, row in enumerate(values):
            cells = [formats[(i + j) % 4](float(v)) for j, v in enumerate(row)] + [str(i % 3)]
            lines.append(",".join(f"{pad}{c}{pad}" for c in cells))
            if blank_lines and i % 7 == 0:
                lines.append("")
        p = tmp_path / "t.csv"
        p.write_bytes(newline.join(lines).encode() + newline.encode())

        # oracle: csv.reader, then float() on every cell
        with open(p, newline="") as f:
            records = [r for r in csv.reader(f) if r][int(header):]
        table = np.asarray([[float(v) for v in r] for r in records], dtype=np.float64)

        ds = load_csv(p)
        assert ds.features.tobytes() == table[:, :-1].tobytes()
        np.testing.assert_array_equal(ds.labels, table[:, -1].astype(np.int64))
        assert ds.labels.dtype == np.int64

    def test_empty_rejected(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("a,b\n")
        with pytest.raises(ValueError):
            load_csv(p)


def test_dataset_invariants():
    with pytest.raises(CountMismatchError):
        LabeledDataset(np.zeros((3, 2)), np.zeros(2))
    with pytest.raises(ValueError):
        LabeledDataset(np.array([[np.inf]]), np.zeros(1))
