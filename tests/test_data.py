import csv
import struct
import tracemalloc

import numpy as np
import pytest

from sadp.data import (
    DataFileError,
    LabeledDataset,
    load_csv,
    load_idx,
    poisson_sample,
    read_idx,
    save_idx,
    split,
    synth_blobs,
    synth_linear,
    widen,
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
        with pytest.raises(DataFileError, match=r"bad_labels: magic 0x00000803$"):
            load_idx(imgs, bad_lbls)
        # image file carrying the label magic
        with pytest.raises(DataFileError, match=r": magic 0x00000801$"):
            load_idx(lbls, lbls)

    def test_truncated_rejected(self, tmp_path):
        imgs, lbls = write_idx_pair(tmp_path, [[0, 0, 0, 0]], [3])
        imgs.write_bytes(imgs.read_bytes()[:-2])
        with pytest.raises(DataFileError, match=r": expected 2 more bytes$"):
            load_idx(imgs, lbls)

    def test_count_mismatch_rejected(self, tmp_path):
        imgs, _ = write_idx_pair(tmp_path, [[0, 0, 0, 0]], [3])
        _, lbls = write_idx_pair(tmp_path / "..", [[0, 0, 0, 0], [1, 1, 1, 1]], [3, 4])
        with pytest.raises(DataFileError, match=r"^1 feature rows vs 2 labels$"):
            load_idx(imgs, lbls)

    def test_round_trip(self, tmp_path):
        ds = synth_blobs(50, n_classes=4, dim=9, seed=1)
        # quantize to the byte grid first so the round trip is exact
        ds = LabeledDataset(np.round(ds.features * 255) / 255, ds.labels)
        save_idx(ds, tmp_path / "i", tmp_path / "l", rows=3, cols=3)
        back = load_idx(tmp_path / "i", tmp_path / "l")
        np.testing.assert_allclose(back.features, ds.features, atol=1e-15)
        np.testing.assert_array_equal(back.labels, ds.labels)

    def test_payload_one_byte_short_rejected(self, tmp_path):
        imgs, lbls = write_idx_pair(tmp_path, [[1, 2, 3, 4], [5, 6, 7, 8]], [3, 1])
        imgs.write_bytes(imgs.read_bytes()[:-1])
        with pytest.raises(DataFileError, match=r": expected 1 more bytes$"):
            read_idx(imgs, lbls)

    def test_trailing_bytes_ignored(self, tmp_path):
        imgs, lbls = write_idx_pair(tmp_path, [[1, 2, 3, 4], [5, 6, 7, 8]], [3, 1])
        imgs.write_bytes(imgs.read_bytes() + b"trailing")
        ds = read_idx(imgs, lbls)
        np.testing.assert_array_equal(ds.features, [[1, 2, 3, 4], [5, 6, 7, 8]])
        np.testing.assert_array_equal(ds.labels, [3, 1])

    def test_zero_image_file_reads_as_no_rows(self, tmp_path):
        imgs, lbls = write_idx_pair(tmp_path, [], [])
        ds = read_idx(imgs, lbls)
        assert ds.features.shape == (0, 4) and ds.labels.shape == (0,)

    def test_read_idx_features_are_read_only(self, tmp_path):
        imgs, lbls = write_idx_pair(tmp_path, [[1, 2, 3, 4]], [3])
        ds = read_idx(imgs, lbls)
        assert ds.features.dtype == np.uint8 and not ds.features.flags.writeable
        with pytest.raises(ValueError):
            ds.features[0, 0] = 9
        assert imgs.read_bytes()[16:] == bytes([1, 2, 3, 4])

    def test_load_idx_features_are_writable_floats(self, tmp_path):
        imgs, lbls = write_idx_pair(tmp_path, [[0, 51, 102, 255]], [3])
        ds = load_idx(imgs, lbls)
        assert ds.features.dtype == np.float64
        assert ds.features.flags.writeable and ds.features.flags.c_contiguous
        ds.features[0, 0] = 0.5
        np.testing.assert_array_equal(ds.features, [[0.5, 0.2, 0.4, 1.0]])

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


# (n, q) in each of numpy's two subset regimes: Floyd's algorithm for
# n > 10,000 and k <= n/50, a tail shuffle of arange(n) otherwise
FLOYD, TAIL_SHUFFLE = (20_000, 0.01), (50, 0.2)


class TestPoissonSample:
    @pytest.mark.parametrize("n", [1, 100, 20_000])
    def test_full_inclusion(self, n):
        idx = poisson_sample(n, 1.0, np.random.default_rng(0))
        assert idx.dtype == np.intp
        np.testing.assert_array_equal(idx, np.arange(n))

    def test_empty_population_gives_an_empty_index(self):
        idx = poisson_sample(0, 0.5, np.random.default_rng(0))
        assert idx.dtype == np.intp and idx.shape == (0,)

    @pytest.mark.parametrize("n, q", [FLOYD, TAIL_SHUFFLE, (1000, 0.3)])
    def test_sorted_and_in_range(self, n, q):
        rng = np.random.default_rng(1)
        for _ in range(50):
            idx = poisson_sample(n, q, rng)
            assert idx.dtype == np.intp
            assert np.all(np.diff(idx) > 0)
            assert len(idx) == 0 or (idx[0] >= 0 and idx[-1] < n)

    def test_tiny_rate_expected_size(self):
        rng = np.random.default_rng(2)
        sizes = [len(poisson_sample(10**6, 1e-6, rng)) for _ in range(200)]
        assert 0.5 <= np.mean(sizes) <= 2.0

    def test_mean_batch_size(self):
        n, b, draws = 60000, 512, 10_000
        rng = np.random.default_rng(3)
        q = b / n
        sizes = [len(poisson_sample(n, q, rng)) for _ in range(draws)]
        tol = 3 * np.sqrt(n * q * (1 - q) / draws)
        assert abs(np.mean(sizes) - b) <= tol

    @pytest.mark.parametrize("n, q", [FLOYD, TAIL_SHUFFLE, (12_800, 0.005)])
    def test_lot_sizes_are_binomial(self, n, q):
        # mean within 5 standard errors of nq; the sample variance within 5
        # of its standard errors, sqrt(2 / draws) relative, of nq(1-q)
        draws = 4000
        rng = np.random.default_rng(5)
        sizes = np.array([len(poisson_sample(n, q, rng)) for _ in range(draws)])
        var = n * q * (1 - q)
        assert abs(sizes.mean() - n * q) <= 5 * np.sqrt(var / draws)
        assert abs(sizes.var(ddof=1) / var - 1) <= 5 * np.sqrt(2 / draws)

    @pytest.mark.parametrize("n, q", [FLOYD, TAIL_SHUFFLE])
    def test_each_row_is_included_at_rate_q(self, n, q):
        # rows counted in 50 equal blocks; within a lot rows join
        # independently, so a block's count has variance draws * block * q(1-q)
        draws, blocks = 1000, 50
        rng = np.random.default_rng(6)
        hits = np.zeros(n)
        for _ in range(draws):
            hits[poisson_sample(n, q, rng)] += 1
        block = n // blocks
        per_block = hits.reshape(blocks, block).sum(axis=1)
        sd = np.sqrt(draws * block * q * (1 - q))
        assert np.max(np.abs(per_block - draws * block * q)) <= 5 * sd

    def test_pairwise_inclusion_independence(self):
        n, draws = 20, 4000
        rng = np.random.default_rng(4)
        hits = np.zeros((draws, n))
        for i in range(draws):
            hits[i, poisson_sample(n, 0.5, rng)] = 1
        corr = np.corrcoef(hits, rowvar=False)
        off_diag = corr[~np.eye(n, dtype=bool)]
        assert np.max(np.abs(off_diag)) < 4 / np.sqrt(draws)

    def test_a_small_lot_allocates_for_the_lot_not_the_population(self):
        # numpy reports its buffers to tracemalloc; n uniforms and their
        # mask would take about 90 MB at n = 10**7
        rng = np.random.default_rng(8)
        tracemalloc.start()
        try:
            idx = poisson_sample(10**7, 1e-6, rng)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(idx) < 100
        assert peak < 2**20


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
            synth_linear(10, np.array([1.0]), -0.1, seed=0)


def test_synth_blobs_seeds_share_one_task():
    # the seed draws labels and noise; the class centers are fixed, so two
    # seeds' per-class feature means agree
    a, b = (synth_blobs(4000, n_classes=4, dim=16, seed=seed) for seed in (1, 2))
    for c in range(4):
        gap = a.features[a.labels == c].mean(axis=0) - b.features[b.labels == c].mean(axis=0)
        assert np.abs(gap).max() < 0.05
    assert not np.array_equal(a.labels, b.labels)


class TestSplit:
    def test_sizes_and_disjointness(self):
        train, ev = split(101, eval_fraction=0.25, seed=0)
        assert len(ev) == 25
        assert len(train) == 76
        # disjoint union: every row index appears exactly once
        np.testing.assert_array_equal(np.sort(np.concatenate([train, ev])), np.arange(101))

    def test_seed_determinism(self):
        a_train, a_eval = split(40, 0.5, seed=5)
        b_train, b_eval = split(40, 0.5, seed=5)
        np.testing.assert_array_equal(a_train, b_train)
        np.testing.assert_array_equal(a_eval, b_eval)


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
    with pytest.raises(DataFileError, match=r"^3 feature rows vs 2 labels$"):
        LabeledDataset(np.zeros((3, 2)), np.zeros(2))
    with pytest.raises(ValueError):
        LabeledDataset(np.array([[np.inf]]), np.zeros(1))
    pixels = np.array([[0, 255], [7, 128]], dtype=np.uint8)
    assert LabeledDataset(pixels, np.zeros(2)).features is pixels


def test_widen_scales_bytes_and_passes_floats_through():
    pixels = np.arange(256, dtype=np.uint8).reshape(16, 16)[::2]
    out = np.empty(pixels.shape)
    wide = widen(pixels, out)
    assert wide is out
    assert wide.dtype == np.float64 and wide.flags.c_contiguous
    np.testing.assert_array_equal(wide, pixels / 255.0)
    # float features are written into the buffer unscaled
    floats = np.linspace(0.0, 1.0, 12).reshape(3, 4)
    assert widen(floats, np.empty(floats.shape)).tobytes() == floats.tobytes()
