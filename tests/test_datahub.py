"""Dataset generation, IDX parsing, partitioning, and split contracts."""

import os
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import counted_class_splits, peak_traced_bytes
from svote import datahub, learner
from svote.errors import ConfigError, FormatError
from svote.kernels import DTYPE


# ------------------------------------------------------------ synthetic data


class TestGenSynthetic:
    def test_counts(self):
        data = datahub.gen_synthetic(4, 8, 50, 0.5, seed=1)
        assert len(data) == 200
        assert np.all(np.bincount(data.labels) == 50)

    def test_deterministic(self):
        a = datahub.gen_synthetic(3, 5, 20, 0.3, seed=9)
        b = datahub.gen_synthetic(3, 5, 20, 0.3, seed=9)
        np.testing.assert_array_equal(a.features, b.features)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_low_spread_is_nearly_separable(self):
        # oracle: a centrally trained softmax model must fit spread=0.01 data
        data = datahub.gen_synthetic(4, 8, 50, 0.01, seed=11)
        spec = learner.ModelSpec(learner.SOFTMAX, 8, 4)
        hp = learner.HyperParams(lr=0.5, local_epochs=1, batch_size=32)
        w = learner.init_params(spec, 0)
        rng = np.random.default_rng(0)
        for _ in range(60):
            (w,), _ = learner.local_train(w[None], data.features, data.labels, spec, hp, [rng], [(0, len(data))])
        acc = (learner.predict_batch(w, data.features, spec) == data.labels).mean()
        assert acc >= 0.99

    @pytest.mark.parametrize("shape", [(6, 16, 200), (10, 784, 30), (2, 1, 1), (3, 5, 7)])
    def test_same_bytes_as_the_gathered_means_plus_noise(self, shape):
        # the float64 draws are summed in float64 and rounded once to the
        # data-plane dtype: the same bytes as the sum cast afterwards
        num_classes, input_dim, per_class = shape
        rng = np.random.default_rng(5)
        means = rng.normal(size=(num_classes, input_dim))
        means /= np.linalg.norm(means, axis=1, keepdims=True)
        labels = np.repeat(np.arange(num_classes), per_class)
        noise = rng.normal(scale=0.7, size=(labels.size, input_dim))
        data = datahub.gen_synthetic(num_classes, input_dim, per_class, 0.7, seed=5)
        assert data.features.dtype == DTYPE
        assert data.features.tobytes() == (means[labels] + noise).astype(DTYPE).tobytes()
        np.testing.assert_array_equal(data.labels, labels)

    def test_holds_no_float64_copy_of_the_dataset(self):
        # one class's float64 block beside the output, not a float64 matrix of all rows
        shape = (10, 784, 300)
        out_bytes = shape[0] * shape[1] * shape[2] * DTYPE.itemsize
        peak = peak_traced_bytes(lambda: datahub.gen_synthetic(*shape, 0.3, seed=1))
        assert peak < 1.5 * out_bytes

    def test_validation(self):
        with pytest.raises(ConfigError):
            datahub.gen_synthetic(0, 8, 50, 0.5, seed=1)
        with pytest.raises(ConfigError):
            datahub.gen_synthetic(4, 8, 50, 0.0, seed=1)

    @pytest.mark.parametrize("spread", [float("nan"), float("inf")])
    def test_non_finite_spread_rejected(self, spread):
        # the config parser rejects these; the library entry point did not,
        # and returned non-finite features
        with pytest.raises(ConfigError, match="spread"):
            datahub.gen_synthetic(4, 8, 50, spread, seed=1)


# ------------------------------------------------------------------ IDX files


def write_idx_pair(tmp_path, images, labels, image_magic=datahub.IDX_IMAGES_MAGIC,
                   label_magic=datahub.IDX_LABELS_MAGIC, truncate_images=0, label_count=None):
    n, rows, cols = images.shape
    img_path = os.path.join(tmp_path, "images.idx")
    lab_path = os.path.join(tmp_path, "labels.idx")
    body = struct.pack(">IIII", image_magic, n, rows, cols) + images.astype(np.uint8).tobytes()
    if truncate_images:
        body = body[:-truncate_images]
    with open(img_path, "wb") as f:
        f.write(body)
    with open(lab_path, "wb") as f:
        f.write(struct.pack(">II", label_magic, label_count if label_count is not None else n))
        f.write(labels.astype(np.uint8).tobytes())
    return img_path, lab_path


@pytest.fixture
def mnist_like(tmp_path):
    rng = np.random.default_rng(0)
    images = rng.integers(0, 256, size=(120, 28, 28), dtype=np.uint8)
    labels = np.arange(120, dtype=np.uint8) % 10
    return write_idx_pair(str(tmp_path), images, labels)


class TestLoadIdx:
    def test_mnist_shaped_files(self, mnist_like):
        # same contract as the official test files: 28x28 grayscale, labels 0..9
        img, lab = mnist_like
        data = datahub.load_idx(img, lab, limit=100)
        assert len(data) == 100
        assert data.input_dim == 784
        assert data.labels.min() >= 0 and data.labels.max() <= 9
        assert data.features.min() >= 0.0 and data.features.max() <= 1.0

    def test_limit_clamps(self, mnist_like):
        img, lab = mnist_like
        assert len(datahub.load_idx(img, lab, limit=10_000)) == 120

    def test_row_major_flatten_and_scaling(self, tmp_path):
        images = np.zeros((1, 2, 3), dtype=np.uint8)
        images[0, 1, 0] = 255
        img, lab = write_idx_pair(str(tmp_path), images, np.array([7], dtype=np.uint8))
        data = datahub.load_idx(img, lab, limit=1)
        np.testing.assert_allclose(data.features[0], [0, 0, 0, 1.0, 0, 0])
        assert data.labels[0] == 7

    def test_pixels_scaled_in_the_data_plane_dtype(self, tmp_path):
        # every byte value, rounded once: the same as float64 scaling cast afterwards
        images = np.arange(256, dtype=np.uint8).reshape(1, 16, 16)
        img, lab = write_idx_pair(str(tmp_path), images, np.array([0], dtype=np.uint8))
        data = datahub.load_idx(img, lab, limit=1)
        assert data.features.dtype == DTYPE
        assert data.features.tobytes() == (images.reshape(1, -1) / 255.0).astype(DTYPE).tobytes()

    def test_num_classes_from_the_full_label_file(self, tmp_path):
        # the kept prefix holds classes 0..2 only; the file also holds class 4
        images = np.zeros((6, 2, 2), dtype=np.uint8)
        labels = np.array([0, 1, 2, 1, 4, 3], dtype=np.uint8)
        img, lab = write_idx_pair(str(tmp_path), images, labels)
        data = datahub.load_idx(img, lab, limit=4)
        np.testing.assert_array_equal(data.labels, [0, 1, 2, 1])
        assert data.num_classes == 5

    def test_bad_label_magic(self, tmp_path):
        images = np.zeros((2, 2, 2), dtype=np.uint8)
        img, lab = write_idx_pair(str(tmp_path), images, np.zeros(2, dtype=np.uint8), label_magic=0xDEAD)
        with pytest.raises(FormatError, match="labels.idx"):
            datahub.load_idx(img, lab, limit=2)

    def test_bad_image_magic(self, tmp_path):
        images = np.zeros((2, 2, 2), dtype=np.uint8)
        img, lab = write_idx_pair(str(tmp_path), images, np.zeros(2, dtype=np.uint8), image_magic=1234)
        with pytest.raises(FormatError, match="images.idx"):
            datahub.load_idx(img, lab, limit=2)

    def test_truncated_images(self, tmp_path):
        images = np.zeros((4, 3, 3), dtype=np.uint8)
        img, lab = write_idx_pair(str(tmp_path), images, np.zeros(4, dtype=np.uint8), truncate_images=5)
        with pytest.raises(FormatError, match="truncated"):
            datahub.load_idx(img, lab, limit=4)

    @pytest.mark.parametrize("count, rows, cols", [(0xFFFFFFFF,) * 3, (60_000, 65_535, 65_535)])
    def test_header_claiming_more_than_the_file_holds(self, tmp_path, count, rows, cols):
        # read as given, the claimed sizes overflow (0xFFFFFFFF) or exhaust memory
        img, lab = write_idx_pair(str(tmp_path), np.zeros((4, 2, 2)), np.zeros(4))
        with open(img, "r+b") as f:
            f.seek(4)
            f.write(struct.pack(">III", count, rows, cols))
        wanted = count * rows * cols
        with pytest.raises(FormatError, match=rf"images.idx: truncated file \(wanted {wanted} bytes, got 16\)"):
            datahub.load_idx(img, lab, limit=1)

    def test_count_mismatch(self, tmp_path):
        images = np.zeros((4, 2, 2), dtype=np.uint8)
        img, lab = write_idx_pair(str(tmp_path), images, np.zeros(6, dtype=np.uint8), label_count=6)
        with pytest.raises(FormatError, match="labels"):
            datahub.load_idx(img, lab, limit=4)

    def test_missing_file_named(self):
        with pytest.raises(FormatError, match="/does/not/exist"):
            datahub.load_idx("/does/not/exist", "/does/not/exist2", limit=1)

    @pytest.mark.skipif("MNIST_DIR" not in os.environ, reason="set MNIST_DIR to test official files")
    def test_official_mnist_files(self):
        base = os.environ["MNIST_DIR"]
        data = datahub.load_idx(
            os.path.join(base, "t10k-images-idx3-ubyte"),
            os.path.join(base, "t10k-labels-idx1-ubyte"),
            limit=100,
        )
        assert len(data) == 100
        assert data.input_dim == 784
        assert data.labels.min() >= 0 and data.labels.max() <= 9


# ---------------------------------------------------------------- partitions


def _balanced(num_classes=6, per_class=200):
    return datahub.gen_synthetic(num_classes, 4, per_class, 0.5, seed=123)


def _mean_max_share(alpha, seeds=20):
    vals = []
    data = _balanced()
    for seed in range(seeds):
        plan = datahub.dirichlet_partition(data, 10, alpha, seed=seed, min_shard=2)
        shares = []
        for c in range(10):
            hist = np.bincount(data.labels[plan[c]], minlength=data.num_classes)
            shares.append(hist.max() / hist.sum())
        vals.append(np.mean(shares))
    return float(np.mean(vals))


class TestDirichletPartition:
    def test_exact_disjoint_cover(self):
        data = _balanced()
        for alpha in (0.1, 0.5, 1e6):
            plan = datahub.dirichlet_partition(data, 7, alpha, seed=3, min_shard=2)
            merged = np.concatenate([plan[c] for c in range(7)])
            assert len(merged) == len(data)
            assert len(np.unique(merged)) == len(data)

    def test_min_shard_respected(self):
        data = _balanced()
        plan = datahub.dirichlet_partition(data, 10, 0.1, seed=5, min_shard=40)
        assert min(len(shard) for shard in plan) >= 40

    def test_too_small_dataset_rejected(self):
        data = datahub.gen_synthetic(2, 4, 10, 0.5, seed=1)  # 20 samples
        with pytest.raises(ConfigError, match="cannot give"):
            datahub.dirichlet_partition(data, 5, 0.5, seed=1, min_shard=10)

    def test_huge_alpha_is_uniform_within_10pct(self):
        data = datahub.gen_synthetic(4, 4, 250, 0.5, seed=7)
        for seed in range(20):
            plan = datahub.dirichlet_partition(data, 5, 1e6, seed=seed, min_shard=2)
            for c in range(5):
                hist = np.bincount(data.labels[plan[c]], minlength=4)
                np.testing.assert_allclose(hist, 250 / 5, rtol=0.10)

    def test_small_alpha_is_skewed(self):
        assert _mean_max_share(0.1) >= 0.5

    def test_skew_monotonicity_over_20_seeds(self):
        m_01, m_05, m_uni = _mean_max_share(0.1), _mean_max_share(0.5), _mean_max_share(1e6)
        assert m_01 > m_05 > m_uni

    def test_deterministic_and_seed_sensitive(self):
        data = _balanced()
        a = datahub.dirichlet_partition(data, 6, 0.5, seed=11, min_shard=2)
        b = datahub.dirichlet_partition(data, 6, 0.5, seed=11, min_shard=2)
        c = datahub.dirichlet_partition(data, 6, 0.5, seed=12, min_shard=2)
        for cid in range(6):
            np.testing.assert_array_equal(a[cid], b[cid])
        assert any(not np.array_equal(a[cid], c[cid]) for cid in range(6))

    def test_validation(self):
        data = _balanced()
        with pytest.raises(ConfigError):
            datahub.dirichlet_partition(data, 1, 0.5, seed=1)
        with pytest.raises(ConfigError):
            datahub.dirichlet_partition(data, 5, 0.0, seed=1)

    @pytest.mark.parametrize("alpha", [float("nan"), float("inf")])
    def test_non_finite_alpha_rejected(self, alpha):
        # the config parser rejects these; the library entry point did not,
        # and the floor repair looped forever on the garbage counts they drew
        with pytest.raises(ConfigError, match="alpha"):
            datahub.dirichlet_partition(_balanced(), 5, alpha, seed=1)


def _whole_plan_redraws(data, num_clients, alpha, seed, min_shard, max_attempts):
    """Reference partitioner: redraw whole plans until one meets the floor.

    Every attempt slices its per-client buckets; the largest-remainder tie
    break is a lexsort on an index key. With max_attempts=1 it is the first
    draw the partitioner makes, and with min_shard=0 that draw as it stands.
    """
    rng = np.random.default_rng(seed)
    class_indices = [np.flatnonzero(data.labels == c) for c in range(data.num_classes)]
    for _ in range(max_attempts):
        buckets = [[] for _ in range(num_clients)]
        for idx in class_indices:
            if idx.size == 0:
                continue
            shuffled = rng.permutation(idx)
            proportions = rng.dirichlet(np.full(num_clients, alpha))
            raw = proportions * idx.size
            counts = np.floor(raw).astype(np.int64)
            short = idx.size - int(counts.sum())
            if short > 0:
                order = np.lexsort((np.arange(num_clients), -(raw - counts)))
                counts[order[:short]] += 1
            offset = 0
            for client, k in enumerate(counts):
                if k:
                    buckets[client].append(shuffled[offset : offset + k])
                offset += k
        sizes = [sum(len(part) for part in parts) for parts in buckets]
        if min(sizes) >= min_shard:
            return {
                client: np.sort(np.concatenate(parts)) if parts else np.empty(0, dtype=np.int64)
                for client, parts in enumerate(buckets)
            }
    raise ConfigError(f"no plan meets min_shard={min_shard} in {max_attempts} draws")


@st.composite
def _partition_case(draw):
    num_classes = draw(st.integers(2, 5))
    per_class = draw(st.lists(st.integers(1, 30), min_size=num_classes, max_size=num_classes))
    empty = draw(st.integers(0, num_classes))  # == num_classes: no empty class
    if empty < num_classes:
        per_class[empty] = 0
    num_clients = draw(st.integers(2, 6))
    total = sum(per_class)
    if total < num_clients:
        per_class[-1] += num_clients - total
        total = num_clients
    # drawn as the slack below total / num_clients, so the floor sits near
    # the top and most first draws need repair
    slack = draw(st.integers(0, total // num_clients - 1))
    return {
        "per_class": per_class,
        "num_clients": num_clients,
        "alpha": draw(st.sampled_from([0.05, 0.3, 1.0, 5.0])),
        "min_shard": total // num_clients - slack,
        "seed": draw(st.integers(0, 2**32 - 1)),
    }


def _labels_only(labels, num_classes):
    return datahub.LabeledDataset(np.zeros((labels.size, 1)), labels, num_classes)


class TestPartitionOneDraw:
    @given(_partition_case())
    @settings(max_examples=150, deadline=None)
    def test_exact_cover_above_the_floor_from_one_draw(self, case):
        num_classes = len(case["per_class"])
        labels = np.repeat(np.arange(num_classes), case["per_class"])
        labels = np.random.default_rng(case["seed"]).permutation(labels)
        data = _labels_only(labels, num_classes)
        n, min_shard = case["num_clients"], case["min_shard"]
        args = (data, n, case["alpha"], case["seed"])
        with counted_class_splits() as splits:
            plan = datahub.dirichlet_partition(*args, min_shard)
        assert len(splits) == np.count_nonzero(case["per_class"])  # one split per non-empty class
        assert len(plan) == n
        for shard in plan:
            assert shard.dtype == np.int64 and shard.size >= min_shard
            assert np.all(np.diff(shard) > 0)
        np.testing.assert_array_equal(np.sort(np.concatenate(plan)), np.arange(len(data)))
        again = datahub.dirichlet_partition(*args, min_shard)
        for shard, same in zip(plan, again):
            np.testing.assert_array_equal(shard, same)
        # the repair tops clients up to the floor, takes only what lies above
        # it, and moves no more samples than the clients lack
        first = _whole_plan_redraws(*args, 0, 1).values()
        drawn = np.array([np.bincount(labels[s], minlength=num_classes) for s in first])
        final = np.array([np.bincount(labels[s], minlength=num_classes) for s in plan])
        for size, shard in zip(drawn.sum(axis=1), plan):
            assert shard.size == min_shard if size < min_shard else min_shard <= shard.size <= size
        lacking = np.maximum(min_shard - drawn.sum(axis=1), 0).sum()
        assert np.maximum(drawn - final, 0).sum() == lacking
        # it fails exactly when the data cannot meet the floor
        with pytest.raises(ConfigError, match="cannot give"):
            datahub.dirichlet_partition(*args, len(data) // n + 1)
        # a first draw that meets the floor is kept bit for bit
        try:
            expected = _whole_plan_redraws(*args, min_shard, 1)
        except ConfigError:
            return  # the first draw needed repair
        for client, shard in expected.items():
            assert plan[client].tobytes() == shard.tobytes()

    def test_repair_moves_the_largest_clients_largest_class_to_the_smallest_client(self):
        counts = np.array([[0, 9, 4], [1, 2, 4]])
        # client 0 (1 sample) takes 3 of client 1's class 0: client 1 keeps 8 >= 4
        np.testing.assert_array_equal(datahub._repair_to_floor(counts, 4), [[3, 6, 4], [1, 2, 4]])
        # a move stops at the donor's spare above the floor; the next donor goes on
        np.testing.assert_array_equal(
            datahub._repair_to_floor(np.array([[0, 7, 1], [0, 1, 8]]), 5), [[1, 6, 1], [4, 1, 4]]
        )
        # a move stops at the donor's count in its largest class (lowest class on ties)
        np.testing.assert_array_equal(
            datahub._repair_to_floor(np.array([[0, 3], [0, 3], [0, 3]]), 4), [[3, 0], [1, 2], [0, 3]]
        )

    def test_twenty_samples_at_alpha_001_give_four_shards_of_five(self):
        # at alpha 0.01 each class lands almost whole on one client; the
        # redraw partitioner failed this case after 10,000 draws
        data = _labels_only(np.repeat(np.arange(2), 10), 2)
        with counted_class_splits() as splits:
            plan = datahub.dirichlet_partition(data, 4, 0.01, seed=2, min_shard=5)
        assert [shard.size for shard in plan] == [5, 5, 5, 5]
        np.testing.assert_array_equal(np.sort(np.concatenate(plan)), np.arange(20))
        assert len(splits) == 2

    def test_hundred_clients_on_twelve_thousand_samples(self):
        # 6,400 of 12,000 samples meet the floor; the redraw partitioner
        # failed this case after 10,000 draws
        data = _labels_only(np.repeat(np.arange(6), 2000), 6)
        plan = datahub.dirichlet_partition(data, 100, 0.5, seed=1, min_shard=64)
        assert min(shard.size for shard in plan) == 64
        np.testing.assert_array_equal(np.sort(np.concatenate(plan)), np.arange(12_000))


# -------------------------------------------------------------------- splits


def _rows(data, indices):
    return datahub.LabeledDataset(data.features[indices], data.labels[indices], data.num_classes)


def _split_shard(shard, test_fraction, seed):
    """The split of one shard already gathered, client by client: the oracle for the one-pass split."""
    rng = np.random.default_rng(seed)
    train_parts, test_parts = [], []
    for c in range(shard.num_classes):
        idx = np.flatnonzero(shard.labels == c)
        if idx.size == 0:
            continue
        if idx.size == 1:
            train_parts.append(idx)
            continue
        shuffled = rng.permutation(idx)
        k = int(idx.size * test_fraction + 1e-9)
        test_parts.append(shuffled[:k])
        train_parts.append(shuffled[k:])
    test_idx = np.concatenate(test_parts) if test_parts else np.empty(0, dtype=np.int64)
    train_idx = np.concatenate(train_parts)
    if test_idx.size == 0:
        counts = np.bincount(shard.labels, minlength=shard.num_classes)
        donor = np.flatnonzero(shard.labels == int(np.argmax(counts)))
        pick = rng.permutation(donor)[:1]
        test_idx = pick
        train_idx = np.setdiff1d(train_idx, pick)
    return _rows(shard, np.sort(train_idx)), _rows(shard, np.sort(test_idx))


def _split_one(data, indices, test_fraction, seed):
    """The (train, test) pair of a plan of one client."""
    [pair] = datahub.split_train_test(data, [indices], test_fraction, [seed])
    return pair


def _address(a):
    return a.__array_interface__["data"][0]


def _assert_row_ranges_of_one_matrix(parts):
    """The arrays are consecutive row ranges, in order, that together make up one matrix."""
    matrix = parts[0].base
    assert matrix is not None and matrix.flags.owndata and matrix.flags.c_contiguous
    end = _address(matrix)
    for part in parts:
        assert part.base is matrix and _address(part) == end
        end += part.nbytes
    assert end == _address(matrix) + matrix.nbytes


@st.composite
def _split_case(draw):
    num_classes = draw(st.integers(1, 5))
    # classes of 0-16 samples per client: empty and singleton classes, and at
    # small fractions every class rounding to zero test samples (the fallback)
    per_client = []
    for _ in range(draw(st.integers(1, 4))):
        counts = draw(st.lists(st.integers(0, 16), min_size=num_classes, max_size=num_classes))
        counts[draw(st.integers(0, num_classes - 1))] += 2
        per_client.append(counts)
    return {
        "per_client": per_client,
        "unowned": draw(st.integers(0, 8)),  # dataset rows no client holds
        "ascending": draw(st.booleans()),
        "fraction": draw(st.sampled_from([0.05, 0.2, 0.25, 0.5, 0.9])),
        "seed": draw(st.integers(0, 2**32 - 1)),
    }


class TestSplitTrainTest:
    @given(_split_case())
    @settings(max_examples=200, deadline=None)
    def test_splitting_on_indices_equals_splitting_the_gathered_shard(self, case):
        rng = np.random.default_rng(case["seed"])
        per_client = case["per_client"]
        num_classes, num_clients = len(per_client[0]), len(per_client)
        labels = np.concatenate(
            [np.repeat(np.arange(num_classes), counts) for counts in per_client]
            + [rng.integers(0, num_classes, case["unowned"])]
        )
        owners = np.repeat(np.arange(num_clients + 1), [sum(counts) for counts in per_client] + [case["unowned"]])
        shuffle = rng.permutation(labels.size)
        labels, owners = labels[shuffle], owners[shuffle]
        # every row distinct, so equal features mean the same samples in the same order
        features = np.arange(2.0 * labels.size).reshape(-1, 2)
        data = datahub.LabeledDataset(features, labels, num_classes)
        plan = [np.flatnonzero(owners == c) for c in range(num_clients)]
        if not case["ascending"]:
            plan = [rng.permutation(indices) for indices in plan]
        seeds = rng.integers(0, 2**63, num_clients).tolist()
        got = datahub.split_train_test(data, plan, case["fraction"], seeds)
        assert len(got) == num_clients
        for pair, indices, seed in zip(got, plan, seeds):
            want = _split_shard(_rows(data, indices), case["fraction"], seed)
            for part, expected in zip(pair, want):
                np.testing.assert_array_equal(part.features, expected.features)
                np.testing.assert_array_equal(part.labels, expected.labels)
                assert part.num_classes == num_classes
                assert not np.shares_memory(part.features, data.features)
                assert not np.shares_memory(part.labels, data.labels)
        for side, whole, bounds in ((0, got.train, got.train_bounds), (1, got.test, got.test_bounds)):
            parts = [pair[side] for pair in got]
            _assert_row_ranges_of_one_matrix([part.features for part in parts])
            _assert_row_ranges_of_one_matrix([part.labels for part in parts])
            # the pairs are views of the Shards' own two datasets, cut at its bounds
            assert parts[0].features.base is whole.features and parts[0].labels.base is whole.labels
            np.testing.assert_array_equal(bounds, np.cumsum([0] + [len(part) for part in parts]))

    def test_shards_index_like_a_list_of_pairs(self):
        data = datahub.gen_synthetic(2, 4, 30, 0.5, seed=2)
        shards = datahub.split_train_test(data, np.array_split(np.arange(len(data)), 3), 0.2, [1, 2, 3])
        pairs = list(shards)
        assert len(shards) == len(pairs) == 3
        for got, want in zip(shards[-1], pairs[2]):
            np.testing.assert_array_equal(got.features, want.features)
            np.testing.assert_array_equal(got.labels, want.labels)
        train, test = shards[1]
        np.testing.assert_array_equal(train.labels, shards.train.labels[shards.train_bounds[1] : shards.train_bounds[2]])
        np.testing.assert_array_equal(test.labels, shards.test.labels[shards.test_bounds[1] : shards.test_bounds[2]])
        for c in (3, -4):
            with pytest.raises(IndexError):
                shards[c]

    @pytest.mark.parametrize(
        "train_bounds, test_bounds",
        [
            ([0, 4, 10], [0, 4]),  # lengths differ
            ([], []),  # no offsets at all
            ([1, 4, 10], [0, 2, 4]),  # train starts past 0
            ([0, 6, 4, 10], [0, 1, 2, 4]),  # train descends
            ([0, 4, 10], [0, 3, 2]),  # test descends and ends short
            ([0, 4, 9], [0, 2, 4]),  # train ends short of its 10 rows
            ([0, 4, 10], [0, 2, 5]),  # test ends past its 4 rows
        ],
    )
    def test_shards_reject_bounds_that_do_not_cut_their_datasets(self, train_bounds, test_bounds):
        train = datahub.LabeledDataset(np.zeros((10, 2)), np.zeros(10, dtype=np.int64), 2)
        test = datahub.LabeledDataset(np.zeros((4, 2)), np.zeros(4, dtype=np.int64), 2)
        assert len(datahub.Shards(train, test, [0, 4, 10], [0, 2, 4])) == 2
        with pytest.raises(ConfigError, match="bounds"):
            datahub.Shards(train, test, train_bounds, test_bounds)

    def test_plan_and_seeds_must_match(self):
        data = datahub.gen_synthetic(2, 4, 10, 0.5, seed=2)
        with pytest.raises(ConfigError, match="seeds"):
            datahub.split_train_test(data, [np.arange(10), np.arange(10, 20)], 0.2, [1])

    def test_80_20(self):
        data = datahub.gen_synthetic(4, 4, 25, 0.5, seed=2)  # 100 samples
        train, test = _split_one(data, np.arange(len(data)), 0.2, seed=4)
        assert len(train) == 80 and len(test) == 20

    def test_deterministic(self):
        data = datahub.gen_synthetic(4, 4, 25, 0.5, seed=2)
        a = _split_one(data, np.arange(len(data)), 0.2, seed=4)
        b = _split_one(data, np.arange(len(data)), 0.2, seed=4)
        np.testing.assert_array_equal(a[0].features, b[0].features)
        np.testing.assert_array_equal(a[1].labels, b[1].labels)

    def test_singleton_class_goes_to_train(self):
        feats = np.random.default_rng(0).normal(size=(11, 3))
        labels = np.array([0] * 10 + [1], dtype=np.int64)
        shard = datahub.LabeledDataset(feats, labels, 2)
        train, test = _split_one(shard, np.arange(11), 0.2, seed=1)
        assert 1 in train.labels and 1 not in test.labels

    def test_stratification(self):
        data = datahub.gen_synthetic(2, 4, 50, 0.5, seed=3)  # 50/50 classes
        train, test = _split_one(data, np.arange(len(data)), 0.2, seed=9)
        assert np.all(np.bincount(test.labels, minlength=2) == 10)

    def test_tiny_shard_rejected(self):
        shard = datahub.LabeledDataset(np.zeros((1, 2)), np.array([0]), 1)
        with pytest.raises(ConfigError):
            _split_one(shard, np.arange(1), 0.2, seed=1)

    def test_never_empty_test(self):
        # all classes round to zero test samples; the guard promotes one
        feats = np.random.default_rng(1).normal(size=(8, 2))
        labels = np.array([0, 0, 1, 1, 2, 2, 3, 3], dtype=np.int64)
        shard = datahub.LabeledDataset(feats, labels, 4)
        train, test = _split_one(shard, np.arange(8), 0.2, seed=6)
        assert len(test) >= 1 and len(train) + len(test) == 8
