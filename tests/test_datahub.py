"""Dataset generation, IDX parsing, partitioning, and split contracts."""

import os
import struct
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import counted_class_splits
from svote import datahub, learner
from svote.errors import ConfigError, FormatError


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
            w, _ = learner.local_train(w, data.features, data.labels, spec, hp, rng)
        acc = (learner.predict_batch(w, data.features, spec) == data.labels).mean()
        assert acc >= 0.99

    def test_validation(self):
        with pytest.raises(ConfigError):
            datahub.gen_synthetic(0, 8, 50, 0.5, seed=1)
        with pytest.raises(ConfigError):
            datahub.gen_synthetic(4, 8, 50, 0.0, seed=1)


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
            hist = np.bincount(data.labels[plan.assignment[c]], minlength=data.num_classes)
            shares.append(hist.max() / hist.sum())
        vals.append(np.mean(shares))
    return float(np.mean(vals))


class TestDirichletPartition:
    def test_exact_disjoint_cover(self):
        data = _balanced()
        for alpha in (0.1, 0.5, 1e6):
            plan = datahub.dirichlet_partition(data, 7, alpha, seed=3, min_shard=2)
            merged = np.concatenate([plan.assignment[c] for c in range(7)])
            assert len(merged) == len(data)
            assert len(np.unique(merged)) == len(data)

    def test_min_shard_respected(self):
        data = _balanced()
        plan = datahub.dirichlet_partition(data, 10, 0.1, seed=5, min_shard=40)
        assert min(plan.shard_sizes()) >= 40

    def test_too_small_dataset_rejected(self):
        data = datahub.gen_synthetic(2, 4, 10, 0.5, seed=1)  # 20 samples
        with pytest.raises(ConfigError, match="cannot give"):
            datahub.dirichlet_partition(data, 5, 0.5, seed=1, min_shard=10)

    def test_huge_alpha_is_uniform_within_10pct(self):
        data = datahub.gen_synthetic(4, 4, 250, 0.5, seed=7)
        for seed in range(20):
            plan = datahub.dirichlet_partition(data, 5, 1e6, seed=seed, min_shard=2)
            for c in range(5):
                hist = np.bincount(data.labels[plan.assignment[c]], minlength=4)
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
            np.testing.assert_array_equal(a.assignment[cid], b.assignment[cid])
        assert any(not np.array_equal(a.assignment[cid], c.assignment[cid]) for cid in range(6))

    def test_validation(self):
        data = _balanced()
        with pytest.raises(ConfigError):
            datahub.dirichlet_partition(data, 1, 0.5, seed=1)
        with pytest.raises(ConfigError):
            datahub.dirichlet_partition(data, 5, 0.0, seed=1)


def _whole_plan_redraws(data, num_clients, alpha, seed, min_shard, max_attempts):
    """Reference partitioner: every attempt slices its per-client buckets.

    The largest-remainder tie break is a lexsort on an index key. The
    partitioner must return the same plan, or fail with the same error,
    from the same seeded stream.
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
            return {client: np.sort(np.concatenate(parts)) for client, parts in enumerate(buckets)}
    raise ConfigError(
        f"could not satisfy min_shard={min_shard} for {num_clients} clients "
        f"after {max_attempts} draws; dataset too small or alpha too skewed"
    )


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
    # a floor near total / num_clients forces redraws, and sometimes exhausts them
    return {
        "per_class": per_class,
        "num_clients": num_clients,
        "alpha": draw(st.sampled_from([0.05, 0.3, 1.0, 5.0])),
        "min_shard": draw(st.integers(1, total // num_clients)),
        "seed": draw(st.integers(0, 2**32 - 1)),
    }


class TestPartitionAgainstWholePlanRedraws:
    @given(_partition_case())
    @settings(max_examples=150, deadline=None)
    def test_same_plan_or_same_error(self, case):
        num_classes = len(case["per_class"])
        labels = np.repeat(np.arange(num_classes), case["per_class"])
        labels = np.random.default_rng(case["seed"]).permutation(labels)
        data = datahub.LabeledDataset(np.zeros((labels.size, 1)), labels, num_classes)
        args = (data, case["num_clients"], case["alpha"], case["seed"], case["min_shard"])
        attempts = 25
        with mock.patch.object(datahub, "_MAX_PARTITION_ATTEMPTS", attempts):
            try:
                expected = _whole_plan_redraws(*args, attempts)
            except ConfigError as exc:
                with pytest.raises(ConfigError) as got:
                    datahub.dirichlet_partition(*args)
                assert str(got.value) == str(exc)
                return
            plan = datahub.dirichlet_partition(*args)
        assert sorted(plan.assignment) == list(range(case["num_clients"]))
        for client, shard in expected.items():
            assert plan.assignment[client].dtype == shard.dtype
            np.testing.assert_array_equal(plan.assignment[client], shard)

    def test_exhausted_attempts_raise_the_same_config_error(self):
        # 4 clients of exactly 5 samples each out of 20: at alpha 0.01 each class
        # lands almost whole on one client, so no attempt passes
        labels = np.repeat(np.arange(2), 10)
        data = datahub.LabeledDataset(np.zeros((20, 1)), labels, 2)
        with counted_class_splits() as splits, pytest.raises(ConfigError) as got:
            datahub.dirichlet_partition(data, 4, 0.01, seed=2, min_shard=5)
        assert str(got.value) == (
            "could not satisfy min_shard=5 for 4 clients after 10000 draws; "
            "dataset too small or alpha too skewed"
        )
        # every attempt splits both classes, through the module attribute
        assert len(splits) == 2 * 10_000


# -------------------------------------------------------------------- splits


class TestSplitTrainTest:
    def test_80_20(self):
        data = datahub.gen_synthetic(4, 4, 25, 0.5, seed=2)  # 100 samples
        train, test = datahub.split_train_test(data, 0.2, seed=4)
        assert len(train) == 80 and len(test) == 20

    def test_deterministic(self):
        data = datahub.gen_synthetic(4, 4, 25, 0.5, seed=2)
        a = datahub.split_train_test(data, 0.2, seed=4)
        b = datahub.split_train_test(data, 0.2, seed=4)
        np.testing.assert_array_equal(a[0].features, b[0].features)
        np.testing.assert_array_equal(a[1].labels, b[1].labels)

    def test_singleton_class_goes_to_train(self):
        feats = np.random.default_rng(0).normal(size=(11, 3))
        labels = np.array([0] * 10 + [1], dtype=np.int64)
        shard = datahub.LabeledDataset(feats, labels, 2)
        train, test = datahub.split_train_test(shard, 0.2, seed=1)
        assert 1 in train.labels and 1 not in test.labels

    def test_stratification(self):
        data = datahub.gen_synthetic(2, 4, 50, 0.5, seed=3)  # 50/50 classes
        train, test = datahub.split_train_test(data, 0.2, seed=9)
        assert np.all(np.bincount(test.labels, minlength=2) == 10)

    def test_tiny_shard_rejected(self):
        shard = datahub.LabeledDataset(np.zeros((1, 2)), np.array([0]), 1)
        with pytest.raises(ConfigError):
            datahub.split_train_test(shard, 0.2, seed=1)

    def test_never_empty_test(self):
        # all classes round to zero test samples; the guard promotes one
        feats = np.random.default_rng(1).normal(size=(8, 2))
        labels = np.array([0, 0, 1, 1, 2, 2, 3, 3], dtype=np.int64)
        shard = datahub.LabeledDataset(feats, labels, 4)
        train, test = datahub.split_train_test(shard, 0.2, seed=6)
        assert len(test) >= 1 and len(train) + len(test) == 8
