"""Datasets and non-IID partitioning.

Synthetic data is a seeded Gaussian mixture (one unit-sphere mean per class);
IDX files cover the MNIST family. Partitioning draws, per class, client
proportions from Dirichlet(alpha) and splits indices with largest-remainder
rounding, redrawing whole plans until every client holds at least min_shard
samples.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, FormatError

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801

_MAX_PARTITION_ATTEMPTS = 10_000


@dataclass
class LabeledDataset:
    features: np.ndarray  # (n, input_dim) float64
    labels: np.ndarray  # (n,) int64, values in [0, num_classes)
    num_classes: int

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.features.ndim != 2 or self.features.shape[0] != self.labels.shape[0]:
            raise ConfigError("features/labels shape mismatch")
        if self.labels.size and (self.labels.min() < 0 or self.labels.max() >= self.num_classes):
            raise ConfigError("label outside [0, num_classes)")

    def __len__(self) -> int:
        return self.labels.shape[0]

    @property
    def input_dim(self) -> int:
        return self.features.shape[1]

    def subset(self, indices: np.ndarray) -> "LabeledDataset":
        return LabeledDataset(self.features[indices], self.labels[indices], self.num_classes)


def gen_synthetic(
    num_classes: int, input_dim: int, per_class: int, spread: float, seed: int
) -> LabeledDataset:
    """Gaussian mixture: seeded unit-sphere mean per class, isotropic noise."""
    if num_classes < 1 or input_dim < 1 or per_class < 1:
        raise ConfigError("num_classes, input_dim, per_class must be >= 1")
    if spread <= 0:
        raise ConfigError("spread must be positive")
    rng = np.random.default_rng(seed)
    means = rng.normal(size=(num_classes, input_dim))
    means /= np.linalg.norm(means, axis=1, keepdims=True)
    labels = np.repeat(np.arange(num_classes, dtype=np.int64), per_class)
    noise = rng.normal(scale=spread, size=(labels.shape[0], input_dim))
    return LabeledDataset(means[labels] + noise, labels, num_classes)


def _read_exact(f, n: int, path: str) -> bytes:
    data = f.read(n)
    if len(data) < n:
        raise FormatError(f"{path}: truncated file (wanted {n} bytes, got {len(data)})")
    return data


def _open_binary(path: str):
    try:
        return open(path, "rb")
    except OSError as exc:
        raise FormatError(f"{path}: cannot open: {exc}") from None


def load_idx(images_path: str, labels_path: str, limit: int) -> LabeledDataset:
    """Load an IDX image/label file pair, keeping the first `limit` samples.

    Pixels are scaled to [0, 1] and images flattened row-major. The class
    count comes from the whole label file, so a prefix that misses the top
    class still gives the model every output of the full data set.
    """
    if limit < 1:
        raise ConfigError("limit must be >= 1")
    with _open_binary(images_path) as f:
        (magic,) = struct.unpack(">I", _read_exact(f, 4, images_path))
        if magic != IDX_IMAGES_MAGIC:
            raise FormatError(f"{images_path}: bad magic 0x{magic:08x}, expected 0x{IDX_IMAGES_MAGIC:08x}")
        count, rows, cols = struct.unpack(">III", _read_exact(f, 12, images_path))
        raw = _read_exact(f, count * rows * cols, images_path)
    with _open_binary(labels_path) as f:
        (magic,) = struct.unpack(">I", _read_exact(f, 4, labels_path))
        if magic != IDX_LABELS_MAGIC:
            raise FormatError(f"{labels_path}: bad magic 0x{magic:08x}, expected 0x{IDX_LABELS_MAGIC:08x}")
        (label_count,) = struct.unpack(">I", _read_exact(f, 4, labels_path))
        raw_labels = _read_exact(f, label_count, labels_path)
    if label_count != count:
        raise FormatError(f"{labels_path}: {label_count} labels for {count} images in {images_path}")
    take = min(limit, count)
    images = np.frombuffer(raw, dtype=np.uint8).reshape(count, rows * cols)[:take]
    all_labels = np.frombuffer(raw_labels, dtype=np.uint8)
    num_classes = int(all_labels.max()) + 1 if count else 1
    return LabeledDataset(images / 255.0, all_labels[:take].astype(np.int64), num_classes)


def _largest_remainder(proportions: np.ndarray, total: int) -> np.ndarray:
    """Integer counts summing to `total`, closest to proportions*total."""
    raw = proportions * total
    counts = np.floor(raw).astype(np.int64)
    short = total - int(counts.sum())
    if short > 0:
        # ties broken by client index for determinism
        order = np.argsort(-(raw - counts), kind="stable")
        counts[order[:short]] += 1
    return counts


def dirichlet_partition(
    data: LabeledDataset, num_clients: int, alpha: float, seed: int, min_shard: int = 2
) -> list[np.ndarray]:
    """Class-wise Dirichlet split of sample indices across clients.

    Returns one array of sample indices per client, in client order, each in
    ascending sample order.

    Whole plans violating the min_shard floor are redrawn from the same
    seeded stream; the caller picks min_shard (the experiment layer passes
    max(2*batch_size, 2*num_classes)).
    """
    if num_clients < 2:
        raise ConfigError("num_clients must be >= 2")
    if alpha <= 0:
        raise ConfigError("alpha must be positive")
    if len(data) < num_clients * min_shard:
        raise ConfigError(
            f"dataset of {len(data)} samples cannot give {num_clients} clients >= {min_shard} each"
        )
    rng = np.random.default_rng(seed)
    class_indices = [np.flatnonzero(data.labels == c) for c in range(data.num_classes)]
    class_indices = [idx for idx in class_indices if idx.size]
    concentration = np.full(num_clients, alpha)
    for _ in range(_MAX_PARTITION_ATTEMPTS):
        # a rejected plan costs only its draws: the shards are built once,
        # for the plan that passes
        draws = []
        sizes = np.zeros(num_clients, dtype=np.int64)
        for idx in class_indices:
            shuffled = rng.permutation(idx)
            counts = _largest_remainder(rng.dirichlet(concentration), idx.size)
            sizes += counts
            draws.append((shuffled, counts))
        if sizes.min() >= min_shard:
            owner = np.empty(len(data), dtype=np.intp)
            clients = np.arange(num_clients)
            for shuffled, counts in draws:
                owner[shuffled] = np.repeat(clients, counts)
            # grouped by client, each shard in ascending sample order
            return np.split(np.argsort(owner, kind="stable"), np.cumsum(sizes)[:-1])
    raise ConfigError(
        f"could not satisfy min_shard={min_shard} for {num_clients} clients "
        f"after {_MAX_PARTITION_ATTEMPTS} draws; dataset too small or alpha too skewed"
    )


def split_train_test(
    shard: LabeledDataset, test_fraction: float, seed: int
) -> tuple[LabeledDataset, LabeledDataset]:
    """Stratified-by-class split; singleton classes go entirely to train."""
    if not 0 < test_fraction < 1:
        raise ConfigError("test_fraction must be in (0, 1)")
    if len(shard) < 2:
        raise ConfigError("shard too small to split (need >= 2 samples)")
    rng = np.random.default_rng(seed)
    train_parts: list[np.ndarray] = []
    test_parts: list[np.ndarray] = []
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
        # every class rounded to zero test samples: take one from the largest class
        counts = np.bincount(shard.labels, minlength=shard.num_classes)
        largest = int(np.argmax(counts))
        donor = np.flatnonzero(shard.labels == largest)
        pick = rng.permutation(donor)[:1]
        test_idx = pick
        train_idx = np.setdiff1d(train_idx, pick)
    return shard.subset(np.sort(train_idx)), shard.subset(np.sort(test_idx))
