"""Datasets and non-IID partitioning.

Synthetic data is a seeded Gaussian mixture (one unit-sphere mean per class);
IDX files cover the MNIST family. Partitioning draws, per class, client
proportions from Dirichlet(alpha) once and splits indices with
largest-remainder rounding, then moves samples from the largest clients to any
client below the min_shard floor.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, FormatError

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801


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
    features = rng.normal(scale=spread, size=(labels.shape[0], input_dim))
    # labels run class by class, so each class is one block of rows
    features.reshape(num_classes, per_class, input_dim)[...] += means[:, None]
    return LabeledDataset(features, labels, num_classes)


def _read_exact(f, n: int, path: str) -> bytes:
    """The next n bytes of f; a size claim beyond the bytes left in the file is an error, not a read."""
    left = os.fstat(f.fileno()).st_size - f.tell()
    if n > left:
        raise FormatError(f"{path}: truncated file (wanted {n} bytes, got {left})")
    return f.read(n)


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


def _repair_to_floor(counts: np.ndarray, min_shard: int) -> np.ndarray:
    """Top up every client (column) of a class x client count matrix to min_shard.

    The total must be at least min_shard per client; no rng draw is made.
    Each move fills the smallest client from the largest client's largest
    class (lowest index on every tie), taking no more than the receiver
    lacks, the donor holds above the floor, or the donor holds of that class.
    Receivers end at exactly min_shard and donors never fall below it.
    """
    counts = counts.copy()
    sizes = counts.sum(axis=0)
    while True:
        receiver = int(np.argmin(sizes))
        deficit = min_shard - int(sizes[receiver])
        if deficit <= 0:
            return counts
        donor = int(np.argmax(sizes))
        cls = int(np.argmax(counts[:, donor]))
        m = min(deficit, int(sizes[donor]) - min_shard, int(counts[cls, donor]))
        counts[cls, donor] -= m
        counts[cls, receiver] += m
        sizes[donor] -= m
        sizes[receiver] += m


def dirichlet_partition(
    data: LabeledDataset, num_clients: int, alpha: float, seed: int, min_shard: int = 2
) -> list[np.ndarray]:
    """Class-wise Dirichlet split of sample indices across clients.

    Returns one array of sample indices per client, in client order, each in
    ascending sample order.

    One plan is drawn: per non-empty class, a shuffle of its indices and
    Dirichlet(alpha) client proportions rounded by largest remainder. Clients
    below the min_shard floor are then topped up from the largest clients
    without further draws, so a plan that meets the floor as drawn is kept
    as drawn. The caller picks min_shard (the experiment layer passes
    max(2*batch_size, 2*num_classes)); the only failure is a dataset smaller
    than num_clients * min_shard.
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
    shuffled = []
    counts = np.empty((len(class_indices), num_clients), dtype=np.int64)
    for row, idx in enumerate(class_indices):
        shuffled.append(rng.permutation(idx))
        counts[row] = _largest_remainder(rng.dirichlet(concentration), idx.size)
    counts = _repair_to_floor(counts, min_shard)
    # the narrowest type that holds every client id: numpy's stable argsort
    # radix-sorts 8- and 16-bit integers, and a stable sort's output is unique
    owner = np.empty(len(data), dtype=np.min_scalar_type(num_clients - 1))
    clients = np.arange(num_clients, dtype=owner.dtype)
    for perm, row in zip(shuffled, counts):
        owner[perm] = np.repeat(clients, row)
    # grouped by client, each shard in ascending sample order
    return np.split(np.argsort(owner, kind="stable"), np.cumsum(counts.sum(axis=0))[:-1])


def split_train_test(
    data: LabeledDataset, indices: np.ndarray, test_fraction: float, seed: int
) -> tuple[LabeledDataset, LabeledDataset]:
    """Stratified-by-class split of the samples data[indices]; singleton classes go entirely to train.

    Positions are into `indices`, class by class in ascending order, so the
    split is the one of `data.subset(indices)`; train and test are each
    gathered once from `data`, in ascending position order.
    """
    if not 0 < test_fraction < 1:
        raise ConfigError("test_fraction must be in (0, 1)")
    indices = np.asarray(indices)
    if len(indices) < 2:
        raise ConfigError("shard too small to split (need >= 2 samples)")
    labels = data.labels[indices]
    counts = np.bincount(labels, minlength=data.num_classes)
    # a stable sort by label lists each class's positions in ascending order
    by_class = np.argsort(labels, kind="stable")
    ends = np.cumsum(counts).tolist()
    class_positions = [by_class[end - n : end] for end, n in zip(ends, counts.tolist())]
    rng = np.random.default_rng(seed)
    train_parts: list[np.ndarray] = []
    test_parts: list[np.ndarray] = []
    for idx in class_positions:
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
        donor = class_positions[int(np.argmax(counts))]
        pick = rng.permutation(donor)[:1]
        test_idx = pick
        train_idx = np.setdiff1d(train_idx, pick)
    return data.subset(indices[np.sort(train_idx)]), data.subset(indices[np.sort(test_idx)])
