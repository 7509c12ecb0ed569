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
from .kernels import DTYPE

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801


@dataclass
class LabeledDataset:
    features: np.ndarray  # (n, input_dim) in the data-plane dtype, kernels.DTYPE
    labels: np.ndarray  # (n,) int64, values in [0, num_classes)
    num_classes: int

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=DTYPE)
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

    @classmethod
    def of_checked(cls, features: np.ndarray, labels: np.ndarray, num_classes: int) -> "LabeledDataset":
        """A dataset of arrays cut from one that passed the checks, built without re-running them."""
        self = object.__new__(cls)
        self.features, self.labels, self.num_classes = features, labels, num_classes
        return self


class Shards:
    """A federation's data: every client's train rows in one client-major dataset and its test rows in another.

    Client c's rows are train_bounds[c]:train_bounds[c + 1] of `train` and
    the same range of test_bounds in `test`; each bounds array must run from
    0 to its dataset's length without descending. `shards[c]` makes client
    c's (train, test) pair as views of them; a negative c counts from the end.
    """

    def __init__(self, train: LabeledDataset, test: LabeledDataset, train_bounds, test_bounds):
        self.train, self.test = train, test
        self.train_bounds, self.test_bounds = np.asarray(train_bounds), np.asarray(test_bounds)
        if self.train_bounds.shape != self.test_bounds.shape or self.train_bounds.ndim != 1:
            raise ConfigError("train and test bounds must be two offset lists of one length (n + 1)")
        for name, bounds, data in (("train", self.train_bounds, train), ("test", self.test_bounds, test)):
            if not bounds.size or bounds[0] != 0 or bounds[-1] != len(data) or (np.diff(bounds) < 0).any():
                raise ConfigError(f"{name} bounds must ascend from 0 to the {name} set's {len(data)} rows")

    def __len__(self) -> int:
        return self.train_bounds.size - 1

    def __getitem__(self, c: int) -> tuple[LabeledDataset, LabeledDataset]:
        c = range(len(self))[c]  # a negative c counts from the end; past either end raises IndexError
        return _rows(self.train, self.train_bounds, c), _rows(self.test, self.test_bounds, c)


def _rows(data: LabeledDataset, bounds: np.ndarray, c: int) -> LabeledDataset:
    """Client c's rows of a client-major dataset, as views."""
    start, end = bounds[c], bounds[c + 1]
    return LabeledDataset.of_checked(data.features[start:end], data.labels[start:end], data.num_classes)


def gen_synthetic(
    num_classes: int, input_dim: int, per_class: int, spread: float, seed: int
) -> LabeledDataset:
    """Gaussian mixture: seeded unit-sphere mean per class, isotropic noise.

    The draws are float64, made in the order of one draw for all samples;
    each feature is their float64 sum rounded once to the data-plane dtype.
    """
    if num_classes < 1 or input_dim < 1 or per_class < 1:
        raise ConfigError("num_classes, input_dim, per_class must be >= 1")
    if not 0 < spread < np.inf:
        raise ConfigError(f"spread must be positive and finite, got {spread}")
    rng = np.random.default_rng(seed)
    means = rng.normal(size=(num_classes, input_dim))
    means /= np.linalg.norm(means, axis=1, keepdims=True)
    labels = np.repeat(np.arange(num_classes, dtype=np.int64), per_class)
    # labels run class by class, so each class is one block of rows, drawn into
    # one reused float64 buffer (spread * standard_normal is rng.normal's own
    # arithmetic), offset by its mean and rounded once; the draws continue one
    # stream, and no float64 matrix of the whole dataset is held.
    features = np.empty((num_classes, per_class, input_dim), dtype=DTYPE)
    noise = np.empty((per_class, input_dim))
    for block, mean in zip(features, means):
        rng.standard_normal(out=noise)
        noise *= spread
        noise += mean
        block[...] = noise
    return LabeledDataset(features.reshape(labels.shape[0], input_dim), labels, num_classes)


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

    Pixels are scaled to [0, 1] in the data-plane dtype and images flattened
    row-major. The class count comes from the whole label file, so a prefix
    that misses the top class still gives the model every output of the full
    data set.
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
    return LabeledDataset(np.divide(images, 255, dtype=DTYPE), all_labels[:take].astype(np.int64), num_classes)


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
    if not 0 < alpha < np.inf:
        raise ConfigError(f"alpha must be positive and finite, got {alpha}")
    if len(data) < num_clients * min_shard:
        raise ConfigError(
            f"dataset of {len(data)} samples cannot give {num_clients} clients >= {min_shard} each"
        )
    rng = np.random.default_rng(seed)
    # a stable sort of the labels lists each class's samples in ascending order
    # (radix-sorted in their narrowest type); each class's slice is shuffled in
    # place, which gives the arrangement rng.permutation(slice) would
    by_class = np.argsort(data.labels.astype(np.min_scalar_type(data.num_classes - 1)), kind="stable")
    ends = np.cumsum(np.bincount(data.labels, minlength=data.num_classes)).tolist()
    class_indices = [by_class[start:end] for start, end in zip([0, *ends], ends) if end > start]
    concentration = np.full(num_clients, alpha)
    counts = np.empty((len(class_indices), num_clients), dtype=np.int64)
    for row, idx in enumerate(class_indices):
        rng.shuffle(idx)
        counts[row] = _largest_remainder(rng.dirichlet(concentration), idx.size)
    counts = _repair_to_floor(counts, min_shard)
    # the narrowest type that holds every client id: numpy's stable argsort
    # radix-sorts 8- and 16-bit integers, and a stable sort's output is unique
    owner = np.empty(len(data), dtype=np.min_scalar_type(num_clients - 1))
    clients = np.arange(num_clients, dtype=owner.dtype)
    for idx, row in zip(class_indices, counts):
        owner[idx] = np.repeat(clients, row)
    # grouped by client, each shard in ascending sample order
    return np.split(np.argsort(owner, kind="stable"), np.cumsum(counts.sum(axis=0))[:-1])


def split_train_test(
    data: LabeledDataset, plan: list[np.ndarray], test_fraction: float, seeds: list[int]
) -> Shards:
    """Stratified-by-class split of every client's samples; singleton classes go entirely to train.

    plan[c] holds client c's sample indices (one `dirichlet_partition` plan)
    and seeds[c] seeds its draws. Client c's split is the one of its shard
    data[plan[c]] on its own: class by class, a class of m >= 2 samples
    shuffles its positions in plan[c] (ascending before the draw) and gives
    the first int(m * test_fraction) to test; a client whose classes all give
    none then draws one sample of its largest class for test. Train and test
    keep plan[c]'s order.

    All train rows are gathered from `data` at once into one client-major
    dataset and all test rows into another; the Shards returned hold the two
    and each client's row bounds in them, and no per-client dataset is made.
    """
    if not 0 < test_fraction < 1:
        raise ConfigError("test_fraction must be in (0, 1)")
    if len(seeds) != len(plan):
        raise ConfigError(f"got {len(seeds)} seeds for {len(plan)} clients")
    sizes = np.array([len(idx) for idx in plan], dtype=np.int64)
    if sizes.size == 0 or sizes.min() < 2:
        raise ConfigError("shard too small to split (need >= 2 samples)")
    num_clients, num_classes = len(plan), data.num_classes
    rows = np.concatenate(plan)
    del plan  # a caller that keeps no reference to the plan frees it here, before the gathers
    # client * num_classes + label, in the narrowest type that holds it: numpy's
    # stable argsort radix-sorts 8- and 16-bit integers. The sort groups the
    # positions in rows by (client, class), each group in ascending order.
    group = np.repeat(np.arange(num_clients, dtype=np.min_scalar_type(num_clients * num_classes - 1)), sizes)
    group *= num_classes
    group += data.labels.astype(group.dtype)[rows]
    by_group = np.argsort(group, kind="stable")
    counts = np.bincount(group, minlength=num_clients * num_classes)
    del group
    ends = np.cumsum(counts)
    test_k = (counts * test_fraction + 1e-9).astype(np.int64)
    test_k[counts < 2] = 0
    client_test = test_k.reshape(num_clients, num_classes).sum(axis=1)
    picks = []  # the fallback test sample of each client whose classes all give none
    bounds = np.stack([ends - counts, ends], axis=1).reshape(num_clients, num_classes, 2).tolist()
    for seed, client_bounds, fallback in zip(seeds, bounds, (client_test == 0).tolist()):
        rng = np.random.default_rng(seed)
        if fallback:
            start, end = max(client_bounds, key=lambda b: b[1] - b[0])
            donor = by_group[start:end].copy()  # ascending, before the shuffle below
        for start, end in client_bounds:
            if end - start > 1:
                # in place: the arrangement rng.permutation(positions) gives
                rng.shuffle(by_group[start:end])
        if fallback:
            picks.append(rng.permutation(donor)[0])
    # each group's first test_k positions after its shuffle go to test
    first_k = np.repeat(np.tile([True, False], counts.size), np.stack([test_k, counts - test_k], axis=1).ravel())
    is_test = np.zeros(rows.size, dtype=bool)
    is_test[by_group[first_k]] = True
    is_test[picks] = True
    del by_group, first_k
    client_test[client_test == 0] = 1  # the fallback sample
    train_rows, test_rows = rows[~is_test], rows[is_test]
    del rows, is_test
    test = _gathered(data, test_rows)
    del test_rows
    train = _gathered(data, train_rows)
    train_bounds = np.concatenate(([0], np.cumsum(sizes - client_test)))
    return Shards(train, test, train_bounds, np.concatenate(([0], np.cumsum(client_test))))


def _gathered(data: LabeledDataset, rows: np.ndarray) -> LabeledDataset:
    """data's rows gathered into one fresh dataset."""
    features, labels = np.take(data.features, rows, axis=0), np.take(data.labels, rows)
    return LabeledDataset.of_checked(features, labels, data.num_classes)
