"""The 30 instruction-counter features, windowed extraction, and datasets.

Five unigram counters (a, b, l, n, s) plus the 25 ordered bigram counters
(xy = x immediately followed by y). Counters tally per fixed-size window of
consecutive instructions and reset at window boundaries; pairs never span
windows and pairs touching an uncategorized instruction count nowhere.
"""

import csv
from dataclasses import dataclass, replace

import numpy as np

from . import _kernels
from .errors import DataError, InconsistentFeatures

DEFAULT_WINDOW = 50

_CLASS_SYMBOLS = "ablns"  # code order

FEATURE_NAMES = tuple(_CLASS_SYMBOLS) + tuple(
    x + y for x in _CLASS_SYMBOLS for y in _CLASS_SYMBOLS)

LABELS = ("benign", "malicious")  # indexed by label code


def extract_windows(listing, window=DEFAULT_WINDOW):
    """Counter matrix of a parsed listing (asm.Listing): one int64 row of
    the 30 counters, in FEATURE_NAMES order, per window of consecutive
    instructions.

    A final short window is counted too; empty input yields no rows.
    """
    if window < 1:
        raise ValueError("window length must be >= 1")
    return _kernels.window_counts(listing.codes, window)


# Row-aligned columns of a Dataset and their dtypes.
_COLUMNS = {"X": np.int64, "y": np.int64, "firmware_id": str,
            "window_index": np.int64, "partial": bool, "attack": str}


@dataclass(frozen=True)
class Dataset:
    """Labeled counter windows held as columns, one row per window.

    X holds only the dataset's own features, in feature_names order. y is
    1 for malicious rows; attack names the attack kind of a malicious row
    and is "" on benign ones.
    """

    X: np.ndarray
    y: np.ndarray
    firmware_id: np.ndarray
    window_index: np.ndarray
    partial: np.ndarray
    attack: np.ndarray
    feature_names: tuple = FEATURE_NAMES

    def __post_init__(self):
        for name, dtype in _COLUMNS.items():
            object.__setattr__(self, name,
                               np.asarray(getattr(self, name), dtype=dtype))
        object.__setattr__(self, "feature_names", tuple(self.feature_names))
        n = len(self)
        if self.X.shape != (n, len(self.feature_names)):
            raise InconsistentFeatures(
                f"feature matrix of shape {self.X.shape} does not hold {n} "
                f"rows of {len(self.feature_names)} features")
        if not ((self.y == 0) | (self.y == 1)).all():
            raise ValueError("labels must be 0 (benign) or 1 (malicious)")
        if ((self.y == 0) != (self.attack == "")).any():
            raise ValueError("benign samples carry no attack kind and "
                             "malicious samples require one")

    def __len__(self):
        return self.y.shape[0]

    def matrix(self):
        """(n, F) int64 feature matrix in feature_names order."""
        return self.X

    def labels(self):
        """(n,) int64 array, malicious = 1."""
        return self.y

    def class_counts(self):
        return int((self.y == 0).sum()), int((self.y == 1).sum())

    def project(self, feature_names):
        """Same rows restricted to a feature subset, in the given order."""
        missing = [n for n in feature_names if n not in self.feature_names]
        if missing:
            raise InconsistentFeatures(f"features not in dataset: {missing}")
        cols = [self.feature_names.index(n) for n in feature_names]
        return replace(self, X=self.X[:, cols], feature_names=feature_names)

    def subset(self, indices):
        """Rows at the given indices, in that order (repeats allowed)."""
        idx = np.asarray(indices, dtype=np.intp)
        return replace(self, **{name: getattr(self, name)[idx]
                                for name in _COLUMNS})


# Columns around the feature columns of a dataset CSV.
_CSV_LEAD = ("firmware_id", "window_index", "partial")
_CSV_TAIL = ("label", "attack_kind")


def emit_dataset(runs, window=DEFAULT_WINDOW, path=None):
    """Assemble the labeled windows of several parsed listings into one
    Dataset, rows in input order; writes CSV when path is given.

    runs: iterable of (firmware_id, label, attack_kind, listing), with
    attack_kind None on benign runs. A run's last window is partial when
    the listing's length is not a multiple of window.
    """
    runs = list(runs)
    counts = [extract_windows(listing, window) for *_, listing in runs]
    sizes = [X.shape[0] for X in counts]

    def per_row(values, dtype):
        """One value per run, repeated over the run's rows."""
        return np.repeat(np.array(values, dtype=dtype), sizes)

    window_index = (np.arange(sum(sizes))
                    - per_row(np.cumsum(sizes) - sizes, np.int64))
    partial = ((window_index == per_row(sizes, np.int64) - 1)
               & per_row([len(listing) % window != 0
                          for *_, listing in runs], bool))
    ds = Dataset(
        X=np.concatenate(
            counts or [np.zeros((0, len(FEATURE_NAMES)), np.int64)]),
        y=per_row([LABELS.index(label) for _, label, _, _ in runs],
                  np.int64),
        firmware_id=per_row([fid for fid, *_ in runs], str),
        window_index=window_index, partial=partial,
        attack=per_row([attack or "" for _, _, attack, _ in runs], str))
    if path is not None:
        write_dataset_csv(ds, path)
    return ds


def write_dataset_csv(ds, path):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(_CSV_LEAD + ds.feature_names + _CSV_TAIL)
        writer.writerows(
            [fid, w, int(partial), *counts, LABELS[y], attack]
            for fid, w, partial, counts, y, attack in zip(
                ds.firmware_id.tolist(), ds.window_index.tolist(),
                ds.partial.tolist(), ds.X.tolist(), ds.y.tolist(),
                ds.attack.tolist()))


def read_dataset_csv(path):
    """Dataset from a CSV in write_dataset_csv's layout; a malformed file
    raises DataError naming the file and the line, a non-UTF-8 one
    naming the file."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header is None:
                raise DataError(f"{path}: line 1: empty file, expected a "
                                f"dataset CSV header")
            if (tuple(header[:3]) != _CSV_LEAD
                    or tuple(header[-2:]) != _CSV_TAIL):
                raise InconsistentFeatures(f"{path}: not a dataset CSV")
            names = tuple(header[3:-2])
            if not names:
                raise InconsistentFeatures(f"{path}: no counter columns")
            unknown = [n for n in names if n not in FEATURE_NAMES]
            if unknown:
                raise InconsistentFeatures(f"{path}: unknown features "
                                           f"{unknown}")
            if len(set(names)) != len(names):
                raise InconsistentFeatures(f"{path}: repeated feature "
                                           f"columns")
            rows, counts = [], []  # counts parsed row by row: ints, not text
            for row in reader:
                if len(row) != len(header):
                    raise DataError(f"{path}: line {reader.line_num}: "
                                    f"{len(row)} fields, the header has "
                                    f"{len(header)}")
                if row[-2] not in LABELS:
                    raise DataError(f"{path}: line {reader.line_num}: bad "
                                    f"label {row[-2]!r}")
                try:
                    counts.append(list(map(int, row[3:-2])))
                except ValueError as e:
                    raise DataError(f"{path}: line {reader.line_num}: {e}") \
                        from e
                rows.append(row[:3] + row[-2:])
        except csv.Error as e:
            raise DataError(f"{path}: line {reader.line_num}: {e}") from e
        except UnicodeDecodeError as e:
            raise DataError(f"{path} is not UTF-8 text: {e}") from e
    try:
        return Dataset(
            X=np.array(counts, dtype=np.int64).reshape(len(rows), len(names)),
            y=[LABELS.index(r[3]) for r in rows],
            firmware_id=[r[0] for r in rows],
            window_index=[r[1] for r in rows],
            partial=np.array([r[2] for r in rows], dtype=np.int64) != 0,
            attack=[r[4] for r in rows], feature_names=names)
    except (ValueError, OverflowError) as e:
        raise DataError(f"{path}: {e}") from e
