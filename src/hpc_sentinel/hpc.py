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
from .asm import InstructionCategory
from .errors import DataError, InconsistentFeatures

DEFAULT_WINDOW = 50

_CLASS_SYMBOLS = "ablns"  # code order

FEATURE_NAMES = tuple(_CLASS_SYMBOLS) + tuple(
    x + y for x in _CLASS_SYMBOLS for y in _CLASS_SYMBOLS)

LABEL_BENIGN = "benign"
LABEL_MALICIOUS = "malicious"
LABELS = (LABEL_BENIGN, LABEL_MALICIOUS)  # indexed by label code

ATTACK_KINDS = ("mppt_dos", "inverter_dos", "input_array", "input_sine")


@dataclass(frozen=True)
class HpcVector:
    """One window's 30 counters plus window bookkeeping."""

    counts: np.ndarray  # (30,) int64 in FEATURE_NAMES order
    window_len: int
    partial: bool = False

    def __eq__(self, other):
        if not isinstance(other, HpcVector):
            return NotImplemented
        return (self.window_len == other.window_len
                and self.partial == other.partial
                and bool(np.array_equal(self.counts, other.counts)))


def category_codes(instructions):
    """Instruction sequence -> int64 code array for the counting kernels."""
    return np.fromiter((ins.category.code for ins in instructions),
                       dtype=np.int64, count=len(instructions))


def windows_from_codes(codes, window=DEFAULT_WINDOW):
    """Windowed counter vectors from a raw category-code array."""
    if window < 1:
        raise ValueError("window length must be >= 1")
    codes = np.asarray(codes, dtype=np.int64)
    counts = _kernels.window_counts(codes, window)
    n = codes.shape[0]
    out = []
    for w in range(counts.shape[0]):
        length = min(window, n - w * window)
        out.append(HpcVector(counts=counts[w], window_len=length,
                             partial=length < window))
    return out


def extract_windows(instructions, window=DEFAULT_WINDOW):
    """Counter vectors over consecutive windows of an instruction stream.

    A final short window is emitted with partial=True; empty input yields
    no windows.
    """
    return windows_from_codes(category_codes(instructions), window)


def compute_bigram(prev, nxt):
    """Counter name for an adjacent category pair, or None when either
    member is uncategorized."""
    if prev is InstructionCategory.OTHER or nxt is InstructionCategory.OTHER:
        return None
    return prev.symbol + nxt.symbol


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


def _from_rows(rows, feature_names):
    """Dataset from rows in the CSV layout: firmware id, window index,
    partial flag, one count per feature, label, attack kind ("" if
    benign); fields may be strings or numbers."""
    return Dataset(
        X=np.array([r[3:-2] for r in rows], dtype=np.int64).reshape(
            len(rows), len(feature_names)),
        y=[LABELS.index(r[-2]) for r in rows],
        firmware_id=[r[0] for r in rows], window_index=[r[1] for r in rows],
        partial=np.array([r[2] for r in rows], dtype=np.int64) != 0,
        attack=[r[-1] for r in rows], feature_names=feature_names)


def emit_dataset(runs, path=None):
    """Assemble labeled windows from several firmware runs into one Dataset.

    runs: iterable of (firmware_id, label, attack_kind, windows). Row order
    follows input order. Writes CSV when path is given.
    """
    ds = _from_rows([[firmware_id, w, vec.partial, *vec.counts, label,
                      attack_kind or ""]
                     for firmware_id, label, attack_kind, windows in runs
                     for w, vec in enumerate(windows)], FEATURE_NAMES)
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
    raises DataError naming the file and the line."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise DataError(f"{path}: line 1: empty file, expected a "
                            f"dataset CSV header")
        if tuple(header[:3]) != _CSV_LEAD or tuple(header[-2:]) != _CSV_TAIL:
            raise InconsistentFeatures(f"{path}: not a dataset CSV")
        names = tuple(header[3:-2])
        unknown = [n for n in names if n not in FEATURE_NAMES]
        if unknown:
            raise InconsistentFeatures(f"{path}: unknown features {unknown}")
        if len(set(names)) != len(names):
            raise InconsistentFeatures(f"{path}: repeated feature columns")
        rows = []
        for row in reader:
            if len(row) != len(header):
                raise DataError(f"{path}: line {reader.line_num}: "
                                f"{len(row)} fields, the header has "
                                f"{len(header)}")
            if row[-2] not in LABELS:
                raise DataError(f"{path}: line {reader.line_num}: bad label "
                                f"{row[-2]!r}")
            rows.append(row)
    try:
        return _from_rows(rows, names)
    except ValueError as e:
        raise DataError(f"{path}: {e}") from e
