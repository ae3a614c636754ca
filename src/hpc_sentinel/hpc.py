"""The 30 instruction-counter features, windowed extraction, and datasets.

Five unigram counters (a, b, l, n, s) plus the 25 ordered bigram counters
(xy = x immediately followed by y). Counters tally per fixed-size window of
consecutive instructions and reset at window boundaries; pairs never span
windows and pairs touching an uncategorized instruction count nowhere.
"""

import csv
from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .asm import InstructionCategory
from .errors import InconsistentFeatures

DEFAULT_WINDOW = 50

_CLASS_SYMBOLS = "ablns"  # code order

FEATURE_NAMES = tuple(_CLASS_SYMBOLS) + tuple(
    x + y for x in _CLASS_SYMBOLS for y in _CLASS_SYMBOLS)

LABEL_BENIGN = "benign"
LABEL_MALICIOUS = "malicious"

ATTACK_KINDS = ("mppt_dos", "inverter_dos", "input_array", "input_sine")


@dataclass(frozen=True)
class HpcVector:
    """One window's 30 counters plus window bookkeeping."""

    counts: np.ndarray  # (30,) int64 in FEATURE_NAMES order
    window_len: int
    partial: bool = False

    def __getitem__(self, name):
        return int(self.counts[FEATURE_NAMES.index(name)])

    def as_dict(self):
        return {n: int(c) for n, c in zip(FEATURE_NAMES, self.counts)}

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
    codes = np.ascontiguousarray(codes, dtype=np.int64)
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


@dataclass(frozen=True)
class Sample:
    firmware_id: str
    window_index: int
    features: HpcVector
    label: str
    attack_kind: str | None = None

    def __post_init__(self):
        if self.label not in (LABEL_BENIGN, LABEL_MALICIOUS):
            raise ValueError(f"bad label {self.label!r}")
        if (self.label == LABEL_BENIGN) != (self.attack_kind is None):
            raise ValueError("benign samples carry no attack kind and "
                             "malicious samples require one")


@dataclass
class Dataset:
    """Ordered labeled samples over a fixed feature-name list."""

    samples: list = field(default_factory=list)
    feature_names: tuple = FEATURE_NAMES

    def __len__(self):
        return len(self.samples)

    def matrix(self):
        """(n, F) int64 feature matrix in feature_names order."""
        idx = [FEATURE_NAMES.index(n) for n in self.feature_names]
        if not self.samples:
            return np.zeros((0, len(idx)), dtype=np.int64)
        return np.stack([s.features.counts[idx] for s in self.samples])

    def labels(self):
        """(n,) int64 array, malicious = 1."""
        return np.fromiter((1 if s.label == LABEL_MALICIOUS else 0
                            for s in self.samples),
                           dtype=np.int64, count=len(self.samples))

    def class_counts(self):
        y = self.labels()
        return int((y == 0).sum()), int((y == 1).sum())

    def project(self, feature_names):
        """Same samples restricted to a feature subset (counts are shared,
        the view is by feature_names)."""
        missing = [n for n in feature_names if n not in self.feature_names]
        if missing:
            raise InconsistentFeatures(f"features not in dataset: {missing}")
        return Dataset(samples=list(self.samples),
                       feature_names=tuple(feature_names))

    def subset(self, indices):
        return Dataset(samples=[self.samples[i] for i in indices],
                       feature_names=self.feature_names)

    def to_csv(self, path):
        write_dataset_csv(self, path)

    @classmethod
    def from_csv(cls, path):
        return read_dataset_csv(path)


def emit_dataset(runs, path=None, feature_names=FEATURE_NAMES):
    """Assemble labeled windows from several firmware runs into one Dataset.

    runs: iterable of (firmware_id, label, attack_kind, windows). Row order
    follows input order. Writes CSV when path is given.
    """
    samples = []
    for firmware_id, label, attack_kind, windows in runs:
        for w, vec in enumerate(windows):
            if len(vec.counts) != len(FEATURE_NAMES):
                raise InconsistentFeatures(
                    f"{firmware_id}: window {w} has {len(vec.counts)} counters")
            samples.append(Sample(firmware_id=firmware_id, window_index=w,
                                  features=vec, label=label,
                                  attack_kind=attack_kind))
    ds = Dataset(samples=samples, feature_names=tuple(feature_names))
    if path is not None:
        write_dataset_csv(ds, path)
    return ds


def write_dataset_csv(ds, path):
    header = (["firmware_id", "window_index", "partial"]
              + list(ds.feature_names) + ["label", "attack_kind"])
    idx = [FEATURE_NAMES.index(n) for n in ds.feature_names]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for s in ds.samples:
            row = ([s.firmware_id, s.window_index, int(s.features.partial)]
                   + [int(s.features.counts[i]) for i in idx]
                   + [s.label, s.attack_kind or ""])
            writer.writerow(row)


def read_dataset_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        try:
            lo = header.index("partial") + 1
            hi = header.index("label")
        except ValueError:
            raise InconsistentFeatures(f"{path}: not a dataset CSV") from None
        names = tuple(header[lo:hi])
        unknown = [n for n in names if n not in FEATURE_NAMES]
        if unknown:
            raise InconsistentFeatures(f"{path}: unknown features {unknown}")
        samples = []
        for row in reader:
            counts = np.zeros(len(FEATURE_NAMES), dtype=np.int64)
            for name, value in zip(names, row[lo:hi]):
                counts[FEATURE_NAMES.index(name)] = int(value)
            # True window length is not recoverable from counters alone
            # (uncategorized instructions fill slots silently).
            vec = HpcVector(counts=counts, window_len=-1,
                            partial=bool(int(row[2])))
            samples.append(Sample(
                firmware_id=row[0], window_index=int(row[1]), features=vec,
                label=row[hi], attack_kind=row[hi + 1] or None))
    return Dataset(samples=samples, feature_names=names)
