"""Exception hierarchy shared across the toolkit, and the one reader of
text inputs (read_text) and the one reader and writer of JSON files
(read_json, write_json).

DataError subclasses map to CLI exit code 3, NumericError to exit code 4.
"""

import json
from pathlib import Path


class SentinelError(Exception):
    pass


class DataError(SentinelError):
    pass


class NumericError(SentinelError):
    pass


class AnchorNotFound(DataError):
    def __init__(self, anchor):
        super().__init__(f"anchor label {anchor!r} not found in base listing")
        self.anchor = anchor


class PayloadUnparsable(DataError):
    pass


class EmptyPayload(PayloadUnparsable):
    def __init__(self, message="injection payload is empty"):
        super().__init__(message)


class InconsistentFeatures(DataError):
    pass


class TooFewSamples(DataError):
    pass


class SingleClass(DataError):
    pass


class EmptyDataset(DataError):
    pass


class NonFiniteLoss(NumericError):
    def __init__(self, epoch, loss):
        super().__init__(f"training diverged at epoch {epoch}: loss={loss}")
        self.epoch = epoch
        self.loss = loss


class DegenerateCovariance(DataError):
    pass


class TooManyExclusions(DataError):
    pass


def read_text(path, stage: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as e:
        raise DataError(f"{stage}: cannot read {path}: {e}") from e
    except UnicodeDecodeError as e:
        raise DataError(f"{stage}: {path} is not UTF-8 text: {e}") from e


def read_json(path, what: str, from_dict):
    """from_dict of the JSON document in the UTF-8 file at path. A file
    that cannot be read, is not JSON (nesting too deep for the parser
    included) or that from_dict rejects raises DataError naming what and
    the path."""
    text = read_text(path, what)
    try:
        return from_dict(json.loads(text))
    except (ValueError, TypeError, KeyError, OverflowError,
            RecursionError) as e:
        raise DataError(f"{what} {path}: {e}") from e


def write_json(path, obj):
    """obj as indented JSON plus a newline, streamed to the file at path."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2)
        fh.write("\n")
