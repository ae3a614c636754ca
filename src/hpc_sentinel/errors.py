"""Exception hierarchy shared across the toolkit, and read_text of inputs.

DataError subclasses map to CLI exit code 3, NumericError to exit code 4.
"""

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
