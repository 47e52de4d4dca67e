"""Exception types shared across the package."""


class ShapeError(ValueError):
    """Operand shapes are inconsistent with the operation's contract."""


class LabelError(ValueError):
    """A class label or attack name is outside the known range/vocabulary."""


class DataError(ValueError):
    """Malformed input data: parse failures, bad file formats, schema misuse."""


class CheckpointError(DataError):
    """A checkpoint file is corrupt, truncated, or incompatible."""


class TrainingDiverged(RuntimeError):
    """Training produced a non-finite loss or final state; the message names
    the epoch and batch of the step."""


class ConvergenceError(RuntimeError):
    """An iterative solver hit its iteration cap; message names the case."""
