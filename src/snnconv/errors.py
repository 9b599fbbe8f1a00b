"""Exception hierarchy shared across the package.

The CLI maps these onto exit codes (config=2, data=3, invariant=4), so
library code should raise the most specific class that applies.
"""


class SnnConvError(Exception):
    """Base class for all package errors."""


class ParameterError(SnnConvError):
    """Invalid scalar parameter (non-positive threshold, T < 1, ...)."""


class ShapeError(SnnConvError):
    """Tensor shapes do not chain or do not match a declared input shape."""


class ConversionError(SnnConvError):
    """ANN cannot be converted (e.g. no classifier stage after the last activation)."""


class PairingError(SnnConvError):
    """An ANN/SNN pair passed to the error analysis does not share parameters."""


class DataFormatError(SnnConvError):
    """Malformed dataset or checkpoint bytes; message carries offset/line info."""


class DataValidationError(SnnConvError):
    """Dataset parsed fine but violates a semantic constraint (label range...)."""


class TrainingDivergenceError(SnnConvError):
    """Loss became non-finite during training."""
