"""Exception hierarchy shared across the package, and the one rule for its
scalar parameters.

The CLI maps these onto exit codes (config=2, data=3, invariant=4), so
library code should raise the most specific class that applies.

Every count, size and seed goes through :func:`whole`, every real-valued
parameter through :func:`finite`, and every threshold and the learning rate
through :func:`positive`: a count is an ``int`` or a numpy integer (``2.0``
is refused, as by ``range``), a number is finite in float64, and a threshold
is a number above zero; a ``bool`` is neither.  All three raise
:class:`ParameterError` otherwise; none is called inside a per-step loop.
"""

import math
import numbers
import operator


class SnnConvError(Exception):
    """Base class for all package errors."""


class ParameterError(SnnConvError):
    """Invalid scalar parameter (non-positive threshold, T < 1, ...)."""


def whole(value, name: str, least: int = 1) -> int:
    """``value`` as an ``int`` by Python's index rule, if it is no ``bool``
    and at least ``least``."""
    try:
        value = operator.index(None if isinstance(value, bool) else value)
    except TypeError:
        raise ParameterError(f"{name} must be an integer, got {value!r}") from None
    if value < least:
        raise ParameterError(f"{name} must be >= {least}, got {value}")
    return value


def finite(value, name: str) -> float:
    """``value`` as a ``float``, if it is a real number, no ``bool``, and
    neither NaN nor infinite in float64."""
    try:
        if isinstance(value, numbers.Real) and not isinstance(value, bool) and math.isfinite(value):
            return float(value)
    except OverflowError:  # an int or Fraction beyond float64
        pass
    raise ParameterError(f"{name} must be a finite number, got {value!r}")


def positive(value, name: str) -> None:
    """Refuse ``value`` unless it is a finite number above zero."""
    if finite(value, name) <= 0:
        raise ParameterError(f"{name} must be finite and > 0, got {value!r}")


class ShapeError(SnnConvError):
    """Tensor shapes do not chain or do not match a declared input shape."""


class ConversionError(SnnConvError):
    """ANN cannot be converted (e.g. no classifier stage after the last activation)."""


class DataFormatError(SnnConvError):
    """Malformed dataset or checkpoint bytes; message carries offset/line info."""


class DataValidationError(SnnConvError):
    """Dataset parsed fine but violates a semantic constraint (label range...)."""


class TrainingDivergenceError(SnnConvError):
    """Loss became non-finite during training."""
