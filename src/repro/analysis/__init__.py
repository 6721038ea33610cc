"""Numerical analysis support: root finding and second derivatives."""

from . import numerics  # noqa: F401
