"""Numerical verification of disc rigidity, Herglotz atom concentration, and
shift-semigroup factorizations at finite dimension and grid resolution."""

__version__ = "0.1.0"
