"""Coherent-state frames and numerical Weyl-law verification."""

__version__ = "0.1.0"
