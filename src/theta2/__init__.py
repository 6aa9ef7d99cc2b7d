"""Exact module structure and numerical certification for genus-2 theta gradients."""

__version__ = "0.1.0"
