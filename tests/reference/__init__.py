"""Scalar reference implementations that shipped code is pinned against."""
