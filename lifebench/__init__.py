"""Lifecycle benchmark of the DESAlign reproduction (see README.md)."""
