"""Scalar reference implementations the production code is checked against."""
