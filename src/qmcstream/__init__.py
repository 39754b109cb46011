"""Streaming estimation, exact oracles, and Fourier checks for Quantum Max-Cut."""
