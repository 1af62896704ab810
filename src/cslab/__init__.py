"""Compressive acquisition laboratory.

Sparse-spectrum signal generation, randomized sub-Nyquist measurement,
midrise quantization, sparse recovery, closed-form performance brackets, and
a reproducible Monte Carlo harness with a CLI front end.
"""

__version__ = "0.1.0"
