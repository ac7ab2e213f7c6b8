"""qram: exact q-series arithmetic for Eisenstein-type identities.

Truncated power series over exact rationals, the classical and signed
Eisenstein generators, divisor-sum convolutions checked against a brute-force
oracle, symbolically re-derived ratio and Phi tables, and arbitrary-precision
confirmation of closed-form special values.
"""

from . import divisors, generators, identities, numeric, series, weighted

__version__ = "0.1.0"
