"""Exact local computations for Whittaker functions, zeta integrals and
weight factors, with machine-checked verification suites.

Everything is computed over the rationals: Laurent polynomials with
half-integer powers of the residue cardinality, truncated power series,
Schur polynomials, congruence indices and character sums.  No identity
check uses floating point: the ``charsum`` suite checks each character sum
against the same sum computed exactly in the cyclotomic ring Z[zeta_q].  The
``cmath`` root-of-unity sum of ``character_sum_numeric`` only fills the
``numericOracle`` display field of the ``charsum`` command.

Importing the package loads none of its modules, so a command line pays
only for the layers it runs: import each name from its module.
"""

__version__ = "0.1.0"
