"""Exact symbolic computation in quantum matrix superalgebras.

Everything is computed over Z[q, q^-1] with arbitrary-precision integer
coefficients; there is no floating point anywhere and no tolerance other
than exact equality.

The package root defines nothing: import each name from its module, e.g.
``from qmatalg.invariants import fft_check``, so that importing a module
loads only the modules it imports.
"""
