"""phaselab: a numerical laboratory for the integer phase invariant of an
S3-parametrized spin-1/2 dimer chain, with the projective-geometric,
C*-algebraic, Cech-cohomological and homotopy-theoretic machinery it is
built from. The package imports none of its modules: each loads on use."""

__version__ = "0.1.0"
