"""biwkit: exact construction and certification of Bannai-Ito type
polynomial families, their difference-reflection operator realizations,
and the associated algebra relations.

Everything is checked in exact Gaussian-rational arithmetic, the truncated
tridiagonal representation included, except the orthogonality measure,
whose Gram matrix is certified numerically at a configurable working
precision.  Each name is imported from its module (``biwkit.errors``,
``biwkit.exact``, ``biwkit.polyfam``, ``biwkit.operators``,
``biwkit.reptheory``, ``biwkit.measure``, ``biwkit.cli``); the package
itself exports only ``__version__``.
"""

__version__ = "1.0.0"
