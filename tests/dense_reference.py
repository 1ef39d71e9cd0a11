"""Dense reference constructions that tests compare the package against.

These build explicit permutation matrices; no path in the package needs them.
"""

from teleportlab.qmath import factor_permutation


def swap_matrix(dim_a: int, dim_b: int):
    """Unitary exchanging the two factors of an a (x) b product space."""
    return factor_permutation((dim_a, dim_b), (1, 0))
