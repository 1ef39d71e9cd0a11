"""Reference constructions that tests compare the package against.

These build explicit permutation matrices or contract in the plainest form;
no path in the package needs them.
"""

import numpy as np

from teleportlab.protocol import block_operators
from teleportlab.qmath import factor_permutation


def swap_matrix(dim_a: int, dim_b: int):
    """Unitary exchanging the two factors of an a (x) b product space."""
    return factor_permutation((dim_a, dim_b), (1, 0))


def lambda_reference(proto):
    """Control operators sum_i mu_i B[k,i] (x) A[l,i]^T by one three-operand
    einsum over the blocks, as an (M, P, P, N^2, N^2) array."""
    a, b = block_operators(proto)
    ops = np.einsum("i,ekibc,elida->eklbacd", proto.resource.mu, b, a)
    m, p, _, n, _, _, _ = ops.shape
    return ops.reshape(m, p, p, n * n, n * n)
