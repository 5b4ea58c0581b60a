"""Module matrices of the left ideal H t, the independent oracle for the
characters and left kernels that the library reads off the central
idempotents and the regular trace."""

from hopflab.linalg import _left_ideal, _operator_on_subspace


def module_action_from_idempotent(hopf, t):
    """Left-module matrices of the module H t (rows = images of the module
    basis), plus the module basis itself."""
    space = _left_ideal(hopf, t)
    return [_operator_on_subspace(hopf, hopf.basis(i), space) for i in range(hopf.dim)], space
