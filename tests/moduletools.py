"""Module matrices of the left ideal H t, the independent oracle for the
characters and left kernels that the library reads off the central
idempotents and the regular trace."""

from hopflab.linalg import _left_ideal, _operator_on_subspace, wedderburn


def module_action_from_idempotent(hopf, t):
    """Left-module matrices of the module H t (rows = images of the module
    basis), plus the module basis itself."""
    space = _left_ideal(hopf, t)
    return [_operator_on_subspace(hopf, {i: hopf.field.one}, space) for i in range(hopf.dim)], space


def table_primitive_idempotents(algebra, table):
    """One primitive idempotent t_j per block of a character table, in the
    table's order: the blocks of wedderburn(algebra) matched to the table's
    by their central idempotents, since the table puts the integral's block
    first."""
    data = wedderburn(algebra)
    keys = [tuple(e) for e in data.central_idempotents]
    return [data.block_primitive_idempotents[keys.index(tuple(e))] for e in table.idempotents]
