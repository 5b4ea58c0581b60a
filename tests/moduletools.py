"""Module matrices of the left ideal H t, the independent oracle for the
characters and left kernels that the library reads off the central
idempotents and the regular trace."""

from hopflab.errors import NotSemisimpleError
from hopflab.linalg import Subspace, _left_ideal, _to_dense, wedderburn


def operator_on_subspace(algebra, x, space: Subspace):
    """Matrix (dense rows = images) of left multiplication by x, a sparse
    dict, restricted to a multiplication-invariant subspace, in that
    subspace's basis."""
    rows = []
    for b in space.sparse_basis:
        coords = space.sparse_coords(algebra.sparse_product(x, b))
        if coords is None:
            raise NotSemisimpleError("subspace not invariant under multiplication")
        rows.append(_to_dense(coords, space.dim, algebra.field))
    return rows


def module_action_from_idempotent(hopf, t):
    """Left-module matrices of the module H t (rows = images of the module
    basis), plus the module basis itself."""
    space = _left_ideal(hopf, t)
    return [operator_on_subspace(hopf, {i: hopf.field.one}, space) for i in range(hopf.dim)], space


def table_primitive_idempotents(algebra, table):
    """One primitive idempotent t_j per block of a character table, in the
    table's order: the blocks of wedderburn(algebra) matched to the table's
    by their central idempotents, since the table puts the integral's block
    first."""
    data = wedderburn(algebra)
    keys = [tuple(e) for e in data.central_idempotents]
    return [data.block_primitive_idempotents[keys.index(tuple(e))] for e in table.idempotents]
