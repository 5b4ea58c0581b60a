"""The integral of an algebra with a counit by its defining linear system,
the independent oracle for the integrals that the library reads off
traces: the regular characters for H and H*, the trace form of N for a
coideal subalgebra N."""

from hopflab.errors import IntegralError
from hopflab.linalg import _kernel_of_images, _tensor_add, vec_scale


def solve_integral(algebra, counit):
    """The unique x with e_i x = eps(e_i) x for every i, normalized so that
    eps(x) = 1, as the kernel of a system with dim^2 equation rows."""
    dim, field = algebra.dim, algebra.field
    images = []
    for j in range(dim):
        image = {}  # e_j |-> sum_i e_i (x) (e_i e_j - eps(e_i) e_j)
        for i in range(dim):
            for m, c in algebra.mult[i].get(j, {}).items():
                _tensor_add(image, (i, m), c)
            _tensor_add(image, (i, j), -counit[i])
        images.append(image)
    sols = _kernel_of_images(field, images)
    if sols.dim != 1:
        raise IntegralError(f"integral solution space has dim {sols.dim}, not 1")
    x = list(sols.basis[0])
    eps_x = sum((c * xi for c, xi in zip(counit, x)), field.zero)
    if eps_x.is_zero():
        raise IntegralError("integral has counit zero; input is not semisimple")
    return vec_scale(x, eps_x.inverse())
