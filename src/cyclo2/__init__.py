"""Exact F2 cyclic homology and its generators-and-relations approximations.

The package computes Hochschild, cyclic, negative cyclic and periodic
cyclic homology of finitely presented (graded) commutative F2-algebras,
builds the approximation functors ell, ell+, ell_per from their
presentations, and verifies degreewise whether the natural comparison maps
are isomorphisms.
"""

from .approx import (
    ApproxReport,
    psi_class,
    psi_generator_image,
    psi_matrix,
    verify_approximation,
    verify_squares,
)
from .cyclic import (
    HomologyPresentation,
    TowerSlice,
    build_tower,
    e1_page,
    e2_page,
    homology,
    les_map,
    truncation,
)
from .derham import (
    antisymmetrize,
    cartier,
    de_rham_cohomology,
    de_rham_d,
    omega_basis,
)
from .ell import (
    ell_degree_basis,
    f_bar,
    gr_ell,
    map_r,
    map_tau,
    s_bar,
    star_product,
)
from .f2linalg import (
    F2Matrix,
    PresentedSpace,
    SubspaceBasis,
    rank_kernel_image,
)
from .gralg import (
    AlgebraPresentation,
    dual_numbers,
    field_f4,
    polynomial_algebra,
    trivial_algebra,
)
from .hochschild import (
    UChain,
    cyclic_shuffles,
    mu_chain,
    shuffle_product,
    shuffles,
)

__version__ = "0.1.0"
