"""spinorlab: exact real Clifford representations, admissible spinor
bilinear forms, the spinor-to-polyvector bracket, and numeric
Killing-spinor verification on model hyperquadrics."""

__version__ = "0.1.0"

from .clifford_core import (  # noqa: F401
    CliffordRep,
    Polyvector,
    Signature,
    build_rep,
    cone_even_iso,
    gamma_polyvector,
    gamma_vector,
)
from .admissible_forms import (  # noqa: F401
    BilinearForm,
    find_admissible,
    first_nondegenerate,
)
from .brackets import (  # noqa: F401
    SpinorSubspace,
    beta_form,
    bracket_k,
    null_kernel,
    obstruction_vectors,
    pi_image,
)
