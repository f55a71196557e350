"""A sha256 pin on the exact output of the rep and form layers.

It hashes the perm and the signs of every generator of build_rep for
p + q <= 14, and of every find_admissible basis form for p + q <= 11
over all four (sigma, tau), in signature order.  A change in how a
signed permutation is held must leave these bits as they are.
"""

import hashlib

import numpy as np

from spinorlab.admissible_forms import find_admissible
from spinorlab.clifford_core import Signature, build_rep


def _signatures(max_n):
    return [Signature(p, n - p) for n in range(1, max_n + 1) for p in range(n, -1, -1)]


def _update(digest, element):
    for field in (element.perm, element.signs):
        digest.update(np.asarray(field, dtype=np.int64).tobytes())


def test_every_rep_generator_is_pinned():
    digest = hashlib.sha256()
    for sig in _signatures(14):
        for g in build_rep(sig).generators:
            _update(digest, g)
    assert digest.hexdigest() == "be4b5be9202d3b3c1c613b68aa2473b166f82654b5d9122fe67b480246db6c9c"


def test_every_admissible_basis_form_is_pinned():
    digest = hashlib.sha256()
    for sig in _signatures(11):
        rep = build_rep(sig)
        for sigma in (1, -1):
            for tau in (1, -1):
                for form in find_admissible(rep, sigma, tau):
                    _update(digest, form.matrix)
    assert digest.hexdigest() == "353ed146e831eac2f6fd05f1d22cfd24a046ae0851b03992dc515a6336df9f9a"
