"""Work counts pinned as exact budgets: the closed-form box rules form no
Minkowski pair and compare no key."""
import itertools
from unittest import mock

import numpy as np

from folnerlab import groups
from folnerlab.groups import ZSum, product_set, union, zsum_box
from folnerlab.tiling import TilingCert, ZSumLatticeCenters, ZSumScaleIso, compose

SHAPES = [t for n in (1, 2, 3) for t in itertools.product(range(1, 5), repeat=n)]


def test_zsum_box_identities_form_no_product_pair():
    # every shape pair (a, b) with len(a) <= len(b), a padded with ones:
    # tile(a) . iso_a(box b) is box(a * b), box a . box b is box(a + b - 1),
    # and box a u box b is box b itself when a <= b entrywise
    g = ZSum()
    boxes = {s: zsum_box(g, s) for s in SHAPES}
    certs = {s: TilingCert(boxes[s], ZSumLatticeCenters(g, s), ZSumScaleIso(g, s))
             for s in SHAPES}
    pairs = unions = 0
    with mock.patch.object(groups, "_product", wraps=groups._product) as products, \
            mock.patch.object(np, "array_equal", wraps=np.array_equal) as key_compares:
        for a, b in itertools.product(SHAPES, SHAPES):
            if len(a) > len(b):
                continue
            A = a + (1,) * (len(b) - len(a))
            assert compose(certs[a], boxes[b]) == zsum_box(g, tuple(
                x * y for x, y in zip(A, b)))
            assert product_set(boxes[a], boxes[b]) == zsum_box(g, tuple(
                x + y - 1 for x, y in zip(A, b)))
            if all(x <= y for x, y in zip(A, b)):
                U = union(boxes[a], boxes[b])  # box a when the two are equal
                assert U is boxes[b] or (U is boxes[a] and U == boxes[b])
                unions += 1
            pairs += 1
    assert (pairs, unions) == (5712, 1710)
    assert products.call_count == 0 and key_compares.call_count == 0
