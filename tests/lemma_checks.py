"""Exact checks of two of the paper's lemmas, on given inputs: that a tile
composed with the images of a Folner sequence is a Folner sequence of the
center subgroup, tiling it along the way, and that the indicator
decomposition of a box over its core transfers to family values.

``folnerlab`` runs neither lemma in a subcommand; they are test helpers
built on its set algebra and certificates, as ``scalar_oracle`` is for the
window paths.
"""
import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from folnerlab.families import Family
from folnerlab.folner import FolnerSeq, folner_defect
from folnerlab.groups import (FinSet, ZPower, erode, multiplicity, product_set,
                              translate_right)
from folnerlab.systems import System
from folnerlab.tiling import (Iso, LatticeCenters, TilingCert, standard_cert,
                              tiles_window_report, window_set)
from scalar_oracle import sample

# ---------------------------------------------------------------------------
# Composed tiling Folner sequences inside a center subgroup


@dataclass(frozen=True)
class ComposedSeqReport:
    tile_in_subgroup: bool
    partition_ok: bool
    defects: tuple
    tilings: tuple

    @property
    def ok(self) -> bool:
        return (self.tile_in_subgroup and self.partition_ok
                and all(self.tilings)
                and all(b <= a for a, b in zip(self.defects, self.defects[1:])))


def composed_seq_check(cert1: TilingCert, cert2: TilingCert, T: FinSet,
                       seq: FolnerSeq, indices: Sequence[int],
                       radius: int = 24) -> ComposedSeqReport:
    """Check that T (tiling the center subgroup of cert1 with centers from
    cert2) composed with the images of a Folner sequence yields a Folner
    sequence of that subgroup, tiling it along the way.

    Implemented for ZPower lattice certificates and for the degenerate
    prefix cases on CyclicSum.
    """
    grp = T.group
    tile_in = bool(cert1.centers.contains_rows(T.rows()).all())

    window = window_set(grp, radius)
    sub_window = window.take(cert1.centers.contains_rows(window.rows()))
    part_cert = TilingCert(T, cert2.centers)
    partition_ok, _, _ = tiles_window_report(part_cert, sub_window)

    gens = grp.generators()
    if isinstance(grp, ZPower):
        gens = [Iso(grp, cert1.centers.moduli).apply(g) for g in gens]

    defects = []
    tilings = []
    for n in indices:
        Fn = seq.generate(n)
        composed = product_set(T, cert2.iso.image_set(Fn))
        defects.append(sum((folner_defect(FinSet(grp, [g]), composed) for g in gens),
                           start=Fraction(0)))
        centers = _image_centers(cert2, standard_cert(seq, n))
        tilings.append(centers is not None and tiles_window_report(
            TilingCert(composed, centers), sub_window)[0])
    return ComposedSeqReport(tile_in, partition_ok, tuple(defects), tuple(tilings))


def _image_centers(outer: TilingCert, inner: Optional[TilingCert]):
    """Centers of a composed tile: the image of the inner centers under the
    outer iso, the lattice of the first ``shift`` periods and the inner
    moduli scaled."""
    if inner is None:
        return None
    iso, c = outer.iso, inner.centers
    pairs = itertools.zip_longest(c.moduli, iso.scale, fillvalue=1)
    return LatticeCenters(c.group, tuple(c.group.period(j) for j in range(iso.shift))
                          + tuple(m * s for m, s in pairs))


# ---------------------------------------------------------------------------
# Indicator decompositions


def box_core_decomposition(F: FinSet, T: FinSet):
    """Exact decomposition 1_F = (1/|T|) * sum over core g of 1_{Tg} plus a
    layer-cake residual, returned as [(coefficient, set)] with Fraction
    coefficients."""
    core = erode(F, T)
    terms = [(Fraction(1, len(T)), translate_right(T, g)) for g in core.elems]
    residual = [1 - Fraction(m, len(T)) for m in multiplicity(T, core, F).tolist()]
    if any(w < 0 for w in residual):
        raise ValueError("core translates overflow the target set")
    levels = sorted({w for w in residual if w > 0}, reverse=True)
    # peel superlevel sets from the top so coefficients stay positive
    for j, w in enumerate(levels):
        layer = F.take([wx >= w for wx in residual])
        coeff = w - (levels[j + 1] if j + 1 < len(levels) else Fraction(0))
        terms.append((coeff, layer))
    return terms


def indicator_identity_holds(E: FinSet, terms) -> bool:
    """Exact check that the weighted indicator sum reproduces 1_E."""
    support: dict = {}
    for a, Ei in terms:
        for x in Ei.elems:
            support[x] = support.get(x, 0) + Fraction(a)
    want = dict.fromkeys(E.elems, 1)
    return (want.keys() <= support.keys()
            and all(w == want.get(x, 0) for x, w in support.items()))


_DECOMPOSITION_SAMPLES = 50
_DECOMPOSITION_SEED = 11


def indicator_decomposition_check(fam: Family, system: System, E: FinSet,
                                  terms) -> dict:
    """Validate 1_E = sum a_i 1_{E_i} exactly, then test the induced value
    inequality d_E(y) <= sum a_i d_{E_i}(y) on sampled points."""
    if not indicator_identity_holds(E, terms):
        raise ValueError("indicator identity does not hold; decomposition bug")
    rng = np.random.default_rng(_DECOMPOSITION_SEED)
    pts = sample(system, [rng] * _DECOMPOSITION_SAMPLES)  # one shared generator
    rhs = np.zeros(len(pts))
    for a, Ei in terms:  # summed term by term, in order
        rhs = rhs + float(a) * fam.sample_values(system, Ei, pts)
    gaps = fam.sample_values(system, E, pts) - rhs
    tol = 0.0 if fam.exact_values else 1e-9
    return {"ok": bool((gaps <= tol).all()), "max_violation": float(gaps.max()),
            "samples": _DECOMPOSITION_SAMPLES}
