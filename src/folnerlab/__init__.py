"""Computational laboratory for averaging theorems on amenable groups.

Exact layers: group/finite-set arithmetic, Folner diagnostics, tiling
certificates and composition, the greedy covering construction, and
deterministic set-function limits.  Statistical layers: sampled dynamical
systems, value families over finite index sets, and convergence runners with
machine-checked hypothesis gates.
"""
from ._bits import HASH_VERSION, VERSION
from .ergodic import (ConvergenceReport, Estimate, GateRefusal,
                      GreedyCoverReport, LimitReport, MaximalReport,
                      SetFunction, birkhoff_check, dprime_m_diagnostics,
                      ergodic_decomposition_check, greedy_cover, kingman_run,
                      limsup_identity_check, maximal_inequality_check,
                      nu_estimate, sample_points, setfn_classify,
                      setfn_limit_strong, setfn_limit_tiling, setfn_registry,
                      truncation_ladder)
from .families import (AdditiveFamily, AdditivePlus, ClassifyReport,
                       ConcaveCardinality, DerivedPrime, DerivedPrimeM,
                       Family, GAMMAS, MaxFamily, MaxOfAdditives,
                       MinusCardSquared, PROPERTIES, Truncated, classify,
                       family_from_json)
from .folner import (FolnerSeq, defect_profile, folner_defect,
                     invariance_check, make_folner, ratios_look_divergent,
                     tempelman_report, tempered_report)
from .groups import (BudgetError, CyclicSum, EnumBudget, FinSet, Group,
                     GroupMismatchError, ZPower, ZSum, enumerate_finsets, erode,
                     intersect, inverse_set, is_subset, multiplicity,
                     product_set, symdiff, translate_right, union)
from .systems import (BernoulliShift, FiniteMixture, Observable, System,
                      TorusRotation, UnsupportedObservable, indicator_symbol,
                      neg_pow_run, observable_from_json, scaled, symbol_value,
                      torus_coordinate)
from .tiling import (TilingCert, TilingOverlapError, compose,
                     condition_b_witness, enumerate_tiles, standard_cert,
                     tiles_window_report, window_set)

__version__ = VERSION
