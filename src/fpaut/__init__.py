"""Exact computation with automorphisms of free products of free-abelian
groups and free groups: normal forms, standard topological representatives
with their gates, growth and cancellation constants, searches for periodic
classes, twinned subgroups and Nielsen paths, empirical flare certificates,
and the abelianization conjugacy pipeline."""

__version__ = "0.1.0"

from .words import (CyclicWord, FactorSyllable, FreeSyllable, Presentation,
                    Syllable, Word, conjugacy_key, conjugate_test,
                    cyclic_normal_form, double_coset_rep, multiply,
                    reduce_syllables)
from .parsing import parse_word, render_word
from .automorphisms import (Automorphism, ad, apply, apply_power,
                            check_central_condition, compose,
                            identity_automorphism, inverse, is_toral, power,
                            validate)
from .matrices import (IntegerMatrix, char_poly, determinant,
                       invariant_factors, is_irreducible_matrix,
                       pf_growth_rate, smith_normal_form)
from .graph_maps import (EdgePath, GateStructure, GraphMap,
                         bounded_cancellation_constant,
                         build_standard_map, check_train_track,
                         constants_report, gate_structure, nielsen_search,
                         transition_matrix)
from .dynamics import (GrowthVerdict, OrbitData, SearchReport,
                       atoroidal_search, classify_growth,
                       enumerate_cyclic_words, flare_certify, orbit_lengths,
                       twin_search)
from .mapping_torus import (AbelianizationReport, BlockOrbitInstance,
                            ConjugacyVerdict, OrbitConstraint,
                            abelianized_action, block_orbit_solve,
                            conjugacy_pipeline, mapping_torus_abelianization)
