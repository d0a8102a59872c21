"""Exact quadratic-form, valuation and linkage machinery over field towers.

Supported towers: finite fields GF(p^k) of odd characteristic, iterated
Laurent series GF(q)((t))((u))..., and rational function fields GF(p)(X)
as the outermost level.
"""

from .errors import (TowerFormsError, ParseError, ConfigUnsupported,
                     BudgetExceeded, IsotropicInput, PreconditionSpanViolated)
from .fields import (FieldTower, LevelDescriptor, Element, SampleBudget,
                     LAURENT, RATFUNC, format_element, is_square, sample,
                     sample_unit, valuation, residue)
from .qforms import (QuadraticForm, form, is_isotropic, witt_decompose,
                     witt_index, isometric, is_hyperbolic)
from .valuation import ValuationCtx, springer_decompose, residue_form
from .pfister import (QuadraticPfisterSymbol, BilinearPfisterSymbol, expand,
                      expand_bilinear, rewrite, normalize_last_slot,
                      good_slot_presentation, pfister_residues)
from .localglobal import (Place, places_of_interest, localize,
                          is_isotropic_global, hilbert_symbol,
                          isotropic_vector_global, witt_decompose_global)
from .linkage import (LinkageCertificate, VerificationReport, is_linked_pair,
                      find_certificate, check_top_d_linked,
                      verify_residue_transfer, verify_lifting_equivalence,
                      verify_higher_local_d1, NOT_FOUND)
from .dsl import (parse_field, parse_element, parse_form, parse_pfister,
                  format_form)
