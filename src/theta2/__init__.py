"""Exact module structure and numerical certification for genus-2 theta gradients."""

from .chars import (
    Characteristic,
    EVEN_CHARS,
    ODD_CHARS,
    azygetic_quadruple,
    five_term_decompositions,
    is_azygetic,
    parity,
)
from .groebner import (
    GFP1,
    GFP2,
    QQ,
    GroebnerBasis,
    MonomialOrder,
)
from .symbolic import (
    GradedPoly,
    HilbertSeries,
    ModuleElement,
    graded_dimension,
    monomial_divide,
)
from .thetaring import (
    RelationOracle,
    StructurePipeline,
    d_table,
    extr_a,
    extr_b,
    extr_h,
    rel_d,
    riemann_ideal,
    sextets,
    bracket_modules,
)

__version__ = "0.1.0"
