"""Exact constructions of almost-uniform, arithmetically independent sets
of quadratic and cubic algebraic integers, with tiling, search, and
bit-extraction tooling on top.  All arithmetic is exact: integers,
fractions, and certified interval refinement."""

from .algebraic import (AlgebraicNumber, PrecisionExhausted,
                        irrational_real_roots, same_number)
from .bits import (BitStream, ComplementReport, RunStats, binary_expansion,
                   bit_stats, complement_check)
from .coverage import (CommonIndexResult, GeneratorWitness, InvalidTarget,
                       NotQuadratic, ObstructionReport, QuadLayerReport,
                       SearchResult, TileIndex, TilingReport, WrongSignature,
                       common_index_witnesses, find_common_index,
                       find_generator, quad_layer_report, tile_locate,
                       trace_obstruction_demo, verify_tiling)
from .families import (FAMILIES, InvalidParams, QuadraticException,
                       RationalRoot, SetInstance, SetSpec,
                       bc_root, bc_shift_params, build_set, classify_exception,
                       quadratic_exception, reflect_spec)
from .fields import (Collision, FieldExpression, FieldId, IndependenceReport,
                     char_poly, express_in, independence_report, same_field,
                     spec_in_guaranteed_range, squarefree_kernel)
from .polynomials import MonicIntPoly
from .tables import TABLES, render_table, table_rows
from .uniformity import (BoundCheck, TooFewElements, UniformityReport,
                         discrepancy, half_split, im_fractional,
                         uniformity_report)

__all__ = [
    "AlgebraicNumber", "BitStream", "BoundCheck", "Collision",
    "CommonIndexResult", "ComplementReport",
    "FieldExpression", "FieldId", "FAMILIES", "GeneratorWitness",
    "IndependenceReport", "InvalidParams", "InvalidTarget", "MonicIntPoly",
    "NotQuadratic", "ObstructionReport", "PrecisionExhausted",
    "QuadLayerReport", "QuadraticException", "RationalRoot", "RunStats",
    "SearchResult", "SetInstance", "SetSpec", "TABLES",
    "TileIndex", "TilingReport", "TooFewElements", "UniformityReport",
    "WrongSignature", "bc_root", "bc_shift_params", "binary_expansion",
    "bit_stats", "build_set", "char_poly", "classify_exception",
    "common_index_witnesses", "complement_check",
    "discrepancy", "express_in", "find_common_index", "find_generator",
    "half_split", "im_fractional", "independence_report",
    "irrational_real_roots", "quad_layer_report", "quadratic_exception",
    "reflect_spec", "render_table", "same_field", "same_number",
    "spec_in_guaranteed_range", "squarefree_kernel", "table_rows", "tile_locate",
    "trace_obstruction_demo", "uniformity_report", "verify_tiling",
]
