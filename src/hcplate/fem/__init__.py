from .assemble import (ScaledGradientSpec, assemble_bfs_h2,
                       assemble_element_load, assemble_pointwise_load,
                       assemble_rect_block, assemble_vector_h1,
                       constant_reduced_field, translations_kernel)
from .system import (DofMap, EigWorkspace, SolverError, SparseOperatorPair,
                     detect_kernel, eigs_smallest, factorize, fix_signs,
                     solve_spd)

__all__ = [
    "ScaledGradientSpec", "assemble_bfs_h2", "assemble_element_load",
    "assemble_pointwise_load", "assemble_rect_block", "assemble_vector_h1",
    "constant_reduced_field", "translations_kernel", "DofMap", "EigWorkspace",
    "SolverError", "SparseOperatorPair", "detect_kernel", "eigs_smallest",
    "factorize", "fix_signs", "solve_spd",
]
