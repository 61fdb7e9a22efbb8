"""Bounded-length factorization certificates over matrix algebras."""

from .blocks import (
    BlockMatrix,
    DiagonalMatrix,
    ShapeMismatchError,
    block_l2,
    fourier_unitary,
    hermitian_spectral,
    normalized_trace,
    operator_norm,
    psd_sqrt,
    spectral_projection,
)
from .certs import (
    FactorizationCertificate,
    RowDecomposition,
    VerificationReport,
    add,
    conjugate,
    cost,
    direct_sum,
    evaluate,
    pad,
    pad_to,
    verify,
)
from .constructions import (
    IsometryFamily,
    ProjectionPartition,
    corner_embedding_certificate,
    diagonal_embedding_certificate,
    diagonal_partition,
    factor_through_family,
    family_from_projections,
    matrix_unit_family,
    pinch,
    pinch_certificate,
    partition_row_decomposition,
    projection_isometries,
    universal_depth1,
)
from .instances import random_instance
from .pipeline import (
    CONSTRUCTIONS,
    PipelineReport,
    UniformityError,
    assemble_from_approximant,
    direct_sum_certificate,
    pinching_pipeline,
    restrict_direct_sum,
    scalar_digest,
    uniformity_check,
)
from .simhom import (
    CbLowerBound,
    SimilarityHom,
    cb_lower_bound,
    similarity_cb_check,
)
from .splitting import SpectralSplit, split_small_l2

__version__ = "0.1.0"
