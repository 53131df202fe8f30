"""Fingerprint enrollment and verification toolkit.

Coarse level: block orientation fields with certainty values feed a
self-organizing-map classifier (plain and certainty-weighted). Fine level:
minutiae are k-means clustered in a core-relative frame, the centroid
nearest-neighbor graph is summarized into a four-parameter index for
database bucketing, equivalence is exact graph isomorphism, and the final
accept/reject decision thresholds the Modified Hausdorff distance.
"""

from .cluster import ClusterResult, kmeans_fing, radial_seed
from .core import (
    CorePoint,
    Minutia,
    MinutiaKind,
    MinutiaeSet,
    RigidTransform,
    apply_transform,
    load_minutiae,
    parse_minutiae,
    save_minutiae,
    serialize_minutiae,
    to_core_relative,
)
from .evaluate import (
    EvalReport,
    ScenarioConfig,
    compute_far,
    parse_scenario,
    report_text,
    run_eval,
    serialize_scenario,
)
from .graph import (
    GraphIndex,
    MinutiaeGraph,
    build_nn_graph,
    compute_index,
    dist_matrix,
    index_string,
    is_isomorphic,
    parse_index_string,
)
from .matching import (
    DEFAULT_TAU,
    MatchScore,
    directed_hausdorff,
    hausdorff,
    modified_hausdorff,
)
from .orientation import (
    FeatureVector,
    FingerClass,
    GrayImage,
    OrientationField,
    detect_core,
    estimate_block_directions,
    extract_feature_vector,
    read_pgm,
    segment_by_certainty,
    write_pgm,
)
from .som import (
    InitMode,
    SomMap,
    TrainConfig,
    classify,
    find_winner,
    load_som,
    msom_blend,
    save_som,
    train_msom,
    train_som,
)
from .store import TemplateRecord, TemplateStore, VerifyResult, compute_signature
from .synth import (
    SynthConfig,
    gen_synthetic_minutiae,
    gen_synthetic_orientation,
    perturb_impression,
)

__version__ = "0.1.0"
