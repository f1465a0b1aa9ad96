"""Grounded situation recognition toolkit.

Frame data model, dataset IO and statistics, detection-geometry kernels,
late-fusion grounding assignment, the five-metric evaluation suite,
grounded-semantic retrieval, and situation chaining, with a `swig` CLI.
"""

__version__ = "0.1.0"
SCHEMA_VERSION = "1"

from .frame_model import (  # noqa: F401
    NULL_NOUN,
    PLACE_ROLE,
    BoundingBox,
    GroundedFrame,
    NounVocabulary,
    VerbLexicon,
)
from .dataset_io import (  # noqa: F401
    DatasetError,
    DatasetTable,
    PredictionTable,
    compute_stats,
    load_dataset,
    load_predictions,
    merge_worker_boxes,
)
from .geometry import (  # noqa: F401
    ScoredBox,
    cluster_aspect_ratios,
    iou,
    nms,
)
from .fusion import DetectionSet, assign_groundings  # noqa: F401
from .metrics import (  # noqa: F401
    ValueAllMode,
    VerbSetting,
    evaluate,
    macro_average,
    score_grounding,
    score_noun,
)
from .loss_kernels import (  # noqa: F401
    FocalParams,
    LossParts,
    SmoothingParams,
    focal_loss,
    l1_reg,
    smoothed_ce,
    total_loss,
)
from .retrieval import (  # noqa: F401
    DetectionList,
    L2Scorer,
    ObjScorer,
    SitScorer,
    SituationPrediction,
    gr_sit_sim,
    l2_similarity,
    obj_sim,
    retrieve_topk,
    sit_sim,
    split_query_search,
)
from .chaining import SituationNode, chain  # noqa: F401
