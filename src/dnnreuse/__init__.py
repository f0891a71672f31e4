"""Static analyzer for data reuse and energy efficiency of DNN compute graphs.

Counts MACs, weights, and activations over a declarative layer graph,
derives arithmetic-intensity and weighted-intensity metrics, classifies
workloads against hardware rooflines, and validates the metrics against
measured power/latency via correlation statistics.
"""

from .errors import DegenerateDataError, InputError
from .graph import (
    CycleError,
    DanglingInputError,
    DuplicateNameError,
    LayerSpec,
    ModelError,
    ModelGraph,
    ModelSyntaxError,
    ShapeError,
    TensorShape,
    UnknownKindError,
    parse_model,
    topo_order,
)
from .layercost import LayerCost, layer_cost
from .measure import (
    MeasurementRecord,
    energy_efficiency,
    load_measurements,
)
from .metrics import (
    CaseTag,
    classify_case,
    disparity,
    weighted_intensity,
)
from .netprofile import (
    LayerStats,
    NetworkProfile,
    aggregate,
    batch_scale,
    layerwise_ai_stats,
    load_profiles,
    peak_concurrent_activations,
)
from .roofline import (
    Bound,
    HardwareSpec,
    RooflineChart,
    RooflinePoint,
    classify,
    load_hardware_spec,
    roofline_points,
)
from .stats import (
    CalibrationCurve,
    CalibrationPoint,
    ConfidenceInterval,
    alpha_grid,
    alpha_sweep,
    fisher_ci,
    fisher_z_width,
    pearson,
    select_alpha,
    spearman,
)

__version__ = "0.1.0"
