"""Reliable data from low-cost sensor networks anchored by reference sites.

The toolkit monitors each low-cost sensor against a proxy (an independent
trusted series expected to share its concentration distribution), raises
alarms when rolling-window tests stay out of bounds, recalibrates gain and
offset by matching window moments, and ships a deterministic network
simulator that provides ground truth for verification.
"""

from ozonet.alarms import (
    AlarmLedger,
    BreachFlags,
    SiteEngine,
    SiteRunResult,
    Thresholds,
    decide_correction,
    update_persistence,
)
from ozonet.calibrate import (
    CalibrationEstimate,
    EstimateHistory,
    apply_correction,
    moment_match,
)
from ozonet.errors import (
    ConfigError,
    DegenerateWindowError,
    InsufficientDataError,
    OzonetError,
)
from ozonet.kstest import ks_pvalue, ks_statistic
from ozonet.metrics import (
    BuddyCheck,
    GridField,
    PairMetrics,
    buddy_check,
    idw_grid,
    pair_metrics,
)
from ozonet.proxy import (
    ProxyAssignment,
    ProxyScore,
    SiteRecord,
    evaluate_proxy,
    nearest_reference,
    network_median_series,
    similar_aadt,
)
from ozonet.simulate import (
    DriftSegment,
    Scenario,
    ScenarioResult,
    SensorModel,
    SiteSpec,
    TruthModel,
    apply_sensor_model,
    generate_truth,
    run_scenario,
)
from ozonet.timeseries import TimeSeries, WindowSlice, align, window

__version__ = "0.1.0"

__all__ = [
    "AlarmLedger", "BreachFlags", "BuddyCheck", "CalibrationEstimate",
    "ConfigError", "DegenerateWindowError", "DriftSegment",
    "EstimateHistory", "GridField", "InsufficientDataError", "OzonetError",
    "PairMetrics", "ProxyAssignment", "ProxyScore", "Scenario",
    "ScenarioResult", "SensorModel", "SiteEngine", "SiteRecord",
    "SiteRunResult", "SiteSpec", "Thresholds", "TimeSeries", "TruthModel",
    "WindowSlice", "align", "apply_correction", "apply_sensor_model",
    "buddy_check", "decide_correction", "evaluate_proxy", "generate_truth",
    "idw_grid", "ks_pvalue", "ks_statistic", "moment_match",
    "nearest_reference", "network_median_series", "pair_metrics",
    "run_scenario", "similar_aadt", "update_persistence", "window",
]
