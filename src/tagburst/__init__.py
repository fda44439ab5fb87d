"""tagburst: genre-cluster discovery and self-exciting burst modeling for
tagged upload streams.

The pipeline: parse tagged events, cluster tags by co-occurrence, fit a
self-exciting point process per cluster, benchmark against Poisson-family
and ARIMA baselines by aic, forecast held-out counts, and attribute
activity to self-reinforcement, popularity, and exogenous factors.
"""

from .attribution import AttributionReport, attribution_report
from .baselines import (ArimaLiteParams, fit_arima_lite, fit_nhpp_drift, fit_pc_nhpp,
                        fit_poisson, forecast_arima)
from .forecast import (EvaluationTable, SplitSpec, conditional_mean_count, default_split,
                       evaluate_all, expected_count, holdout_log_likelihood, split_stream)
from .hawkes import (FitResult, HawkesParams, fit_mle, log_likelihood,
                     log_likelihood_gradient, rescaled_residuals)
from .ingest import Event, EventStream, ParseError, parse_events, write_events
from .simulate import (ClusterSpec, PopularityModel, SimConfig, make_synthetic_corpus,
                       simulate_hawkes)
from .taggraph import (GenreCluster, TagGraph, assign_videos, build_affinity_graph,
                       connected_components, extract_clusters, prune_graph)

__version__ = "0.1.0"
