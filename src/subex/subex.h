#ifndef SUBEX_SUBEX_H_
#define SUBEX_SUBEX_H_

/// \file
/// Umbrella header: the full public API of subex, the anomaly-explanation
/// evaluation testbed (detectors, explainers, summarizers, datasets,
/// metrics, and the pipeline runner).
///
/// Typical usage:
///
///   #include "subex/subex.h"
///
///   subex::SyntheticDataset data = subex::GenerateFigure1Dataset(42);
///   subex::Lof lof(15);
///   subex::Beam beam;
///   subex::RankedSubspaces why =
///       beam.Explain(data.dataset, lof, /*point=*/0, /*target_dim=*/2);

#include "common/json.h"
#include "common/matrix.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "common/topk.h"
#include "core/ground_truth_builder.h"
#include "core/metrics.h"
#include "core/pipeline.h"
#include "core/report.h"
#include "core/testbed.h"
#include "core/tradeoff.h"
#include "data/chunked_dataset.h"
#include "data/columnar.h"
#include "data/csv.h"
#include "data/dataset.h"
#include "data/generators.h"
#include "data/ground_truth.h"
#include "detect/chunked_score.h"
#include "detect/detector.h"
#include "detect/exact_abod.h"
#include "detect/fast_abod.h"
#include "detect/isolation_forest.h"
#include "detect/knn.h"
#include "detect/knn_distance.h"
#include "detect/knn_share.h"
#include "detect/loda.h"
#include "detect/lof.h"
#include "explain/beam.h"
#include "explain/dimension_refinement.h"
#include "explain/explanation.h"
#include "explain/group_summarizer.h"
#include "explain/hics.h"
#include "explain/lookout.h"
#include "explain/point_explainer.h"
#include "explain/refout.h"
#include "explain/summarizer.h"
#include "explain/surrogate.h"
#include "fault/fault.h"
#include "mem/cache_slot.h"
#include "mem/dlist.h"
#include "mem/eviction_manager.h"
#include "ml/regression_tree.h"
#include "net/explain_client.h"
#include "net/explain_server.h"
#include "net/frame.h"
#include "net/protocol.h"
#include "net/socket.h"
#include "net/wire.h"
#include "obs/metrics.h"
#include "obs/metrics_http.h"
#include "obs/registry.h"
#include "obs/trace.h"
#include "online/drift_monitor.h"
#include "online/online_dataset.h"
#include "online/wal.h"
#include "online/windowed_scorer.h"
#include "prof/perf_counters.h"
#include "prof/sampling_profiler.h"
#include "serve/score_cache.h"
#include "serve/scoring_service.h"
#include "serve/service_stats.h"
#include "stats/descriptive.h"
#include "stats/special_functions.h"
#include "stats/two_sample_tests.h"
#include "stream/drifting_stream.h"
#include "stream/sliding_window.h"
#include "stream/streaming_pipeline.h"
#include "subspace/enumeration.h"
#include "subspace/subspace.h"

#endif  // SUBEX_SUBEX_H_
