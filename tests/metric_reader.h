// Test-side reads of registry instruments: the counters a scrape exports are
// the only definition of every engine metric, so assertions read them too.
//
//   Metric(*store, "kv.compactions")             // KvStore
//   Metric(*primary, "repl.fence_errors")        // PrimaryRegion, BackupRegion, RpcClient
//   ReadMetric(server->telemetry(), "backup.epoch_rejected",
//              {{"node", "s1"}, {"region", "0"}, {"role", "backup"}})
//
// Each read sums the samples of `name` that carry every given label, so an
// object's labels pick out its own instrument, summed over any labels it adds
// per series (kv.filter_* per level, kv.read_corruptions per source). A read
// that matches no series fails the test: instruments register at
// construction, so a misspelt name or label must not read as 0.
#ifndef TEBIS_TESTS_METRIC_READER_H_
#define TEBIS_TESTS_METRIC_READER_H_

#include <gtest/gtest.h>

#include <cstdint>
#include <string_view>

#include "src/lsm/kv_store.h"
#include "src/telemetry/telemetry.h"

namespace tebis {

inline uint64_t ReadMetric(Telemetry* telemetry, std::string_view name,
                           const MetricLabels& labels = {}) {
  const MetricsSnapshot snapshot = telemetry->metrics()->Snapshot();
  bool found = false;
  for (const MetricSample& sample : snapshot.samples()) {
    found = found || (sample.name == name && sample.HasLabels(labels));
  }
  if (!found) {
    ADD_FAILURE() << "no series " << CanonicalMetricKey(name, labels);
  }
  return snapshot.Sum(name, labels);
}

inline uint64_t Metric(const KvStore& store, std::string_view name) {
  return ReadMetric(store.telemetry(), name, store.options().telemetry_labels);
}

// Any engine that reports through telemetry() under telemetry_labels().
template <typename Engine>
uint64_t Metric(const Engine& engine, std::string_view name) {
  return ReadMetric(engine.telemetry(), name, engine.telemetry_labels());
}

}  // namespace tebis

#endif  // TEBIS_TESTS_METRIC_READER_H_
