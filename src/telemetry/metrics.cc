#include "src/telemetry/metrics.h"

#include <algorithm>
#include <cstdio>
#include <functional>

namespace tebis {

std::string CanonicalMetricKey(std::string_view name, const MetricLabels& labels) {
  std::string key(name);
  if (!labels.empty()) {
    MetricLabels sorted = labels;
    std::sort(sorted.begin(), sorted.end());
    key += '{';
    for (size_t i = 0; i < sorted.size(); ++i) {
      if (i > 0) {
        key += ',';
      }
      key += sorted[i].first;
      key += '=';
      key += sorted[i].second;
    }
    key += '}';
  }
  return key;
}

namespace {

void AppendJsonEscaped(std::string* out, std::string_view s) {
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out->push_back('\\');
    }
    out->push_back(c);
  }
}

}  // namespace

std::string NodeLabel(const MetricLabels& labels) {
  for (const auto& [key, value] : labels) {
    if (key == "node") {
      return value;
    }
  }
  std::string joined;
  for (const auto& [key, value] : labels) {
    if (!joined.empty()) {
      joined += '/';
    }
    joined += value;
  }
  return joined.empty() ? "local" : joined;
}

bool MetricSample::HasLabel(std::string_view key, std::string_view value_match) const {
  for (const auto& [k, v] : labels) {
    if (k == key && v == value_match) {
      return true;
    }
  }
  return false;
}

bool MetricSample::HasLabels(const MetricLabels& subset) const {
  for (const auto& [key, value] : subset) {
    if (!HasLabel(key, value)) {
      return false;
    }
  }
  return true;
}

uint64_t MetricsSnapshot::Sum(std::string_view name) const { return Sum(name, MetricLabels{}); }

uint64_t MetricsSnapshot::Sum(std::string_view name, std::string_view key,
                              std::string_view value) const {
  return Sum(name, MetricLabels{{std::string(key), std::string(value)}});
}

uint64_t MetricsSnapshot::Sum(std::string_view name, const MetricLabels& subset) const {
  uint64_t total = 0;
  for (const MetricSample& sample : samples_) {
    if (sample.name == name && sample.HasLabels(subset)) {
      total += static_cast<uint64_t>(sample.value);
    }
  }
  return total;
}

const MetricSample* MetricsSnapshot::Find(std::string_view name) const {
  for (const MetricSample& sample : samples_) {
    if (sample.name == name) {
      return &sample;
    }
  }
  return nullptr;
}

const MetricSample* MetricsSnapshot::Find(std::string_view name, std::string_view key,
                                          std::string_view value) const {
  for (const MetricSample& sample : samples_) {
    if (sample.name == name && sample.HasLabel(key, value)) {
      return &sample;
    }
  }
  return nullptr;
}

std::string MetricsSnapshot::Json(int indent) const {
  const std::string pad(static_cast<size_t>(indent), ' ');
  std::string out = "{\n";
  bool first = true;
  auto emit = [&](const std::string& key, const std::string& value_text) {
    if (!first) {
      out += ",\n";
    }
    first = false;
    out += pad;
    out += '"';
    AppendJsonEscaped(&out, key);
    out += "\": ";
    out += value_text;
  };
  for (const MetricSample& sample : samples_) {
    const std::string key = CanonicalMetricKey(sample.name, sample.labels);
    if (sample.kind == InstrumentKind::kHistogram) {
      emit(key + "_count", std::to_string(sample.histogram.count()));
      if (sample.histogram.count() > 0) {
        emit(key + "_p50", std::to_string(sample.histogram.Percentile(50)));
        emit(key + "_p99", std::to_string(sample.histogram.Percentile(99)));
        emit(key + "_max", std::to_string(sample.histogram.max()));
      }
      if (!sample.exemplars.empty()) {
        // String value ("0x<trace>@<value>,...") so line-oriented consumers
        // (tebis_stats.py) parse it without a full JSON parser.
        std::string text;
        char buf[64];
        for (const HistogramExemplar& e : sample.exemplars) {
          snprintf(buf, sizeof(buf), "%s0x%llx@%llu", text.empty() ? "" : ",",
                   static_cast<unsigned long long>(e.trace),
                   static_cast<unsigned long long>(e.value));
          text += buf;
        }
        emit(key + "_exemplars", "\"" + text + "\"");
      }
    } else {
      emit(key, std::to_string(sample.value));
    }
  }
  out += "\n}";
  return out;
}

MetricsRegistry::Entry* MetricsRegistry::GetOrCreate(std::string_view name,
                                                     const MetricLabels& labels,
                                                     InstrumentKind kind) {
  std::string key = CanonicalMetricKey(name, labels);
  // Kinds share one namespace: suffix the key so a counter and a histogram
  // with the same name cannot alias (a config error, not a crash).
  key += kind == InstrumentKind::kCounter ? "#c"
         : kind == InstrumentKind::kGauge ? "#g"
                                          : "#h";
  Shard& shard = shards_[std::hash<std::string>{}(key) % kShards];
  std::lock_guard<std::mutex> lock(shard.mutex);
  auto it = shard.entries.find(key);
  if (it == shard.entries.end()) {
    Entry entry;
    entry.name = std::string(name);
    entry.labels = labels;
    std::sort(entry.labels.begin(), entry.labels.end());
    entry.kind = kind;
    switch (kind) {
      case InstrumentKind::kCounter:
        entry.counter = std::make_unique<Counter>();
        break;
      case InstrumentKind::kGauge:
        entry.gauge = std::make_unique<Gauge>();
        break;
      case InstrumentKind::kHistogram:
        entry.histogram = std::make_unique<HistogramInstrument>();
        break;
    }
    it = shard.entries.emplace(std::move(key), std::move(entry)).first;
  }
  return &it->second;
}

Counter* MetricsRegistry::GetCounter(std::string_view name, const MetricLabels& labels) {
  return GetOrCreate(name, labels, InstrumentKind::kCounter)->counter.get();
}

Gauge* MetricsRegistry::GetGauge(std::string_view name, const MetricLabels& labels) {
  return GetOrCreate(name, labels, InstrumentKind::kGauge)->gauge.get();
}

HistogramInstrument* MetricsRegistry::GetHistogram(std::string_view name,
                                                   const MetricLabels& labels) {
  return GetOrCreate(name, labels, InstrumentKind::kHistogram)->histogram.get();
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  MetricsSnapshot snapshot;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mutex);
    for (const auto& [key, entry] : shard.entries) {
      MetricSample sample;
      sample.name = entry.name;
      sample.labels = entry.labels;
      sample.kind = entry.kind;
      switch (entry.kind) {
        case InstrumentKind::kCounter:
          sample.value = static_cast<int64_t>(entry.counter->Value());
          break;
        case InstrumentKind::kGauge:
          sample.value = entry.gauge->Value();
          break;
        case InstrumentKind::kHistogram:
          sample.histogram = entry.histogram->Snapshot();
          sample.exemplars = entry.histogram->Exemplars();
          break;
      }
      snapshot.Add(std::move(sample));
    }
  }
  return snapshot;
}

}  // namespace tebis
