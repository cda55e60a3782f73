#include "obs/metrics.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdio>
#include <limits>
#include <sstream>

namespace atis::obs {

namespace {

/// Formats a double the way Prometheus clients do: shortest round-trip
/// representation, no trailing zeros, "+Inf" for infinity.
std::string FormatValue(double v) {
  if (std::isinf(v)) return v > 0 ? "+Inf" : "-Inf";
  if (std::isnan(v)) return "NaN";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  double roundtrip = 0.0;
  std::sscanf(buf, "%lg", &roundtrip);
  // Prefer the shortest precision that still round-trips.
  for (int prec = 1; prec <= 17; ++prec) {
    std::snprintf(buf, sizeof(buf), "%.*g", prec, v);
    std::sscanf(buf, "%lg", &roundtrip);
    if (roundtrip == v) break;
  }
  return buf;
}

std::string RenderLabels(const Labels& labels) {
  if (labels.empty()) return "";
  std::string out = "{";
  for (size_t i = 0; i < labels.size(); ++i) {
    if (i) out += ",";
    out += labels[i].first + "=\"" + EscapeLabelValue(labels[i].second) +
           "\"";
  }
  out += "}";
  return out;
}

/// Labels plus one extra pair appended (for histogram `le`).
Labels WithLe(const Labels& labels, double bound) {
  Labels out = labels;
  out.emplace_back("le", FormatValue(bound));
  return out;
}

std::string EscapeHelp(const std::string& help) {
  std::string out;
  out.reserve(help.size());
  for (char c : help) {
    if (c == '\\') {
      out += "\\\\";
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out += c;
    }
  }
  return out;
}

}  // namespace

std::string EscapeLabelValue(const std::string& value) {
  std::string out;
  out.reserve(value.size());
  for (char c : value) {
    switch (c) {
      case '\\':
        out += "\\\\";
        break;
      case '"':
        out += "\\\"";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out += c;
    }
  }
  return out;
}

std::string EscapeJson(const std::string& value) {
  std::string out;
  out.reserve(value.size());
  for (char c : value) {
    switch (c) {
      case '\\':
        out += "\\\\";
        break;
      case '"':
        out += "\\\"";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

double PercentileFromBuckets(const std::vector<double>& bounds,
                             const std::vector<uint64_t>& buckets, double p,
                             double min_hint, double max_hint) {
  uint64_t total = 0;
  for (uint64_t b : buckets) total += b;
  if (total == 0 || buckets.size() != bounds.size() + 1) return 0.0;
  if (p < 0.0) p = 0.0;
  if (p > 100.0) p = 100.0;
  // The observation with (1-based) rank ceil(p% of total); rank 0 maps to
  // the first observation, matching util/stats.h at the extremes.
  const double target = p / 100.0 * static_cast<double>(total);
  uint64_t cumulative = 0;
  for (size_t i = 0; i < buckets.size(); ++i) {
    if (buckets[i] == 0) continue;
    const double before = static_cast<double>(cumulative);
    cumulative += buckets[i];
    if (static_cast<double>(cumulative) < target) continue;
    double lo = i == 0 ? min_hint : bounds[i - 1];
    double hi = i < bounds.size() ? bounds[i] : max_hint;
    // Clamp the edge buckets to the observed range so a lone observation
    // in a wide bucket doesn't report the bucket edge.
    lo = std::max(lo, min_hint);
    hi = std::min(std::max(hi, lo), max_hint);
    const double frac =
        (target - before) / static_cast<double>(buckets[i]);
    return lo + (hi - lo) * std::min(1.0, std::max(0.0, frac));
  }
  return max_hint;
}

Histogram::Histogram(std::vector<double> bounds) : bounds_(std::move(bounds)) {
  std::sort(bounds_.begin(), bounds_.end());
  bounds_.erase(std::unique(bounds_.begin(), bounds_.end()), bounds_.end());
  buckets_.assign(bounds_.size() + 1, 0);
}

void Histogram::Observe(double value) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), value);
  ++buckets_[static_cast<size_t>(it - bounds_.begin())];
  sum_ += value;
  stats_.Add(value);
}

uint64_t Histogram::CumulativeCount(size_t i) const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t total = 0;
  for (size_t b = 0; b <= i && b < buckets_.size(); ++b) {
    total += buckets_[b];
  }
  return total;
}

uint64_t Histogram::count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_.count();
}

double Histogram::sum() const {
  std::lock_guard<std::mutex> lock(mu_);
  return sum_;
}

RunningStats Histogram::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

double Histogram::Percentile(double p) const {
  std::lock_guard<std::mutex> lock(mu_);
  return PercentileFromBuckets(bounds_, buckets_, p, stats_.min(),
                               stats_.max());
}

std::vector<double> Histogram::ExponentialBounds(double lo, double hi) {
  std::vector<double> out;
  double decade = lo;
  while (decade <= hi * (1.0 + 1e-9)) {
    for (double m : {1.0, 2.0, 5.0}) {
      const double b = decade * m;
      if (b <= hi * (1.0 + 1e-9)) out.push_back(b);
    }
    decade *= 10.0;
  }
  return out;
}

MetricsRegistry::Series& MetricsRegistry::GetSeries(const std::string& name,
                                                    const std::string& help,
                                                    Kind kind,
                                                    const Labels& labels) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  Family& fam = families_[name];
  if (fam.series.empty()) {
    fam.kind = kind;
    fam.help = help;
  }
  assert(fam.kind == kind && "metric name reused with a different type");
  for (Series& s : fam.series) {
    if (s.labels == labels) return s;
  }
  fam.series.push_back(Series{labels, nullptr, nullptr, nullptr});
  return fam.series.back();
}

// The registry lock must span the GetSeries call AND the lazy metric
// construction below it: the Series reference is into a vector another
// thread's registration may relocate, and the unique_ptr init itself
// must not race. The mutex is recursive, so relocking in GetSeries is
// fine. The returned Counter/Gauge/Histogram reference stays valid after
// unlock — the object is heap-allocated and never moves.

Counter& MetricsRegistry::GetCounter(const std::string& name,
                                     const std::string& help,
                                     const Labels& labels) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  Series& s = GetSeries(name, help, Kind::kCounter, labels);
  if (!s.counter) s.counter = std::make_unique<Counter>();
  return *s.counter;
}

Gauge& MetricsRegistry::GetGauge(const std::string& name,
                                 const std::string& help,
                                 const Labels& labels) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  Series& s = GetSeries(name, help, Kind::kGauge, labels);
  if (!s.gauge) s.gauge = std::make_unique<Gauge>();
  return *s.gauge;
}

Histogram& MetricsRegistry::GetHistogram(const std::string& name,
                                         const std::string& help,
                                         std::vector<double> bounds,
                                         const Labels& labels) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  Series& s = GetSeries(name, help, Kind::kHistogram, labels);
  if (!s.histogram) s.histogram = std::make_unique<Histogram>(std::move(bounds));
  return *s.histogram;
}

void MetricsRegistry::AddCollector(
    std::function<void(MetricsRegistry&)> collector) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  collectors_.push_back(std::move(collector));
}

void MetricsRegistry::RunCollectors() {
  if (collecting_) return;
  collecting_ = true;
  for (const auto& c : collectors_) c(*this);
  collecting_ = false;
}

std::string MetricsRegistry::ToPrometheusText() {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  RunCollectors();
  std::ostringstream out;
  for (const auto& [name, fam] : families_) {
    if (!fam.help.empty()) {
      out << "# HELP " << name << " " << EscapeHelp(fam.help) << "\n";
    }
    out << "# TYPE " << name << " "
        << (fam.kind == Kind::kCounter
                ? "counter"
                : fam.kind == Kind::kGauge ? "gauge" : "histogram")
        << "\n";
    for (const Series& s : fam.series) {
      switch (fam.kind) {
        case Kind::kCounter:
          out << name << RenderLabels(s.labels) << " " << s.counter->value()
              << "\n";
          break;
        case Kind::kGauge:
          out << name << RenderLabels(s.labels) << " "
              << FormatValue(s.gauge->value()) << "\n";
          break;
        case Kind::kHistogram: {
          const Histogram& h = *s.histogram;
          for (size_t i = 0; i < h.bounds().size(); ++i) {
            out << name << "_bucket"
                << RenderLabels(WithLe(s.labels, h.bounds()[i])) << " "
                << h.CumulativeCount(i) << "\n";
          }
          // One read serves the +Inf bucket and _count, which must agree
          // even while observations keep arriving; read after the finite
          // buckets, it is never below them.
          const uint64_t count = h.count();
          out << name << "_bucket"
              << RenderLabels(
                     WithLe(s.labels,
                            std::numeric_limits<double>::infinity()))
              << " " << count << "\n";
          out << name << "_sum" << RenderLabels(s.labels) << " "
              << FormatValue(h.sum()) << "\n";
          out << name << "_count" << RenderLabels(s.labels) << " " << count
              << "\n";
          break;
        }
      }
    }
    // Derived quantile gauges: consumers get p50/p95/p99 without
    // recomputing histogram_quantile from the buckets. Each quantile is
    // its own gauge family so the exposition stays well-typed.
    if (fam.kind == Kind::kHistogram) {
      for (const int q : {50, 95, 99}) {
        const std::string derived = name + "_p" + std::to_string(q);
        out << "# HELP " << derived << " p" << q
            << " estimate derived from " << name << " buckets\n";
        out << "# TYPE " << derived << " gauge\n";
        for (const Series& s : fam.series) {
          out << derived << RenderLabels(s.labels) << " "
              << FormatValue(
                     s.histogram->Percentile(static_cast<double>(q)))
              << "\n";
        }
      }
    }
  }
  return out.str();
}

std::string MetricsRegistry::ToJson() {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  RunCollectors();
  std::ostringstream out;
  auto labels_json = [](const Labels& labels) {
    std::string s = "{";
    for (size_t i = 0; i < labels.size(); ++i) {
      if (i) s += ",";
      s += "\"";
      s += EscapeJson(labels[i].first);
      s += "\":\"";
      s += EscapeJson(labels[i].second);
      s += "\"";
    }
    s += "}";
    return s;
  };
  out << "{";
  const char* kind_names[] = {"counters", "gauges", "histograms"};
  for (int kind = 0; kind < 3; ++kind) {
    if (kind) out << ",";
    out << "\"" << kind_names[kind] << "\":[";
    bool first = true;
    for (const auto& [name, fam] : families_) {
      if (static_cast<int>(fam.kind) != kind) continue;
      for (const Series& s : fam.series) {
        if (!first) out << ",";
        first = false;
        out << "{\"name\":\"" << EscapeJson(name) << "\",\"labels\":"
            << labels_json(s.labels) << ",";
        switch (fam.kind) {
          case Kind::kCounter:
            out << "\"value\":" << s.counter->value();
            break;
          case Kind::kGauge:
            out << "\"value\":" << FormatValue(s.gauge->value());
            break;
          case Kind::kHistogram: {
            const Histogram& h = *s.histogram;
            out << "\"bounds\":[";
            for (size_t i = 0; i < h.bounds().size(); ++i) {
              if (i) out << ",";
              out << FormatValue(h.bounds()[i]);
            }
            out << "],\"cumulative_counts\":[";
            for (size_t i = 0; i < h.bounds().size(); ++i) {
              out << h.CumulativeCount(i) << ",";
            }
            const uint64_t count = h.count();  // as in the text format
            out << count << "],\"sum\":" << FormatValue(h.sum())
                << ",\"count\":" << count
                << ",\"p50\":" << FormatValue(h.Percentile(50.0))
                << ",\"p95\":" << FormatValue(h.Percentile(95.0))
                << ",\"p99\":" << FormatValue(h.Percentile(99.0));
            break;
          }
        }
        out << "}";
      }
    }
    out << "]";
  }
  out << "}";
  return out.str();
}

std::vector<MetricsRegistry::FamilyInfo> MetricsRegistry::ListFamilies() {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  RunCollectors();
  std::vector<FamilyInfo> out;
  out.reserve(families_.size());
  for (const auto& [name, fam] : families_) {
    FamilyInfo info;
    info.name = name;
    info.type = fam.kind == Kind::kCounter
                    ? "counter"
                    : fam.kind == Kind::kGauge ? "gauge" : "histogram";
    info.help = fam.help;
    info.num_series = fam.series.size();
    for (const Series& s : fam.series) {
      for (const auto& [key, value] : s.labels) {
        if (std::find(info.label_keys.begin(), info.label_keys.end(), key) ==
            info.label_keys.end()) {
          info.label_keys.push_back(key);
        }
      }
    }
    out.push_back(std::move(info));
  }
  return out;
}

void MetricsRegistry::Reset() {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  families_.clear();
  collectors_.clear();
}

MetricsRegistry& MetricsRegistry::Default() {
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

}  // namespace atis::obs
