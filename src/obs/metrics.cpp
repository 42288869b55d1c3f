#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "util/error.hpp"
#include "util/json.hpp"

namespace fmtree::obs {

namespace {

constexpr std::uint32_t kNotFound = std::numeric_limits<std::uint32_t>::max();

/// JSON-safe rendering of a double: finite values round-trip, non-finite
/// ones (which JSON cannot represent) become null.
void write_number(json::Writer& w, double v) {
  char buf[32];
  const int n = std::snprintf(buf, sizeof buf, "%.17g", v);
  w.token(std::isfinite(v) ? std::string_view(buf, static_cast<std::size_t>(n)) : "null");
}

}  // namespace

std::uint32_t MetricsRegistry::find_counter(std::string_view name) const {
  for (std::uint32_t i = 0; i < counters_.size(); ++i)
    if (counters_[i].name == name) return i;
  return kNotFound;
}

std::uint32_t MetricsRegistry::find_gauge(std::string_view name) const {
  for (std::uint32_t i = 0; i < gauges_.size(); ++i)
    if (gauges_[i].name == name) return i;
  return kNotFound;
}

std::uint32_t MetricsRegistry::find_hist(std::string_view name) const {
  for (std::uint32_t i = 0; i < hists_.size(); ++i)
    if (hists_[i].name == name) return i;
  return kNotFound;
}

CounterId MetricsRegistry::counter(std::string_view name) {
  std::lock_guard<std::mutex> lock(mutex_);
  std::uint32_t i = find_counter(name);
  if (i == kNotFound) {
    i = static_cast<std::uint32_t>(counters_.size());
    counters_.push_back(Counter{std::string(name), 0});
  }
  return CounterId{i};
}

GaugeId MetricsRegistry::gauge(std::string_view name) {
  std::lock_guard<std::mutex> lock(mutex_);
  std::uint32_t i = find_gauge(name);
  if (i == kNotFound) {
    i = static_cast<std::uint32_t>(gauges_.size());
    gauges_.push_back(Gauge{std::string(name), 0.0, false});
  }
  return GaugeId{i};
}

HistogramId MetricsRegistry::histogram(std::string_view name, double lo, double hi,
                                       std::size_t bins) {
  if (!(hi > lo) || bins == 0 || !std::isfinite(lo) || !std::isfinite(hi))
    throw DomainError("histogram needs finite lo < hi and at least one bin");
  std::lock_guard<std::mutex> lock(mutex_);
  std::uint32_t i = find_hist(name);
  if (i != kNotFound) {
    const Hist& h = hists_[i];
    if (h.lo != lo || h.hi != hi || h.counts.size() != bins)
      throw DomainError("histogram '" + std::string(name) +
                        "' re-registered with a different shape");
    return HistogramId{i};
  }
  i = static_cast<std::uint32_t>(hists_.size());
  Hist h;
  h.name = std::string(name);
  h.lo = lo;
  h.hi = hi;
  h.counts.assign(bins, 0);
  hists_.push_back(std::move(h));
  return HistogramId{i};
}

void MetricsRegistry::add(CounterId c, std::uint64_t delta) {
  if (!c.valid()) return;
  std::lock_guard<std::mutex> lock(mutex_);
  if (c.index < counters_.size()) counters_[c.index].value += delta;
}

void MetricsRegistry::set(GaugeId g, double value) {
  if (!g.valid()) return;
  std::lock_guard<std::mutex> lock(mutex_);
  if (g.index < gauges_.size()) {
    gauges_[g.index].value = value;
    gauges_[g.index].set = true;
  }
}

void MetricsRegistry::observe(HistogramId h, double x) {
  if (!h.valid()) return;
  std::lock_guard<std::mutex> lock(mutex_);
  if (h.index >= hists_.size()) return;
  Hist& hist = hists_[h.index];
  if (x < hist.lo) {
    ++hist.underflow;
    return;
  }
  const double width = (hist.hi - hist.lo) / static_cast<double>(hist.counts.size());
  const auto bin = static_cast<std::size_t>((x - hist.lo) / width);
  if (bin >= hist.counts.size()) ++hist.overflow;
  else ++hist.counts[bin];
}

LocalMetrics MetricsRegistry::local() const {
  std::lock_guard<std::mutex> lock(mutex_);
  LocalMetrics out;
  out.counters_.assign(counters_.size(), 0);
  out.hists_.reserve(hists_.size());
  for (const Hist& h : hists_) {
    LocalMetrics::LocalHist lh;
    lh.lo = h.lo;
    lh.width = (h.hi - h.lo) / static_cast<double>(h.counts.size());
    lh.counts.assign(h.counts.size(), 0);
    out.hists_.push_back(std::move(lh));
  }
  return out;
}

void MetricsRegistry::merge(LocalMetrics& local) {
  std::lock_guard<std::mutex> lock(mutex_);
  const std::size_t nc = std::min(local.counters_.size(), counters_.size());
  for (std::size_t i = 0; i < nc; ++i) counters_[i].value += local.counters_[i];
  std::fill(local.counters_.begin(), local.counters_.end(), 0);
  const std::size_t nh = std::min(local.hists_.size(), hists_.size());
  for (std::size_t i = 0; i < nh; ++i) {
    LocalMetrics::LocalHist& lh = local.hists_[i];
    Hist& h = hists_[i];
    const std::size_t bins = std::min(lh.counts.size(), h.counts.size());
    for (std::size_t b = 0; b < bins; ++b) h.counts[b] += lh.counts[b];
    h.underflow += lh.underflow;
    h.overflow += lh.overflow;
    std::fill(lh.counts.begin(), lh.counts.end(), 0);
    lh.underflow = 0;
    lh.overflow = 0;
  }
}

std::uint64_t MetricsRegistry::counter_value(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const std::uint32_t i = find_counter(name);
  return i == kNotFound ? 0 : counters_[i].value;
}

double MetricsRegistry::gauge_value(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const std::uint32_t i = find_gauge(name);
  return i == kNotFound ? 0.0 : gauges_[i].value;
}

std::uint64_t MetricsRegistry::histogram_total(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const std::uint32_t i = find_hist(name);
  if (i == kNotFound) return 0;
  const Hist& h = hists_[i];
  std::uint64_t total = h.underflow + h.overflow;
  for (std::uint64_t c : h.counts) total += c;
  return total;
}

void MetricsRegistry::reset_values() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (Counter& c : counters_) c.value = 0;
  for (Gauge& g : gauges_) {
    g.value = 0.0;
    g.set = false;
  }
  for (Hist& h : hists_) {
    std::fill(h.counts.begin(), h.counts.end(), 0);
    h.underflow = 0;
    h.overflow = 0;
  }
}

std::string MetricsRegistry::to_json() const {
  std::lock_guard<std::mutex> lock(mutex_);

  // Sorted index views keep the output stable regardless of registration order.
  auto sorted_indices = [](const auto& items) {
    std::vector<std::size_t> idx(items.size());
    for (std::size_t i = 0; i < idx.size(); ++i) idx[i] = i;
    std::sort(idx.begin(), idx.end(), [&](std::size_t a, std::size_t b) {
      return items[a].name < items[b].name;
    });
    return idx;
  };

  using Wrap = json::Writer::Wrap;
  json::Writer w(json::Writer::Layout::Spaced);
  w.begin_object(Wrap::Block).key("schema").string("fmtree.metrics/v1");
  w.key("counters").begin_object(Wrap::Block);
  for (std::size_t i : sorted_indices(counters_))
    w.key(counters_[i].name).integer(counters_[i].value);
  w.end_object().key("gauges").begin_object(Wrap::Block);
  for (std::size_t i : sorted_indices(gauges_))
    if (gauges_[i].set) write_number(w.key(gauges_[i].name), gauges_[i].value);
  w.end_object().key("histograms").begin_object(Wrap::Block);
  for (std::size_t i : sorted_indices(hists_)) {
    const Hist& h = hists_[i];
    std::uint64_t total = h.underflow + h.overflow;
    for (std::uint64_t c : h.counts) total += c;
    write_number(w.key(h.name).begin_object().key("lo"), h.lo);
    write_number(w.key("hi"), h.hi);
    w.key("counts").begin_array();
    for (std::uint64_t c : h.counts) w.integer(c);
    w.end_array().key("underflow").integer(h.underflow);
    w.key("overflow").integer(h.overflow).key("total").integer(total).end_object();
  }
  return w.end_object().end_object().take() + '\n';
}

}  // namespace fmtree::obs
