#include "src/metrics/metrics.h"

#include <algorithm>
#include <memory>
#include <stdexcept>

namespace varbench::metrics {

std::string_view kind_name(MetricKind kind) {
  switch (kind) {
    case MetricKind::kCounter:
      return "counter";
    case MetricKind::kTimer:
      return "timer";
    case MetricKind::kHistogram:
      return "histogram";
    case MetricKind::kSpan:
      return "span";
    case MetricKind::kInstant:
      return "instant";
  }
  return "counter";
}

MetricId metric_id(std::string_view name) {
  for (std::size_t i = 0; i < kMetricDefs.size(); ++i) {
    if (kMetricDefs[i].name == name) return static_cast<MetricId>(i);
  }
  throw std::invalid_argument{"metrics: unknown metric name '" +
                              std::string{name} + "'"};
}

std::uint64_t MetricSnapshot::percentile_upper(double p) const {
  if (count == 0) return 0;
  if (p < 0.0) p = 0.0;
  if (p > 1.0) p = 1.0;
  // Smallest rank whose cumulative bin count reaches ceil(p * count).
  const auto target = static_cast<std::uint64_t>(
      p * static_cast<double>(count) + 0.999999999999);
  const std::uint64_t rank = std::max<std::uint64_t>(1, target);
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < kNumBins; ++i) {
    cumulative += bins[i];
    if (cumulative >= rank) return bin_upper(i);
  }
  return bin_upper(kNumBins - 1);
}

const MetricSnapshot* Snapshot::find(MetricId id) const {
  for (const MetricSnapshot& m : metrics) {
    if (m.id == id) return &m;
  }
  return nullptr;
}

Sink::~Sink() {
  for (auto& slot : slots_) delete slot.load(std::memory_order_acquire);
}

void Sink::enable(MetricId id) {
  if (id >= enabled_.size()) {
    throw std::invalid_argument{"metrics: enable() id out of range"};
  }
  enabled_[id] = 1;
}

void Sink::disable(MetricId id) {
  if (id < enabled_.size()) enabled_[id] = 0;
}

void Sink::enable_all() { enabled_.fill(1); }

void Sink::disable_all() { enabled_.fill(0); }

namespace {

/// Stable per-thread slot: threads round-robin onto slots in the order they
/// first record. Slot choice only affects contention (integer adds commute
/// across slots) and the events' presentation-only `tid`.
std::size_t this_thread_slot(std::size_t num_slots) {
  static std::atomic<std::size_t> next{0};
  thread_local const std::size_t slot =
      next.fetch_add(1, std::memory_order_relaxed);
  return slot % num_slots;
}

}  // namespace

std::pair<Sink::Slot&, std::size_t> Sink::slot_for_this_thread() {
  const std::size_t index = this_thread_slot(kSlots);
  std::atomic<Slot*>& slot = slots_[index];
  Slot* existing = slot.load(std::memory_order_acquire);
  if (existing != nullptr) return {*existing, index};
  auto fresh = std::make_unique<Slot>();
  Slot* expected = nullptr;
  if (slot.compare_exchange_strong(expected, fresh.get(),
                                   std::memory_order_acq_rel)) {
    return {*fresh.release(), index};
  }
  return {*expected, index};  // another thread on this slot won the race
}

void Sink::record(MetricId id, std::uint64_t value) {
  std::atomic<std::uint64_t>* cells =
      slot_for_this_thread().first.cells.data() + id * kCellsPerMetric;
  cells[0].fetch_add(1, std::memory_order_relaxed);
  cells[1].fetch_add(value, std::memory_order_relaxed);
  if (kMetricDefs[id].kind != MetricKind::kCounter) {
    cells[2 + bin_index(value)].fetch_add(1, std::memory_order_relaxed);
  }
}

void Sink::record_event(SpanEvent event) {
  auto [slot, index] = slot_for_this_thread();
  event.tid = index;
  const std::lock_guard<std::mutex> lock{slot.mu};
  if (slot.events.size() >= kMaxEventsPerSlot) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  slot.events.push_back(event);
}

void Sink::set_label(std::uint64_t ident, std::string label) {
  const std::lock_guard<std::mutex> lock{labels_mu_};
  for (auto& [known, text] : labels_) {
    if (known == ident) {
      text = std::move(label);
      return;
    }
  }
  labels_.emplace_back(ident, std::move(label));
}

Snapshot Sink::snapshot() const {
  Snapshot snap;
  for (MetricId id = 0; id < kNumMetrics; ++id) {
    if (enabled_[id] == 0 || is_event(kMetricDefs[id].kind)) continue;
    MetricSnapshot m;
    m.id = id;
    for (const auto& slot : slots_) {
      const Slot* s = slot.load(std::memory_order_acquire);
      if (s == nullptr) continue;
      const std::atomic<std::uint64_t>* cells =
          s->cells.data() + id * kCellsPerMetric;
      m.count += cells[0].load(std::memory_order_relaxed);
      m.sum += cells[1].load(std::memory_order_relaxed);
      for (std::size_t b = 0; b < kNumBins; ++b) {
        m.bins[b] += cells[2 + b].load(std::memory_order_relaxed);
      }
    }
    snap.metrics.push_back(m);
  }
  return snap;
}

TraceFile Sink::drain(std::string process) {
  TraceFile out;
  out.process = std::move(process);
  out.dropped = dropped_.exchange(0, std::memory_order_relaxed);
  for (auto& slot : slots_) {
    Slot* s = slot.load(std::memory_order_acquire);
    if (s == nullptr) continue;
    const std::lock_guard<std::mutex> lock{s->mu};
    out.spans.insert(out.spans.end(), s->events.begin(), s->events.end());
    s->events.clear();
  }
  // Deterministic order for a given multiset of events, independent of
  // which slot each thread landed on.
  std::sort(out.spans.begin(), out.spans.end());
  {
    const std::lock_guard<std::mutex> lock{labels_mu_};
    out.labels.swap(labels_);
  }
  std::sort(out.labels.begin(), out.labels.end());
  sequence_.store(0, std::memory_order_relaxed);
  return out;
}

void Sink::reset() {
  for (auto& slot : slots_) {
    Slot* s = slot.load(std::memory_order_acquire);
    if (s == nullptr) continue;
    for (auto& cell : s->cells) cell.store(0, std::memory_order_relaxed);
  }
  (void)drain({});
}

std::size_t Sink::allocated_slots() const {
  std::size_t n = 0;
  for (const auto& slot : slots_) {
    if (slot.load(std::memory_order_acquire) != nullptr) ++n;
  }
  return n;
}

Sink& global_sink() {
  static Sink sink;
  return sink;
}

void enable_selection(Sink& sink, std::string_view selection, Entries which) {
  const bool spans = which == Entries::kSpans;
  const auto selected = [&](MetricId id) {
    return is_event(kMetricDefs[id].kind) == spans;
  };
  std::size_t pos = 0;
  while (pos <= selection.size()) {
    std::size_t comma = selection.find(',', pos);
    if (comma == std::string_view::npos) comma = selection.size();
    std::string_view token = selection.substr(pos, comma - pos);
    pos = comma + 1;
    while (!token.empty() && token.front() == ' ') token.remove_prefix(1);
    while (!token.empty() && token.back() == ' ') token.remove_suffix(1);
    if (token.empty()) continue;
    bool matched = token == "all" || token == "none";
    for (MetricId id = 0; id < kNumMetrics; ++id) {
      if (!selected(id)) continue;
      const MetricDef& def = kMetricDefs[id];
      if (token == "none") {
        sink.disable(id);
      } else if (token == "all" || def.name == token ||
                 def.subsystem == token) {
        sink.enable(id);
        matched = true;
      }
    }
    if (!matched) {
      throw std::invalid_argument{
          "metrics: selection '" + std::string{token} + "' matches no " +
          (spans ? "span" : "metric") +
          " name or subsystem (try `varbench metrics --list`)"};
    }
  }
}

}  // namespace varbench::metrics
