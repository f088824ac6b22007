#include "obs/span.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <ctime>
#include <mutex>

namespace dragon::obs {

namespace {

std::atomic<bool> g_span_enabled{false};
std::atomic<bool> g_span_totals_enabled{false};
std::atomic<SpanSite*> g_span_sites{nullptr};

/// Buffer registry.  Heap-allocated and deliberately leaked: worker
/// threads may still reach their thread_local buffer pointer during
/// static destruction (e.g. a pool destroyed by an atexit hook), so the
/// registry must never be torn down before them.
struct BufferRegistry {
  std::mutex mu;
  std::vector<SpanBuffer*> buffers;  // owned, never freed (see above)
  std::size_t default_capacity = 8192;
};

BufferRegistry& buffer_registry() {
  static BufferRegistry* registry = new BufferRegistry;
  return *registry;
}

}  // namespace

SpanSite::SpanSite(const char* site_category, const char* site_name,
                   const char* arg_key0, const char* arg_key1,
                   const char* arg_key2)
    : category(site_category),
      name(site_name),
      arg_keys{arg_key0, arg_key1, arg_key2} {
  SpanSite* head = g_span_sites.load(std::memory_order_relaxed);
  do {
    next = head;
  } while (!g_span_sites.compare_exchange_weak(head, this,
                                               std::memory_order_release,
                                               std::memory_order_relaxed));
}

void span_enable(bool on) {
  g_span_enabled.store(on, std::memory_order_relaxed);
}

bool span_enabled() noexcept {
  return g_span_enabled.load(std::memory_order_relaxed);
}

void span_totals_enable(bool on) {
  g_span_totals_enabled.store(on, std::memory_order_relaxed);
}

bool span_totals_enabled() noexcept {
  return g_span_totals_enabled.load(std::memory_order_relaxed);
}

std::uint64_t span_now_ns() noexcept {
  static const std::chrono::steady_clock::time_point epoch =
      std::chrono::steady_clock::now();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - epoch)
          .count());
}

std::uint64_t span_thread_cpu_ns() noexcept {
#if defined(CLOCK_THREAD_CPUTIME_ID)
  timespec ts{};
  if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) != 0) return 0;
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000u +
         static_cast<std::uint64_t>(ts.tv_nsec);
#else
  return 0;
#endif
}

SpanBuffer::SpanBuffer(std::size_t capacity)
    : ring_(capacity == 0 ? 1 : capacity) {}

std::uint64_t SpanBuffer::dropped() const noexcept {
  const std::uint64_t n = pushed();
  return n > ring_.size() ? n - ring_.size() : 0;
}

std::size_t SpanBuffer::size() const noexcept {
  return static_cast<std::size_t>(
      std::min<std::uint64_t>(pushed(), ring_.size()));
}

void SpanBuffer::snapshot(std::vector<SpanRecord>& out) const {
  const std::uint64_t n = pushed();
  const std::uint64_t held = std::min<std::uint64_t>(n, ring_.size());
  out.reserve(out.size() + static_cast<std::size_t>(held));
  for (std::uint64_t i = n - held; i < n; ++i) {
    out.push_back(ring_[static_cast<std::size_t>(i % ring_.size())]);
  }
}

void SpanBuffer::clear() noexcept {
  pushed_.store(0, std::memory_order_release);
}

SpanBuffer& span_local_buffer() {
  thread_local SpanBuffer* local = nullptr;
  if (local == nullptr) {
    BufferRegistry& registry = buffer_registry();
    std::lock_guard<std::mutex> lock(registry.mu);
    auto* buffer = new SpanBuffer(registry.default_capacity);
    buffer->tid_ = static_cast<std::uint32_t>(registry.buffers.size());
    buffer->thread_name_ = "thread-" + std::to_string(buffer->tid_);
    registry.buffers.push_back(buffer);
    local = buffer;
  }
  return *local;
}

void span_set_thread_name(const std::string& name) {
  if (!span_enabled()) return;
  span_local_buffer().set_thread_name(name);
}

void span_set_default_capacity(std::size_t records) {
  BufferRegistry& registry = buffer_registry();
  std::lock_guard<std::mutex> lock(registry.mu);
  registry.default_capacity = records == 0 ? 1 : records;
}

std::vector<ThreadSpans> span_collect() {
  BufferRegistry& registry = buffer_registry();
  std::lock_guard<std::mutex> lock(registry.mu);
  std::vector<ThreadSpans> out;
  out.reserve(registry.buffers.size());
  for (const SpanBuffer* buffer : registry.buffers) {
    ThreadSpans spans;
    spans.tid = buffer->tid();
    spans.thread_name = buffer->thread_name();
    spans.pushed = buffer->pushed();
    spans.dropped = buffer->dropped();
    buffer->snapshot(spans.records);
    out.push_back(std::move(spans));
  }
  return out;  // registration order == tid order
}

void span_reset() {
  {
    BufferRegistry& registry = buffer_registry();
    std::lock_guard<std::mutex> lock(registry.mu);
    for (SpanBuffer* buffer : registry.buffers) buffer->clear();
  }
  for (SpanSite* site = g_span_sites.load(std::memory_order_acquire);
       site != nullptr; site = site->next) {
    site->calls.store(0, std::memory_order_relaxed);
    site->total_ns.store(0, std::memory_order_relaxed);
    site->total_cpu_ns.store(0, std::memory_order_relaxed);
  }
}

std::vector<SpanSiteTotals> span_site_totals() {
  std::vector<SpanSiteTotals> out;
  for (SpanSite* site = g_span_sites.load(std::memory_order_acquire);
       site != nullptr; site = site->next) {
    const std::uint64_t calls = site->calls.load(std::memory_order_relaxed);
    if (calls == 0) continue;
    const std::uint64_t total =
        site->total_ns.load(std::memory_order_relaxed);
    const std::uint64_t cpu =
        site->total_cpu_ns.load(std::memory_order_relaxed);
    auto match = std::find_if(out.begin(), out.end(), [&](const auto& row) {
      return std::strcmp(row.category, site->category) == 0 &&
             std::strcmp(row.name, site->name) == 0;
    });
    if (match != out.end()) {
      match->calls += calls;
      match->total_ns += total;
      match->cpu_ns += cpu;
    } else {
      out.push_back({site->category, site->name, calls, total, cpu});
    }
  }
  std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    const int c = std::strcmp(a.category, b.category);
    return c != 0 ? c < 0 : std::strcmp(a.name, b.name) < 0;
  });
  return out;
}

}  // namespace dragon::obs
