#include "dataplane/serve.hpp"

#include <algorithm>
#include <cmath>

#include "exec/parallel.hpp"
#include "obs/span.hpp"

namespace dragon::dataplane {

using prefix::Address;

QueryGen::QueryGen(const fibcomp::Fib& fib, QueryMix mix) : mix_(mix) {
  first_.reserve(fib.size());
  size_.reserve(fib.size());
  for (const fibcomp::FibEntry& e : fib) {
    first_.push_back(e.prefix.first_address());
    size_.push_back(e.prefix.size());
  }
  if (mix_.kind == QueryMix::Kind::kZipf && !first_.empty()) {
    cdf_.resize(first_.size());
    double total = 0.0;
    for (std::size_t i = 0; i < first_.size(); ++i) {
      total += 1.0 / std::pow(static_cast<double>(i + 1), mix_.zipf_s);
      cdf_[i] = total;
    }
    for (double& c : cdf_) c /= total;
  }
}

Address QueryGen::draw(util::Rng& rng) const noexcept {
  if (first_.empty() ||
      (mix_.miss_fraction > 0.0 && rng.uniform() < mix_.miss_fraction)) {
    return static_cast<Address>(rng());
  }
  std::size_t i;
  if (cdf_.empty()) {
    i = static_cast<std::size_t>(rng.below(first_.size()));
  } else {
    const double u = rng.uniform();
    i = static_cast<std::size_t>(
        std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
    if (i >= cdf_.size()) i = cdf_.size() - 1;
  }
  return first_[i] + static_cast<Address>(rng.below(size_[i]));
}

BatchResult serve(const LpmTable& table, const QueryGen& gen,
                  exec::ThreadPool* pool, std::uint64_t seed,
                  std::uint64_t count) {
  DRAGON_SPAN_ARG("dataplane", "serve", "queries", count);
  // Queries per chunk are a pure function of count — the static_chunks
  // split — and each chunk's RNG is forked by chunk index, so the
  // combined result is thread-count-invariant.
  const auto ranges = exec::static_chunks(count, exec::kDefaultChunks);
  std::vector<BatchResult> results(ranges.size());
  exec::ParallelOptions opts;
  opts.chunks = ranges.size();
  opts.seed = seed;
  exec::parallel_for(
      pool, ranges.size(),
      [&](std::size_t i, exec::TaskContext& ctx) {
        BatchResult& r = results[i];
        r.lookups = ranges[i].second - ranges[i].first;
        for (std::uint64_t q = 0; q < r.lookups; ++q) {
          const Address addr = gen.draw(ctx.rng);
          const fibcomp::NextHop nh = table.lookup(addr);
          if (nh != fibcomp::kDrop) ++r.hits;
          std::uint64_t h = (static_cast<std::uint64_t>(addr) << 32) | nh;
          r.checksum += util::splitmix64(h);
        }
      },
      opts);
  BatchResult combined;
  for (const BatchResult& r : results) combined += r;
  return combined;
}

}  // namespace dragon::dataplane
