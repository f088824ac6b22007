#include "dataplane/serve.hpp"

#include <algorithm>
#include <cmath>

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

ServeResult serve(const LpmTable& table, const QueryGen& gen,
                  std::uint64_t seed, std::uint64_t count) {
  DRAGON_SPAN_ARG("dataplane", "serve", "queries", count);
  util::Rng rng(seed);
  ServeResult r;
  r.lookups = count;
  for (std::uint64_t q = 0; q < count; ++q) {
    if (table.lookup(gen.draw(rng)) != fibcomp::kDrop) ++r.hits;
  }
  return r;
}

}  // namespace dragon::dataplane
