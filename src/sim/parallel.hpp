/// \file parallel.hpp
/// \brief The one deterministic campaign loop: map N indexed jobs over
/// worker threads and return their results in index order.
///
/// Hospital wards, ward shards and the fuzz sweep all run through
/// `parallel_map`. Each index is a pure function of its number, so the
/// result vector — and every reduction a caller folds over it in index
/// order — is the same for any job count. Only wall time varies.

#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <exception>
#include <mutex>
#include <system_error>
#include <thread>
#include <type_traits>
#include <vector>

#include "guarded.hpp"

namespace mcps::sim {

/// Largest worker count any job knob or `--jobs` flag accepts.
inline constexpr unsigned kMaxJobs = 256;

/// Run \p fn(i) for every i in [0, n) on min(\p jobs, n) threads (the
/// caller's thread is one of them) and return the results in index
/// order. Threads claim indices from one atomic cursor; each result goes
/// into its own slot, so claim order never shows. With jobs <= 1 or
/// n <= 1 the caller runs every index inline, through the same loop.
///
/// Every index runs even when some throw. Afterwards the exception of
/// the lowest failing index is rethrown, so the error, like the result,
/// is the same for any job count.
template <typename Fn>
[[nodiscard]] auto parallel_map(std::size_t n, unsigned jobs, Fn&& fn) {
    using R = std::invoke_result_t<Fn&, std::size_t>;
    static_assert(!std::is_same_v<R, bool>,
                  "vector<bool> packs slots into shared words");
    std::vector<R> out(n);
    std::atomic<std::size_t> next{0};
    std::mutex err_mu;
    std::size_t err_index MCPS_GUARDED_BY(err_mu) = n;
    std::exception_ptr err MCPS_GUARDED_BY(err_mu);

    auto work = [&] {
        for (;;) {
            const std::size_t i = next.fetch_add(1);
            if (i >= n) return;
            try {
                out[i] = fn(i);
            } catch (...) {
                const std::lock_guard<std::mutex> lk{err_mu};
                if (i < err_index) {
                    err_index = i;
                    err = std::current_exception();
                }
            }
        }
    };

    std::vector<std::thread> helpers;
    const std::size_t threads = std::min<std::size_t>(jobs, n);
    if (threads > 1) helpers.reserve(threads - 1);
    try {
        for (std::size_t t = 1; t < threads; ++t) helpers.emplace_back(work);
    } catch (const std::system_error&) {
        // No thread to spare: the threads already started and the caller
        // drain the cursor between them, so the result is unchanged.
    }
    work();
    for (auto& t : helpers) t.join();
    {
        const std::lock_guard<std::mutex> lk{err_mu};
        if (err) std::rethrow_exception(err);
    }
    return out;
}

/// Contiguous shard bounds: shard \p s of \p shard_count covers indices
/// [first, last) of \p items, with remainders spread over the leading
/// shards. Pure arithmetic — never depends on the job count.
struct ShardRange {
    std::size_t first = 0;
    std::size_t last = 0;
};

[[nodiscard]] constexpr ShardRange shard_range(std::size_t items,
                                               std::size_t shard_count,
                                               std::size_t s) noexcept {
    if (shard_count == 0 || s >= shard_count) return {};
    const std::size_t base = items / shard_count;
    const std::size_t extra = items % shard_count;
    const std::size_t first = s * base + std::min(s, extra);
    const std::size_t len = base + (s < extra ? 1 : 0);
    return {first, first + len};
}

}  // namespace mcps::sim
