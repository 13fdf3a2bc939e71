#include "artifact.hpp"

#include "sim/hash.hpp"

namespace mcps::pipeline {

namespace {

using sim::kFnvOffset;
using sim::kFnvPrime;

std::uint64_t fnv1a_step(std::uint64_t h, std::string_view s) noexcept {
    h = sim::fnv1a64(h, s);
    // A field separator that cannot appear in the data keeps
    // ("ab","c") and ("a","bc") from colliding.
    h ^= 0xffU;
    h *= kFnvPrime;
    return h;
}

std::uint64_t fnv1a_step(std::uint64_t h, std::uint64_t v) noexcept {
    for (int i = 0; i < 8; ++i) {
        h ^= (v >> (8 * i)) & 0xffU;
        h *= kFnvPrime;
    }
    return h;
}

}  // namespace

std::uint64_t Artifact::digest() const noexcept {
    std::uint64_t h = kFnvOffset;
    h = fnv1a_step(h, kind);
    h = fnv1a_step(h, payload);
    return h;
}

std::string Artifact::digest_hex() const { return sim::hex64(digest()); }

std::string artifact_key(std::string_view pass_name, std::string_view params,
                         const std::vector<std::uint64_t>& input_digests,
                         std::string_view output) {
    std::uint64_t h = kFnvOffset;
    h = fnv1a_step(h, pass_name);
    h = fnv1a_step(h, params);
    for (const std::uint64_t d : input_digests) h = fnv1a_step(h, d);
    h = fnv1a_step(h, output);
    return std::string{output} + "@" + sim::hex64(h);
}

}  // namespace mcps::pipeline
