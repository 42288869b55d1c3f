// Number formatting and parsing helpers for fmtree's text emitters and
// readers.
#pragma once

#include <charconv>
#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <string_view>

namespace fmtree {

/// Shortest decimal form of `v` that parses back (strtod / from_chars) to
/// exactly the same double — "0.25" stays "0.25", never "0.2500000...01".
/// Text emitters use this so printed models and cache artifacts are lossless
/// round-trips of the in-memory values.
inline std::string format_double(double v) {
  char buf[32];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof buf, v);
  (void)ec;  // 32 bytes always suffice for the shortest double form
  return std::string(buf, end);
}

/// A whole decimal string, decoded exactly: digits only (no sign, fraction,
/// exponent or space) and no value above `max`; nullopt otherwise. Every
/// count fmtree reads (CLI flags, request fields, fault specs, JSON
/// integers, bench environment variables) goes through here, so none is
/// rounded through a double or wrapped from a negative.
inline std::optional<std::uint64_t> parse_count(
    std::string_view text,
    std::uint64_t max = std::numeric_limits<std::uint64_t>::max()) {
  std::uint64_t v = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, v);
  if (ec != std::errc() || ptr != end || v > max) return std::nullopt;
  return v;
}

}  // namespace fmtree
