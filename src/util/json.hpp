// fmtree's JSON codec, the one place that writes JSON, escapes strings, and
// formats or parses hexfloat doubles. parse() reads the full grammar and
// keeps numbers as raw tokens so callers decode them losslessly. Writer
// appends one document to a std::string; doubles go out as C99 hexfloat
// *strings* ("0x1.8p+1"), which round-trip bit for bit where decimal would
// not. It has two layouts: compact ("," and ":" on one line, for NDJSON
// events and diagnostic arrays) and spaced (", " and ": ", where each
// container is either one line, Wrap::Inline, or one member per line
// indented two spaces per level, Wrap::Block). Not a general-purpose
// library: no DOM mutation, no streaming. Errors throw IoError with a byte
// offset.
#pragma once

#include <charconv>
#include <concepts>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace fmtree::json {

enum class Kind { Null, Bool, Number, String, Array, Object };

/// A parsed JSON value. Object member order is preserved.
struct Value {
  Kind kind = Kind::Null;
  bool boolean = false;
  std::string text;  ///< String content, or the raw token of a Number.
  std::vector<Value> items;
  std::vector<std::pair<std::string, Value>> members;

  /// Object member lookup; nullptr when absent or not an object.
  const Value* find(std::string_view key) const noexcept;

  bool is(Kind k) const noexcept { return kind == k; }

  /// Decodes a Number token as u64 / double; throws IoError on any other
  /// kind or on trailing garbage in the token.
  std::uint64_t as_u64() const;
  double as_double() const;
};

/// Parses a complete JSON document (trailing whitespace allowed, trailing
/// garbage is an error). Throws IoError on malformed input.
Value parse(std::string_view text);

/// Escapes `s` for embedding inside a JSON string literal (no quotes added).
std::string escape(std::string_view s);

/// Decodes the text of a hexfloat string (any strtod spelling is accepted;
/// hexfloat is the canonical one). nullopt unless strtod consumes all of it.
std::optional<double> parse_hexfloat(const std::string& text);

/// Builds one JSON document in a std::string. Calls nest as the document
/// does: inside an object every value follows a key().
class Writer {
public:
  enum class Layout : std::uint8_t { Compact, Spaced };
  /// How a spaced container places its members; the compact layout ignores it.
  enum class Wrap : std::uint8_t { Inline, Block };

  explicit Writer(Layout layout) : spaced_(layout == Layout::Spaced) {}

  Writer& begin_object(Wrap wrap = Wrap::Inline) { return open('{', wrap); }
  Writer& end_object() { return close('}'); }
  Writer& begin_array(Wrap wrap = Wrap::Inline) { return open('[', wrap); }
  Writer& end_array() { return close(']'); }
  Writer& key(std::string_view name);
  Writer& string(std::string_view s);
  /// The exact double as a hexfloat string; see parse_hexfloat.
  Writer& hexfloat(double v);
  Writer& boolean(bool b) { return token(b ? "true" : "false"); }
  template <std::integral T>
    requires(!std::same_as<T, bool>)
  Writer& integer(T v) {
    char buf[24];
    return token({buf, std::to_chars(buf, buf + sizeof buf, v).ptr});
  }
  /// A preformatted scalar (a number, or null), written verbatim.
  Writer& token(std::string_view t);

  /// Moves the document out; the writer is spent.
  std::string take() { return std::move(out_); }

private:
  struct Frame {
    bool block, empty;
  };
  void separate();
  Writer& open(char bracket, Wrap wrap);
  Writer& close(char bracket);

  std::string out_;
  std::vector<Frame> frames_;
  bool spaced_ = true;
  bool after_key_ = false;
};

}  // namespace fmtree::json
