#pragma once

#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace sharq::stats {

// --- writing: shared deterministic JSON helpers -------------------------------
// Every exporter in stats/ (metrics registry, journal, traffic series,
// profiles) must produce byte-identical output for identical values, so they
// share one formatting vocabulary: to_chars doubles (shortest round-trip, no
// locale) and one escaping rule.

/// Append `s` to `out` with JSON string escaping (", \, \n, \t, and other
/// control bytes as \uXXXX).
void json_escape(std::string& out, const std::string& s);

/// `s` escaped and wrapped in double quotes.
std::string json_quoted(const std::string& s);

/// Shortest round-trip formatting via std::to_chars; "0" on failure.
std::string json_double(double v);

// --- reading -------------------------------------------------------------------
// One std-only reader for every JSON file the analysis tools load: the
// journal's one-object lines (sharq_trace) and whole profiles (sharq_prof).

namespace json {

/// Deepest array/object nesting parse() accepts. The writers nest at most
/// six levels; the cap keeps the recursive descent's stack bounded on any
/// input.
inline constexpr int kMaxDepth = 64;

/// One parsed value: null, bool, number, string, array or object.
struct Value {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  /// A string's unescaped contents, or a number's raw token ("3", "0.25",
  /// "18446744073709551615") so integers past 2^53 stay exact.
  std::string text;
  std::vector<Value> items;                             ///< array elements
  std::vector<std::pair<std::string, Value>> members;  ///< insertion order

  /// First member named `key`, or nullptr (also when not an object).
  const Value* get(const std::string& key) const;
  /// Member `key` as a number, or `fallback` if absent or not a number.
  double num_or(const std::string& key, double fallback) const;
};

/// Parse `text` as exactly one JSON value (surrounding whitespace allowed).
/// Returns nullopt, with a message naming the byte offset in *error if
/// given, on any syntax error or on nesting past kMaxDepth.
std::optional<Value> parse(const std::string& text,
                           std::string* error = nullptr);

}  // namespace json
}  // namespace sharq::stats
