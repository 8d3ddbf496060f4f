#include "stats/json.hpp"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <string_view>

namespace sharq::stats {

void json_escape(std::string& out, const std::string& s) {
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

std::string json_quoted(const std::string& s) {
  std::string out = "\"";
  json_escape(out, s);
  out += '"';
  return out;
}

// Shortest round-trip formatting via std::to_chars: deterministic across
// runs (no locale, no printf precision guessing).
std::string json_double(double v) {
  char buf[64];
  auto [ptr, ec] = std::to_chars(buf, buf + sizeof buf, v);
  if (ec != std::errc{}) return "0";
  return std::string(buf, ptr);
}

namespace json {

const Value* Value::get(const std::string& key) const {
  for (const auto& [k, v] : members) {
    if (k == key) return &v;
  }
  return nullptr;
}

double Value::num_or(const std::string& key, double fallback) const {
  const Value* v = get(key);
  return v != nullptr && v->kind == Kind::kNumber ? v->number : fallback;
}

namespace {

/// Recursive descent over one document. `depth` counts the arrays and
/// objects enclosing the value being parsed; the first failure records
/// why, and the cursor stays where it was found.
class Parser {
 public:
  explicit Parser(const std::string& s) : s_(s) {}

  bool document(Value& out) {
    if (!value(out, 0)) return false;
    skip_ws();
    return pos_ == s_.size() || fail("trailing characters");
  }

  std::string error() const {
    return why_ + " at offset " + std::to_string(pos_);
  }

 private:
  bool fail(std::string why) {
    why_ = std::move(why);
    return false;
  }

  bool at(char c) const { return pos_ < s_.size() && s_[pos_] == c; }

  void skip_ws() {
    while (at(' ') || at('\t') || at('\n') || at('\r')) ++pos_;
  }

  bool eat(char c) {
    skip_ws();
    if (!at(c)) return false;
    ++pos_;
    return true;
  }

  bool literal(std::string_view word) {
    if (s_.compare(pos_, word.size(), word) != 0) return false;
    pos_ += word.size();
    return true;
  }

  bool value(Value& out, int depth) {
    skip_ws();
    if (pos_ >= s_.size()) return fail("unexpected end of input");
    const char c = s_[pos_];
    if (c == '{' || c == '[') {
      if (depth == kMaxDepth) {
        return fail("nesting deeper than " + std::to_string(kMaxDepth));
      }
      ++pos_;
      return c == '{' ? object(out, depth + 1) : array(out, depth + 1);
    }
    if (c == '"') {
      out.kind = Value::Kind::kString;
      return string(out.text);
    }
    if (literal("true") || literal("false")) {
      out.kind = Value::Kind::kBool;
      out.boolean = c == 't';
      return true;
    }
    if (literal("null")) return true;
    return number(out);
  }

  bool object(Value& out, int depth) {
    out.kind = Value::Kind::kObject;
    if (eat('}')) return true;
    do {
      std::string key;
      if (!string(key)) return false;
      if (!eat(':')) return fail("expected ':'");
      Value v;
      if (!value(v, depth)) return false;
      out.members.emplace_back(std::move(key), std::move(v));
    } while (eat(','));
    return eat('}') || fail("expected ',' or '}'");
  }

  bool array(Value& out, int depth) {
    out.kind = Value::Kind::kArray;
    if (eat(']')) return true;
    do {
      out.items.emplace_back();
      if (!value(out.items.back(), depth)) return false;
    } while (eat(','));
    return eat(']') || fail("expected ',' or ']'");
  }

  bool string(std::string& out) {
    static constexpr std::string_view kEscape = "\"\\/bfnrt";
    static constexpr std::string_view kByte = "\"\\/\b\f\n\r\t";
    if (!eat('"')) return fail("expected a string");
    while (pos_ < s_.size()) {
      const char c = s_[pos_++];
      if (c == '"') return true;
      if (c != '\\') {
        out.push_back(c);
      } else if (at('u')) {
        ++pos_;
        if (!unicode(out)) return false;
      } else if (pos_ < s_.size() && kEscape.find(s_[pos_]) != kEscape.npos) {
        out.push_back(kByte[kEscape.find(s_[pos_++])]);
      } else {
        return fail("bad escape");
      }
    }
    return fail("unterminated string");
  }

  /// The four hex digits after "\u": a BMP scalar, appended as UTF-8. The
  /// writers only \u-escape control bytes, so one byte is the usual case.
  bool unicode(std::string& out) {
    unsigned code = 0;
    const char* p = s_.data() + pos_;
    const char* end = p + std::min<std::size_t>(4, s_.size() - pos_);
    const auto [stop, ec] = std::from_chars(p, end, code, 16);
    if (ec != std::errc{} || stop != p + 4) return fail("bad \\u escape");
    pos_ += 4;
    if (code < 0x80) {
      out.push_back(static_cast<char>(code));
    } else if (code < 0x800) {
      out.push_back(static_cast<char>(0xC0U | (code >> 6U)));
      out.push_back(static_cast<char>(0x80U | (code & 0x3FU)));
    } else {
      out.push_back(static_cast<char>(0xE0U | (code >> 12U)));
      out.push_back(static_cast<char>(0x80U | ((code >> 6U) & 0x3FU)));
      out.push_back(static_cast<char>(0x80U | (code & 0x3FU)));
    }
    return true;
  }

  /// A run of number characters that strtod reads whole ("1-2" is not);
  /// the raw token is kept beside its double.
  bool number(Value& out) {
    static constexpr std::string_view kChars = "0123456789+-.eE";
    const std::size_t start = pos_;
    while (pos_ < s_.size() && kChars.find(s_[pos_]) != kChars.npos) ++pos_;
    if (pos_ == start) return fail("expected a value");
    out.text.assign(s_, start, pos_ - start);
    char* end = nullptr;
    out.number = std::strtod(out.text.c_str(), &end);
    if (end != out.text.c_str() + out.text.size()) return fail("bad number");
    out.kind = Value::Kind::kNumber;
    return true;
  }

  const std::string& s_;
  std::size_t pos_ = 0;
  std::string why_;
};

}  // namespace

std::optional<Value> parse(const std::string& text, std::string* error) {
  Parser p(text);
  Value doc;
  if (p.document(doc)) return doc;
  if (error) *error = p.error();
  return std::nullopt;
}

}  // namespace json
}  // namespace sharq::stats
