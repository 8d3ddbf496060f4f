// sharq_lint — project-invariant static analysis for the SHARQFEC tree.
//
// The repo's load-bearing contract is byte-identical same-seed simulation
// output (chaos soak JSON, the sharqfec.metrics.v1 export, packet traces).
// That property is easy to break silently: one range-for over an
// unordered_map in a path that feeds timers, wire messages, or an exporter
// and the run is only "deterministic" by the grace of one library's hash
// ordering. This tool turns the contract into a checked property.
//
// It is a real lexer, not a grep: source is tokenized (comments, string
// and raw-string literals, char literals, preprocessor header-names are
// all understood), rules run over the token stream, and suppressions are
// structured annotations, so banned names inside strings or comments never
// fire and annotations are auditable. See docs/DETERMINISM.md for the rule
// catalog and the annotation grammar.
//
// Rules:
//   unordered-iter   iteration over unordered containers (range-for or
//                    begin()/end() family) outside annotated regions.
//                    Iterate an ordered container instead.
//   wall-clock       wall-clock / ambient-nondeterminism sources in src/
//                    (time(), system_clock, rand(), std::random_device,
//                    <chrono>/<ctime>/<random> includes). Randomness must
//                    come from sim/random.hpp, time from the Simulator.
//   event-tag        Simulator::at/after call sites must carry an event
//                    tag (the metrics registry's per-tag event counters
//                    are part of the observable output).
//   unchecked-shift  `1 << expr` with a non-constant shift count — the
//                    PR-3 TraceWriter bug class (UB for forged/future
//                    values >= width). Bound-check, then annotate.
//   metric-docs      metric family names and event tags registered in
//                    src/ must appear in docs/OBSERVABILITY.md.
//   thread-unsafe    raw threading primitives (std::thread, std::mutex,
//                    std::atomic, thread_local, pthreads, their headers)
//                    in src/ outside the blessed shard-runtime files.
//                    Protocol code must stay synchronization-free: the
//                    deterministic parallel contract is lane/barrier
//                    discipline (src/sim/shard_runtime.hpp), not locks.
//
// Parallel-era rules (cross-TU, driven by the project symbol index):
//   pointer-key      no raw-pointer / const char* keys in associative
//                    containers and no std::less/std::greater over
//                    pointers: hash and compare order follows ASLR and
//                    pool recycling, which TSan cannot see.
//   shard-affinity   members declared inside `// sharq-lint: shard-owned
//                    begin/end` regions of a header may only be touched
//                    from files sharing that header's stem (the owning
//                    shard runtime); anything else needs an annotation
//                    naming the audited merge path.
//   float-accum      no `+=` of a float-typed name inside a range-for
//                    body without an ordering annotation: cross-shard
//                    merge changes summation order, and FP addition is
//                    not associative.
//   rng-stream       every by-value sim::Rng in src/ must be initialized
//                    from a parent stream's fork() (directly or in a
//                    constructor); ad-hoc seeded or default-constructed
//                    streams fork the determinism story per call site.
//   journal-cause    journal emit sites (Journal::emit and the per-class
//                    jnl wrappers, resolved through the symbol index)
//                    must name a cataloged event and pass a real cause id
//                    when docs/OBSERVABILITY.md declares a cause edge;
//                    `--reverse-docs` additionally checks that every
//                    cataloged event and metric row is live in src/.
//
// Annotation grammar (line comments; block comments work too):
//   // sharq-lint: <rule>-ok                this line and the next line
//   // sharq-lint: <rule>-ok file           whole file
//   // sharq-lint: <rule>-ok begin          region start
//   // sharq-lint: <rule>-ok end            region end
// Several rules may be listed comma-separated:  // sharq-lint: a-ok, b-ok
// A trailing free-text reason after the control words is encouraged:
//   // sharq-lint: unchecked-shift-ok (cls bound-checked two lines up)
//
// Exit status: 0 clean, 1 findings, 2 usage/internal error.

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

namespace fs = std::filesystem;

namespace {

// ---------------------------------------------------------------------------
// Tokens
// ---------------------------------------------------------------------------

struct Tok {
  enum Kind { kIdent, kNumber, kString, kChar, kPunct, kHeader } kind;
  std::string text;
  int line = 0;
};

struct Annotation {
  enum Scope { kLine, kFile, kBegin, kEnd } scope = kLine;
  std::string rule;  // without the "-ok" suffix
  int line = 0;
};

struct LexedFile {
  std::string path;               // as given on the command line
  std::vector<Tok> toks;
  std::vector<Annotation> annotations;
  std::vector<std::pair<int, std::string>> expect_markers;  // line -> rule
};

bool ident_start(char c) { return std::isalpha(static_cast<unsigned char>(c)) || c == '_'; }
bool ident_char(char c) { return std::isalnum(static_cast<unsigned char>(c)) || c == '_'; }

// Parse a comment body for "sharq-lint:" annotations and "EXPECT-LINT:"
// self-test markers.
void parse_comment(const std::string& body, int line, LexedFile& out) {
  auto scan = [&](const std::string& key, auto&& handle) {
    std::size_t pos = body.find(key);
    if (pos == std::string::npos) return;
    handle(body.substr(pos + key.size()));
  };
  scan("sharq-lint:", [&](std::string rest) {
    // Words up to an opening paren (free-text reason) or end.
    if (std::size_t p = rest.find('('); p != std::string::npos) rest.resize(p);
    std::replace(rest.begin(), rest.end(), ',', ' ');
    std::istringstream is(rest);
    std::vector<std::string> words;
    for (std::string w; is >> w;) words.push_back(w);
    Annotation::Scope scope = Annotation::kLine;
    if (!words.empty()) {
      if (words.back() == "file") { scope = Annotation::kFile; words.pop_back(); }
      else if (words.back() == "begin") { scope = Annotation::kBegin; words.pop_back(); }
      else if (words.back() == "end") { scope = Annotation::kEnd; words.pop_back(); }
    }
    for (const std::string& w : words) {
      if (w.size() > 3 && w.compare(w.size() - 3, 3, "-ok") == 0) {
        out.annotations.push_back(
            Annotation{scope, w.substr(0, w.size() - 3), line});
      } else if (w == "shard-owned") {
        // Region *declaration* (not a suppression): members declared
        // between begin/end belong to this header's shard runtime.
        out.annotations.push_back(Annotation{scope, "shard-owned", line});
      }
    }
  });
  scan("EXPECT-LINT:", [&](std::string rest) {
    std::replace(rest.begin(), rest.end(), ',', ' ');
    std::istringstream is(rest);
    for (std::string w; is >> w;) out.expect_markers.emplace_back(line, w);
  });
}

// Tokenize one file. Comments are consumed here (feeding annotations);
// everything else becomes a token. `#include <name>` header-names are
// lexed as a single kHeader token so include rules never confuse them
// with less-than expressions.
LexedFile lex_file(const std::string& path, const std::string& text) {
  LexedFile out;
  out.path = path;
  int line = 1;
  std::size_t i = 0;
  const std::size_t n = text.size();
  bool line_started_hash = false;   // current preproc line began with '#'
  bool expect_header = false;       // just saw `# include`

  auto peek = [&](std::size_t k) -> char { return i + k < n ? text[i + k] : '\0'; };

  while (i < n) {
    const char c = text[i];
    if (c == '\n') {
      ++line;
      ++i;
      line_started_hash = false;
      expect_header = false;
      continue;
    }
    if (std::isspace(static_cast<unsigned char>(c))) { ++i; continue; }

    // Comments.
    if (c == '/' && peek(1) == '/') {
      std::size_t end = text.find('\n', i);
      if (end == std::string::npos) end = n;
      parse_comment(text.substr(i + 2, end - i - 2), line, out);
      i = end;
      continue;
    }
    if (c == '/' && peek(1) == '*') {
      std::size_t end = text.find("*/", i + 2);
      const int start_line = line;
      if (end == std::string::npos) end = n; else end += 2;
      parse_comment(text.substr(i + 2, end - i - 2), start_line, out);
      line += static_cast<int>(std::count(text.begin() + static_cast<std::ptrdiff_t>(i),
                                          text.begin() + static_cast<std::ptrdiff_t>(end), '\n'));
      i = end;
      continue;
    }

    // Preprocessor bookkeeping for header-name lexing.
    if (c == '#') {
      line_started_hash = true;
      out.toks.push_back({Tok::kPunct, "#", line});
      ++i;
      continue;
    }
    if (expect_header && c == '<') {
      std::size_t end = text.find('>', i + 1);
      if (end != std::string::npos) {
        out.toks.push_back({Tok::kHeader, text.substr(i + 1, end - i - 1), line});
        i = end + 1;
        expect_header = false;
        continue;
      }
    }

    // String literals (with encoding prefixes and raw strings).
    if (c == '"' || ((c == 'L' || c == 'u' || c == 'U' || c == 'R') &&
                     (peek(1) == '"' ||
                      (c == 'u' && peek(1) == '8' && (peek(2) == '"' || (peek(2) == 'R' && peek(3) == '"'))) ||
                      ((c == 'L' || c == 'u' || c == 'U') && peek(1) == 'R' && peek(2) == '"')))) {
      // Advance to the opening quote, noting whether this is a raw string.
      std::size_t q = i;
      bool raw = false;
      while (text[q] != '"') {
        if (text[q] == 'R') raw = true;
        ++q;
      }
      std::size_t end;
      if (raw) {
        // R"delim( ... )delim"
        std::size_t p = text.find('(', q + 1);
        const std::string delim = text.substr(q + 1, p - q - 1);
        const std::string closer = ")" + delim + "\"";
        end = text.find(closer, p + 1);
        end = end == std::string::npos ? n : end + closer.size();
      } else {
        end = q + 1;
        while (end < n && text[end] != '"') {
          if (text[end] == '\\') ++end;
          if (text[end] == '\n') break;  // unterminated; recover at newline
          ++end;
        }
        if (end < n && text[end] == '"') ++end;
      }
      // Store the literal's body; the exact body only matters for
      // metric-docs, which never uses raw strings, so the raw case may
      // keep its delimiters.
      const std::string body = raw ? text.substr(q, end - q)
                                   : text.substr(q + 1, end > q + 1 ? end - q - 2 : 0);
      out.toks.push_back({Tok::kString, body, line});
      line += static_cast<int>(std::count(text.begin() + static_cast<std::ptrdiff_t>(i),
                                          text.begin() + static_cast<std::ptrdiff_t>(end), '\n'));
      i = end;
      continue;
    }

    // Char literals.
    if (c == '\'') {
      std::size_t end = i + 1;
      while (end < n && text[end] != '\'') {
        if (text[end] == '\\') ++end;
        ++end;
      }
      out.toks.push_back({Tok::kChar, text.substr(i + 1, end - i - 1), line});
      i = end < n ? end + 1 : n;
      continue;
    }

    // Numbers (including hex, digit separators, exponents).
    if (std::isdigit(static_cast<unsigned char>(c)) ||
        (c == '.' && std::isdigit(static_cast<unsigned char>(peek(1))))) {
      std::size_t end = i + 1;
      while (end < n) {
        const char d = text[end];
        if (std::isalnum(static_cast<unsigned char>(d)) || d == '.' || d == '\'') { ++end; continue; }
        if ((d == '+' || d == '-') && (text[end - 1] == 'e' || text[end - 1] == 'E' ||
                                       text[end - 1] == 'p' || text[end - 1] == 'P')) { ++end; continue; }
        break;
      }
      out.toks.push_back({Tok::kNumber, text.substr(i, end - i), line});
      i = end;
      continue;
    }

    // Identifiers.
    if (ident_start(c)) {
      std::size_t end = i + 1;
      while (end < n && ident_char(text[end])) ++end;
      std::string id = text.substr(i, end - i);
      if (line_started_hash && id == "include") expect_header = true;
      out.toks.push_back({Tok::kIdent, std::move(id), line});
      i = end;
      continue;
    }

    // Punctuation: fold the multi-char operators the rules care about.
    static const char* kTwoChar[] = {"<<", ">>", "->", "::", "+="};
    bool matched = false;
    for (const char* op : kTwoChar) {
      if (c == op[0] && peek(1) == op[1]) {
        // "<<=" / ">>=" are compound assignments, not the shift pattern.
        if ((c == '<' || c == '>') && peek(2) == '=') break;
        out.toks.push_back({Tok::kPunct, op, line});
        i += 2;
        matched = true;
        break;
      }
    }
    if (matched) continue;
    out.toks.push_back({Tok::kPunct, std::string(1, c), line});
    ++i;
  }
  return out;
}

// ---------------------------------------------------------------------------
// Suppression lookup
// ---------------------------------------------------------------------------

class Suppressions {
 public:
  explicit Suppressions(const LexedFile& f) {
    std::map<std::string, int> open_regions;
    for (const Annotation& a : f.annotations) {
      switch (a.scope) {
        case Annotation::kFile: file_.insert(a.rule); break;
        case Annotation::kLine:
          lines_[a.rule].push_back(a.line);
          break;
        case Annotation::kBegin: open_regions[a.rule] = a.line; break;
        case Annotation::kEnd: {
          auto it = open_regions.find(a.rule);
          const int start = it == open_regions.end() ? 0 : it->second;
          regions_[a.rule].emplace_back(start, a.line);
          if (it != open_regions.end()) open_regions.erase(it);
          break;
        }
      }
    }
    // An unclosed begin-region runs to end of file.
    for (const auto& [rule, start] : open_regions) {
      regions_[rule].emplace_back(start, 1 << 30);
    }
  }

  bool suppressed(const std::string& rule, int line) const {
    if (file_.count(rule)) return true;
    if (auto it = lines_.find(rule); it != lines_.end()) {
      for (int l : it->second) {
        if (line == l || line == l + 1) return true;
      }
    }
    if (auto it = regions_.find(rule); it != regions_.end()) {
      for (const auto& [lo, hi] : it->second) {
        if (line >= lo && line <= hi) return true;
      }
    }
    return false;
  }

 private:
  std::set<std::string> file_;
  std::map<std::string, std::vector<int>> lines_;
  std::map<std::string, std::vector<std::pair<int, int>>> regions_;
};

// ---------------------------------------------------------------------------
// Findings
// ---------------------------------------------------------------------------

struct Finding {
  std::string file;
  int line = 0;
  std::string rule;
  std::string message;

  bool operator<(const Finding& o) const {
    return std::tie(file, line, rule, message) <
           std::tie(o.file, o.line, o.rule, o.message);
  }
};

// ---------------------------------------------------------------------------
// Token helpers
// ---------------------------------------------------------------------------

// Index of the token after the matcher of toks[open] (which must be "(",
// "[" or "{"); returns toks.size() on imbalance.
std::size_t skip_balanced(const std::vector<Tok>& toks, std::size_t open) {
  static const std::map<std::string, std::string> kMatch = {
      {"(", ")"}, {"[", "]"}, {"{", "}"}};
  const std::string& o = toks[open].text;
  const std::string& cl = kMatch.at(o);
  int depth = 0;
  for (std::size_t i = open; i < toks.size(); ++i) {
    if (toks[i].kind != Tok::kPunct) continue;
    if (toks[i].text == o) ++depth;
    else if (toks[i].text == cl && --depth == 0) return i + 1;
  }
  return toks.size();
}

// From toks[open] == "<", skip a balanced template-argument list. Returns
// the index after the closing ">" (treating ">>" as two closers), or
// `open` itself if this does not look like a template argument list.
std::size_t skip_template_args(const std::vector<Tok>& toks, std::size_t open) {
  int depth = 0;
  for (std::size_t i = open; i < toks.size(); ++i) {
    const Tok& t = toks[i];
    if (t.kind == Tok::kPunct) {
      if (t.text == "<") ++depth;
      else if (t.text == ">") { if (--depth == 0) return i + 1; }
      else if (t.text == ">>") { depth -= 2; if (depth <= 0) return i + 1; }
      else if (t.text == ";" || t.text == "{") return open;  // not a template
    }
  }
  return open;
}

bool is_const_like(const Tok& t) {
  if (t.kind == Tok::kNumber) return true;
  if (t.kind != Tok::kIdent) return false;
  const std::string& s = t.text;
  if (s == "sizeof" || s == "true" || s == "false") return true;
  // k-constant convention (kTrafficClassCount) or ALL_CAPS macro.
  if (s.size() >= 2 && s[0] == 'k' && std::isupper(static_cast<unsigned char>(s[1]))) return true;
  bool caps = s.size() >= 2;
  for (char c : s) {
    caps = caps && (std::isupper(static_cast<unsigned char>(c)) ||
                    std::isdigit(static_cast<unsigned char>(c)) || c == '_');
  }
  return caps;
}

// Index of the "[" matching toks[close] == "]" (searching backwards);
// returns 0 on imbalance.
std::size_t rskip_balanced(const std::vector<Tok>& toks, std::size_t close) {
  int depth = 0;
  for (std::size_t i = close + 1; i-- > 0;) {
    if (toks[i].kind != Tok::kPunct) continue;
    if (toks[i].text == "]") ++depth;
    else if (toks[i].text == "[" && --depth == 0) return i;
  }
  return 0;
}

bool ends_with(const std::string& s, const std::string& suf) {
  return s.size() >= suf.size() &&
         s.compare(s.size() - suf.size(), suf.size(), suf) == 0;
}

std::string lower(std::string s) {
  for (char& c : s) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return s;
}

// Tracks the innermost enclosing class/struct while walking a token
// stream linearly. Good enough for the header shapes this tree uses:
// `template <class T>` pendings are cleared by the closing '>' / ')',
// forward declarations by ';'.
struct ClassTracker {
  struct Frame { std::string name; int depth; };
  std::vector<Frame> stack;
  int depth = 0;
  std::string pending;

  void feed(const std::vector<Tok>& toks, std::size_t i) {
    const Tok& t = toks[i];
    if (t.kind == Tok::kIdent && (t.text == "class" || t.text == "struct")) {
      if (i > 0 && toks[i - 1].kind == Tok::kIdent && toks[i - 1].text == "enum") return;
      if (i + 1 < toks.size() && toks[i + 1].kind == Tok::kIdent) pending = toks[i + 1].text;
      return;
    }
    if (t.kind != Tok::kPunct) return;
    if (t.text == "{") {
      ++depth;
      if (!pending.empty()) { stack.push_back({pending, depth}); pending.clear(); }
    } else if (t.text == "}") {
      if (!stack.empty() && stack.back().depth == depth) stack.pop_back();
      --depth;
    } else if (t.text == ";" || t.text == ")" || t.text == ">") {
      pending.clear();
    }
  }
  std::string current() const { return stack.empty() ? std::string() : stack.back().name; }
};

// ---------------------------------------------------------------------------
// Pass 1: collect names declared with unordered container types.
// ---------------------------------------------------------------------------

// Scoping: type/alias names are global (aliases live in headers and name
// the same thing everywhere). Variable/member/function names are global
// only when declared in a HEADER — that is what lets `peers` declared in
// session_manager.hpp flag the walks in session_manager.cpp. Names
// declared in a .cpp stay local to that file, so one test's short-named
// local (`std::unordered_set<int> s`) cannot poison every `s` in the tree.
struct SymbolTable {
  std::set<std::string> unordered_types;  // type/alias names
  std::set<std::string> unordered_vars;   // variable/member/function names
};

bool is_header(const std::string& path) {
  const std::string ext = fs::path(path).extension().string();
  return ext == ".hpp" || ext == ".h";
}

void collect_unordered_decls(const LexedFile& f, SymbolTable& sym) {
  static const std::set<std::string> kUnordered = {
      "unordered_map", "unordered_set", "unordered_multimap",
      "unordered_multiset"};
  const auto& toks = f.toks;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (toks[i].kind != Tok::kIdent) continue;
    const bool base = kUnordered.count(toks[i].text) > 0;
    const bool alias = !base && sym.unordered_types.count(toks[i].text) > 0;
    if (!base && !alias) continue;

    // `using X = std::unordered_map<...>;` — record the alias. Look back
    // past `std ::` for `using X =`.
    if (base) {
      std::size_t b = i;
      while (b >= 2 && ((toks[b - 1].kind == Tok::kPunct && toks[b - 1].text == "::") ||
                        (toks[b - 1].kind == Tok::kIdent && toks[b - 1].text == "std"))) {
        --b;
      }
      if (b >= 3 && toks[b - 1].text == "=" && toks[b - 2].kind == Tok::kIdent &&
          toks[b - 3].kind == Tok::kIdent && toks[b - 3].text == "using") {
        sym.unordered_types.insert(toks[b - 2].text);
      }
    }

    // Declaration: TYPE<...> [&*const]* name   (members, locals, params,
    // and functions returning an unordered container all count).
    std::size_t j = i + 1;
    if (j < toks.size() && toks[j].kind == Tok::kPunct && toks[j].text == "<") {
      const std::size_t after = skip_template_args(toks, j);
      if (after == j) continue;  // comparison, not a template arg list
      j = after;
    } else if (base) {
      continue;  // bare `unordered_map` without args: using-decl etc.
    }
    while (j < toks.size() &&
           ((toks[j].kind == Tok::kPunct && (toks[j].text == "&" || toks[j].text == "*")) ||
            (toks[j].kind == Tok::kIdent && toks[j].text == "const"))) {
      ++j;
    }
    if (j < toks.size() && toks[j].kind == Tok::kIdent) {
      sym.unordered_vars.insert(toks[j].text);
    }
  }
}

// ---------------------------------------------------------------------------
// Documentation model (docs/OBSERVABILITY.md)
// ---------------------------------------------------------------------------

struct DocEvent {
  std::string name;
  bool requires_cause = false;  // cause-edge cell is not "root (0)"
  int line = 0;
};

struct DocModel {
  std::string path;
  std::string text;  // raw text, for the substring-based forward check
  std::vector<std::pair<std::string, int>> metric_rows;  // name -> line
  std::vector<DocEvent> event_rows;
  // Profiler probe-catalog rows (type cell "probe" / "profile counter").
  std::vector<std::pair<std::string, int>> probe_rows;
  bool has_event_catalog = false;

  const DocEvent* find_event(const std::string& name) const {
    for (const DocEvent& e : event_rows)
      if (e.name == name) return &e;
    return nullptr;
  }
};

std::string trim_ws(const std::string& s) {
  std::size_t a = 0, b = s.size();
  while (a < b && std::isspace(static_cast<unsigned char>(s[a]))) ++a;
  while (b > a && std::isspace(static_cast<unsigned char>(s[b - 1]))) --b;
  return s.substr(a, b - a);
}

// Parse the observability doc's tables. Metric rows are any table row
// whose second cell is a metric type; event rows live under the
// "Event catalog" heading and declare a cause edge in the third cell
// ("root (0)" means a zero cause id is the documented shape).
DocModel parse_doc(const std::string& path, const std::string& text) {
  DocModel doc;
  doc.path = path;
  doc.text = text;
  std::istringstream in(text);
  int line = 0;
  bool in_events = false;
  for (std::string ln; std::getline(in, ln);) {
    ++line;
    if (!ln.empty() && ln[0] == '#') {
      in_events = ln.find("Event catalog") != std::string::npos;
      if (in_events) doc.has_event_catalog = true;
      continue;
    }
    if (ln.empty() || ln[0] != '|') continue;
    std::vector<std::string> cells;
    std::size_t p = 1;
    while (p <= ln.size()) {
      std::size_t q = ln.find('|', p);
      if (q == std::string::npos) break;
      cells.push_back(trim_ws(ln.substr(p, q - p)));
      p = q + 1;
    }
    if (cells.empty()) continue;
    std::string name;
    if (std::size_t b0 = cells[0].find('`'); b0 != std::string::npos) {
      if (std::size_t b1 = cells[0].find('`', b0 + 1); b1 != std::string::npos)
        name = cells[0].substr(b0 + 1, b1 - b0 - 1);
    }
    if (name.empty()) continue;
    if (cells.size() >= 2 && (cells[1] == "counter" || cells[1] == "gauge" ||
                              cells[1] == "histogram")) {
      doc.metric_rows.emplace_back(name, line);
    }
    if (cells.size() >= 2 &&
        (cells[1] == "probe" || cells[1] == "profile counter")) {
      doc.probe_rows.emplace_back(name, line);
    }
    if (in_events && cells.size() >= 4) {
      DocEvent ev;
      ev.name = name;
      ev.requires_cause = cells[2].find("root (0)") == std::string::npos;
      ev.line = line;
      doc.event_rows.push_back(ev);
    }
  }
  return doc;
}

// ---------------------------------------------------------------------------
// Project symbol index (cross-TU, built from every file on the command
// line before any rule runs)
// ---------------------------------------------------------------------------

struct ProjectIndex {
  SymbolTable sym;  // unordered container types/vars (two-tier scoping)
  std::set<std::string> float_types{"double", "float"};
  std::set<std::string> float_vars;  // header-declared float-typed names
  std::map<std::string, std::string> shard_members;  // name -> owner stem
  std::map<std::string, std::set<std::string>> member_decl_files;
  // class -> function -> zero-based index of its `cause` parameter.
  std::map<std::string, std::map<std::string, int>> cause_sigs;
  std::set<std::string> rng_forked;  // names assigned a fork() anywhere
  // Filled during the rule pass, consumed by --reverse-docs.
  std::set<std::string> emitted_events;
  std::set<std::string> registered_metrics;
  std::set<std::string> used_probes;
};

// `using X = double;` (possibly through one alias level, e.g. sim::Time).
void collect_float_aliases(const LexedFile& f, ProjectIndex& idx) {
  const auto& toks = f.toks;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (toks[i].kind != Tok::kIdent || !idx.float_types.count(toks[i].text)) continue;
    std::size_t b = i;
    while (b >= 2 && ((toks[b - 1].kind == Tok::kPunct && toks[b - 1].text == "::") ||
                      (toks[b - 1].kind == Tok::kIdent &&
                       (toks[b - 1].text == "std" || toks[b - 1].text == "sim")))) {
      --b;
    }
    if (b >= 3 && toks[b - 1].text == "=" && toks[b - 2].kind == Tok::kIdent &&
        toks[b - 3].kind == Tok::kIdent && toks[b - 3].text == "using") {
      idx.float_types.insert(toks[b - 2].text);
    }
  }
}

// `double name_;` in a header: float-typed members, global by name (the
// underscore suffix keeps short locals like `total` out of the set).
void collect_float_members(const LexedFile& f,
                           const std::set<std::string>& float_types,
                           std::set<std::string>& out) {
  const auto& toks = f.toks;
  for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
    if (toks[i].kind != Tok::kIdent || !float_types.count(toks[i].text)) continue;
    if (toks[i + 1].kind == Tok::kIdent && toks[i + 1].text.back() == '_')
      out.insert(toks[i + 1].text);
  }
}

// Every scalar numeric declaration in one file, in token order, so the
// accumulation rule can resolve a name to its *nearest preceding*
// declaration (a file may reuse `total` for a uint64 lane sum and a
// double latency sum; only the latter is order-sensitive).
struct NumDecl {
  std::size_t tok = 0;
  std::string name;
  bool is_float = false;
};

std::vector<NumDecl> collect_num_decls(const LexedFile& f,
                                       const std::set<std::string>& float_types) {
  static const std::set<std::string> kIntTypes = {
      "int",      "unsigned", "long",     "short",    "size_t",
      "uint64_t", "int64_t",  "uint32_t", "int32_t",  "uint16_t",
      "int16_t",  "uint8_t",  "int8_t",   "ptrdiff_t", "bool",
      "EventId",  "uint_fast32_t"};
  const auto& toks = f.toks;
  std::vector<NumDecl> out;
  for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
    if (toks[i].kind != Tok::kIdent) continue;
    if (toks[i + 1].kind == Tok::kIdent) {
      const bool flt = float_types.count(toks[i].text) > 0;
      const bool integral = !flt && kIntTypes.count(toks[i].text) > 0;
      if (flt || integral) {
        out.push_back({i + 1, toks[i + 1].text, flt});
        continue;
      }
      // `auto name = <number>`: decide by the literal's spelling.
      if (toks[i].text == "auto" && i + 3 < toks.size() &&
          toks[i + 2].kind == Tok::kPunct && toks[i + 2].text == "=" &&
          toks[i + 3].kind == Tok::kNumber) {
        const std::string& num = toks[i + 3].text;
        out.push_back({i + 1, toks[i + 1].text,
                       num.find('.') != std::string::npos});
      }
    }
  }
  return out;
}

// Trailing-underscore member declarations per header — the uniqueness
// filter for shard-affinity (a name declared in two headers is too
// ambiguous to attribute to one shard owner).
void collect_member_decls(const LexedFile& f, ProjectIndex& idx) {
  const auto& toks = f.toks;
  for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
    if (toks[i].kind != Tok::kIdent || toks[i].text.back() != '_') continue;
    if (toks[i + 1].kind != Tok::kPunct) continue;
    const std::string& nx = toks[i + 1].text;
    if (nx == ";" || nx == "=" || nx == "{" || nx == "[") {
      idx.member_decl_files[toks[i].text].insert(f.path);
    }
  }
}

// Members declared inside `// sharq-lint: shard-owned begin/end` regions
// of a header belong to that header's stem (shard_runtime, network, ...).
void collect_shard_members(const LexedFile& f, ProjectIndex& idx) {
  std::vector<std::pair<int, int>> regions;
  int open = -1;
  for (const Annotation& a : f.annotations) {
    if (a.rule != "shard-owned") continue;
    switch (a.scope) {
      case Annotation::kBegin: open = a.line; break;
      case Annotation::kEnd:
        regions.emplace_back(open < 0 ? 0 : open, a.line);
        open = -1;
        break;
      case Annotation::kFile: regions.emplace_back(0, 1 << 30); break;
      case Annotation::kLine: regions.emplace_back(a.line, a.line + 1); break;
    }
  }
  if (open >= 0) regions.emplace_back(open, 1 << 30);
  if (regions.empty()) return;
  const std::string stem = fs::path(f.path).stem().string();
  const auto& toks = f.toks;
  for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
    if (toks[i].kind != Tok::kIdent || toks[i].text.back() != '_') continue;
    if (toks[i + 1].kind != Tok::kPunct) continue;
    const std::string& nx = toks[i + 1].text;
    if (nx != ";" && nx != "=" && nx != "{") continue;
    bool inside = false;
    for (const auto& [lo, hi] : regions) {
      if (toks[i].line >= lo && toks[i].line <= hi) { inside = true; break; }
    }
    if (inside) idx.shard_members.emplace(toks[i].text, stem);
  }
}

// Functions whose parameter list carries a `cause` parameter after a
// `const char* ev` lead: Journal::emit and the per-class jnl wrappers.
// Works on both in-class declarations (ClassTracker) and out-of-line
// `Class :: fn (` definitions. Call sites never match: their first
// argument is a string literal, not tokens containing `char`.
void collect_cause_sigs(const LexedFile& f, ProjectIndex& idx) {
  static const std::set<std::string> kNotFn = {
      "if", "for", "while", "switch", "return", "sizeof", "catch"};
  const auto& toks = f.toks;
  ClassTracker tracker;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    tracker.feed(toks, i);
    if (toks[i].kind != Tok::kIdent || i + 1 >= toks.size() ||
        toks[i + 1].kind != Tok::kPunct || toks[i + 1].text != "(") {
      continue;
    }
    if (kNotFn.count(toks[i].text)) continue;
    std::string cls;
    if (i >= 2 && toks[i - 1].kind == Tok::kPunct && toks[i - 1].text == "::" &&
        toks[i - 2].kind == Tok::kIdent) {
      cls = toks[i - 2].text;
    } else {
      cls = tracker.current();
    }
    if (cls.empty()) continue;
    const std::size_t close = skip_balanced(toks, i + 1);
    if (close == toks.size()) continue;
    // Split parameters at top-level commas.
    int depth = 0;
    std::vector<std::pair<std::size_t, std::size_t>> params;
    std::size_t start = i + 2;
    for (std::size_t j = i + 1; j < close; ++j) {
      if (toks[j].kind != Tok::kPunct) continue;
      const std::string& p = toks[j].text;
      if (p == "(" || p == "[" || p == "{") ++depth;
      else if (p == ")" || p == "]" || p == "}") --depth;
      if ((p == "," && depth == 1) || (p == ")" && depth == 0)) {
        if (j > start) params.emplace_back(start, j);
        start = j + 1;
      }
    }
    if (params.size() < 2) continue;
    bool first_char = false;
    for (std::size_t j = params[0].first; j < params[0].second; ++j) {
      if (toks[j].kind == Tok::kIdent && toks[j].text == "char") { first_char = true; break; }
    }
    if (!first_char) continue;
    int cause_idx = -1;
    for (std::size_t k = 0; k < params.size(); ++k) {
      std::string last_ident;
      for (std::size_t j = params[k].first; j < params[k].second; ++j) {
        if (toks[j].kind == Tok::kIdent) last_ident = toks[j].text;
        if (toks[j].kind == Tok::kPunct && toks[j].text == "=") break;  // default arg
      }
      if (last_ident == "cause") { cause_idx = static_cast<int>(k); break; }
    }
    if (cause_idx > 0) idx.cause_sigs[cls][toks[i].text] = cause_idx;
  }
}

// Names initialized or assigned from a fork(): `x = parent.fork();` and
// constructor-style `x_(parent.fork())` / `Rng x(parent.fork())`.
void collect_rng_forked(const LexedFile& f, ProjectIndex& idx) {
  const auto& toks = f.toks;
  for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
    if (toks[i].kind != Tok::kIdent) continue;
    if (toks[i + 1].kind != Tok::kPunct) continue;
    if (toks[i + 1].text == "(") {
      const std::size_t close = skip_balanced(toks, i + 1);
      for (std::size_t j = i + 2; j + 1 < close; ++j) {
        if (toks[j].kind == Tok::kIdent && toks[j].text == "fork") {
          idx.rng_forked.insert(toks[i].text);
          break;
        }
      }
    } else if (toks[i + 1].text == "=") {
      for (std::size_t j = i + 2; j < toks.size(); ++j) {
        if (toks[j].kind == Tok::kPunct && toks[j].text == ";") break;
        if (toks[j].kind == Tok::kIdent && toks[j].text == "fork") {
          idx.rng_forked.insert(toks[i].text);
          break;
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Rules
// ---------------------------------------------------------------------------

void rule_unordered_iter(const LexedFile& f, const SymbolTable& sym,
                         const Suppressions& sup, std::vector<Finding>& out) {
  const auto& toks = f.toks;
  auto is_unordered_name = [&](const Tok& t) {
    return t.kind == Tok::kIdent && (sym.unordered_vars.count(t.text) > 0 ||
                                     sym.unordered_types.count(t.text) > 0);
  };
  for (std::size_t i = 0; i < toks.size(); ++i) {
    // Range-for whose range expression mentions an unordered name.
    if (toks[i].kind == Tok::kIdent && toks[i].text == "for" &&
        i + 1 < toks.size() && toks[i + 1].text == "(") {
      const std::size_t close = skip_balanced(toks, i + 1);
      // Find the top-level ':' of a range-for (depth 1 relative to the
      // for-parens; `::` is a distinct token so plain ':' is unambiguous).
      int depth = 0;
      std::size_t colon = 0;
      for (std::size_t j = i + 1; j < close; ++j) {
        if (toks[j].kind != Tok::kPunct) continue;
        if (toks[j].text == "(" || toks[j].text == "[" || toks[j].text == "{") ++depth;
        else if (toks[j].text == ")" || toks[j].text == "]" || toks[j].text == "}") --depth;
        else if (toks[j].text == ":" && depth == 1) { colon = j; break; }
        else if (toks[j].text == ";") break;  // classic for-loop
      }
      if (colon != 0) {
        for (std::size_t j = colon + 1; j + 1 < close; ++j) {
          if (is_unordered_name(toks[j]) && !sup.suppressed("unordered-iter", toks[j].line)) {
            out.push_back({f.path, toks[i].line, "unordered-iter",
                           "range-for over unordered container '" + toks[j].text +
                               "': iteration order is hash-dependent and can leak "
                               "into timers/wire/export ordering; use an ordered "
                               "container, or annotate "
                               "`// sharq-lint: unordered-iter-ok (reason)`"});
            break;
          }
        }
      }
    }
    // begin()/end() family on an unordered name: explicit iterator walks.
    if (toks[i].kind == Tok::kIdent && i + 2 < toks.size() &&
        toks[i + 1].kind == Tok::kPunct &&
        (toks[i + 1].text == "." || toks[i + 1].text == "->") &&
        toks[i + 2].kind == Tok::kIdent) {
      // Only the begin() family: a walk cannot start at end(), and
      // `m.find(k) == m.end()` is the (order-free) lookup idiom.
      static const std::set<std::string> kIter = {"begin", "cbegin", "rbegin"};
      if (kIter.count(toks[i + 2].text) && is_unordered_name(toks[i]) &&
          !sup.suppressed("unordered-iter", toks[i].line)) {
        out.push_back({f.path, toks[i].line, "unordered-iter",
                       "iterator walk over unordered container '" + toks[i].text +
                           "': order is hash-dependent; use an ordered container, "
                           "or annotate "
                           "`// sharq-lint: unordered-iter-ok (reason)`"});
      }
    }
  }
}

void rule_wall_clock(const LexedFile& f, const Suppressions& sup,
                     std::vector<Finding>& out) {
  static const std::set<std::string> kBannedIdents = {
      "rand", "srand", "drand48", "lrand48", "random_device", "mt19937",
      "mt19937_64", "minstd_rand", "default_random_engine", "system_clock",
      "steady_clock", "high_resolution_clock", "gettimeofday",
      "clock_gettime", "localtime", "gmtime", "strftime",
      // Raw cycle counters: the self-profiler's tick source. Timing reads
      // belong in src/stats/profiler.cpp (the one `wall-clock-ok file`
      // annotation); a probe call site must stay clock-free.
      "__rdtsc", "__rdtscp", "_rdtsc"};
  static const std::set<std::string> kBannedHeaders = {"chrono", "ctime",
                                                       "time.h", "sys/time.h",
                                                       "random"};
  const auto& toks = f.toks;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    const Tok& t = toks[i];
    if (t.kind == Tok::kHeader && kBannedHeaders.count(t.text) &&
        !sup.suppressed("wall-clock", t.line)) {
      out.push_back({f.path, t.line, "wall-clock",
                     "#include <" + t.text + "> in src/: wall-clock time and "
                         "ambient randomness break same-seed reproducibility; "
                         "use sim/random.hpp and Simulator::now()"});
      continue;
    }
    if (t.kind != Tok::kIdent) continue;
    const bool member = i > 0 && toks[i - 1].kind == Tok::kPunct &&
                        (toks[i - 1].text == "." || toks[i - 1].text == "->");
    if (member) continue;  // obj.rand() is somebody else's method
    bool banned = kBannedIdents.count(t.text) > 0;
    // `time(...)` as a free function call (std::time / ::time).
    if (!banned && t.text == "time" && i + 1 < toks.size() &&
        toks[i + 1].kind == Tok::kPunct && toks[i + 1].text == "(") {
      banned = true;
    }
    if (banned && !sup.suppressed("wall-clock", t.line)) {
      out.push_back({f.path, t.line, "wall-clock",
                     "'" + t.text + "' is a nondeterminism source: every "
                         "stochastic or temporal input must flow through "
                         "sim/random.hpp or the Simulator clock"});
    }
  }
}

void rule_event_tag(const LexedFile& f, const Suppressions& sup,
                    std::vector<Finding>& out) {
  const auto& toks = f.toks;
  auto simulator_receiver = [&](std::size_t dot) -> bool {
    if (dot == 0) return false;
    const Tok& r = toks[dot - 1];
    if (r.kind == Tok::kIdent) {
      return r.text == "sim" || r.text == "sim_" || r.text == "simu" ||
             r.text == "simu_" || r.text == "simulator" || r.text == "simulator_";
    }
    // `... .simulator().after(...)` — receiver is a call: look through `()`.
    if (r.kind == Tok::kPunct && r.text == ")" && dot >= 3 &&
        toks[dot - 2].text == "(" && toks[dot - 3].kind == Tok::kIdent) {
      return toks[dot - 3].text == "simulator";
    }
    return false;
  };
  for (std::size_t i = 2; i + 1 < toks.size(); ++i) {
    if (toks[i].kind != Tok::kIdent || (toks[i].text != "at" && toks[i].text != "after")) continue;
    if (toks[i - 1].kind != Tok::kPunct ||
        (toks[i - 1].text != "." && toks[i - 1].text != "->")) continue;
    if (toks[i + 1].kind != Tok::kPunct || toks[i + 1].text != "(") continue;
    if (!simulator_receiver(i - 1)) continue;
    const std::size_t close = skip_balanced(toks, i + 1);
    // Split the argument list at top-level commas.
    int depth = 0;
    std::vector<std::size_t> commas;
    for (std::size_t j = i + 1; j < close - 1; ++j) {
      if (toks[j].kind != Tok::kPunct) continue;
      if (toks[j].text == "(" || toks[j].text == "[" || toks[j].text == "{") ++depth;
      else if (toks[j].text == ")" || toks[j].text == "]" || toks[j].text == "}") --depth;
      else if (toks[j].text == "," && depth == 1) commas.push_back(j);
    }
    bool ok = commas.size() >= 2;  // at(when, fn, tag): >= 3 arguments
    if (ok) {
      // The tag argument must be a string literal or a plain identifier
      // expression (e.g. `tag_`, `e.tag`) — not a lambda, not nullptr.
      const std::size_t lo = commas.back() + 1;
      bool has_str = false, has_brace = false, has_null = false;
      for (std::size_t j = lo; j + 1 < close; ++j) {
        if (toks[j].kind == Tok::kString) has_str = true;
        if (toks[j].kind == Tok::kPunct && toks[j].text == "{") has_brace = true;
        if (toks[j].kind == Tok::kIdent && (toks[j].text == "nullptr" || toks[j].text == "NULL"))
          has_null = true;
      }
      const bool ident_tag = !has_str && !has_brace && !has_null && lo + 1 <= close - 1;
      ok = (has_str || ident_tag) && !has_brace && !has_null;
    }
    if (!ok && !sup.suppressed("event-tag", toks[i].line)) {
      out.push_back({f.path, toks[i].line, "event-tag",
                     "Simulator::" + toks[i].text + "() call site without an event "
                         "tag: per-tag event counters are part of the metrics "
                         "contract (docs/OBSERVABILITY.md); pass a string-literal "
                         "tag as the last argument"});
    }
  }
}

void rule_unchecked_shift(const LexedFile& f, const Suppressions& sup,
                          std::vector<Finding>& out) {
  const auto& toks = f.toks;
  for (std::size_t i = 1; i + 1 < toks.size(); ++i) {
    if (toks[i].kind != Tok::kPunct || toks[i].text != "<<") continue;
    const Tok& lhs = toks[i - 1];
    if (lhs.kind != Tok::kNumber) continue;
    if (lhs.text.find('.') != std::string::npos) continue;  // float stream
    // Constant-fold-visible RHS is fine.
    const Tok& rhs = toks[i + 1];
    bool constant = false;
    if (is_const_like(rhs)) {
      constant = true;
    } else if (rhs.kind == Tok::kPunct && rhs.text == "(") {
      const std::size_t close = skip_balanced(toks, i + 1);
      constant = true;
      for (std::size_t j = i + 2; j + 1 < close; ++j) {
        if (toks[j].kind == Tok::kPunct) continue;
        if (!is_const_like(toks[j])) { constant = false; break; }
      }
    }
    if (!constant && !sup.suppressed("unchecked-shift", toks[i].line)) {
      out.push_back({f.path, toks[i].line, "unchecked-shift",
                     "'" + lhs.text + " << " + rhs.text + "': shifting a literal "
                         "by a non-constant is UB once the count reaches the "
                         "operand width (the TraceWriter forged-class bug); "
                         "bound-check the count, then annotate "
                         "`// sharq-lint: unchecked-shift-ok (guard)`"});
    }
  }
}

void rule_thread_unsafe(const LexedFile& f, const Suppressions& sup,
                        std::vector<Finding>& out) {
  static const std::set<std::string> kBannedStd = {
      "thread", "jthread", "mutex", "timed_mutex", "recursive_mutex",
      "recursive_timed_mutex", "shared_mutex", "shared_timed_mutex",
      "atomic", "atomic_flag", "atomic_ref", "condition_variable",
      "condition_variable_any", "lock_guard", "unique_lock", "scoped_lock",
      "shared_lock", "counting_semaphore", "binary_semaphore", "barrier",
      "latch", "future", "shared_future", "promise", "async", "stop_token",
      "stop_source", "call_once", "once_flag"};
  static const std::set<std::string> kBannedHeaders = {
      "thread", "mutex", "atomic", "condition_variable", "future",
      "shared_mutex", "semaphore", "barrier", "latch", "stop_token",
      "pthread.h"};
  const auto& toks = f.toks;
  const std::string advice =
      "; synchronization in protocol code breaks the deterministic "
      "shard contract (lane/barrier discipline, "
      "src/sim/shard_runtime.hpp) — if this file IS shard-runtime "
      "infrastructure, annotate "
      "`// sharq-lint: thread-unsafe-ok file (reason)`";
  for (std::size_t i = 0; i < toks.size(); ++i) {
    const Tok& t = toks[i];
    if (t.kind == Tok::kHeader && kBannedHeaders.count(t.text) &&
        !sup.suppressed("thread-unsafe", t.line)) {
      out.push_back({f.path, t.line, "thread-unsafe",
                     "#include <" + t.text + "> in src/" + advice});
      continue;
    }
    if (t.kind != Tok::kIdent) continue;
    if (t.text == "thread_local") {
      if (!sup.suppressed("thread-unsafe", t.line)) {
        out.push_back({f.path, t.line, "thread-unsafe",
                       "'thread_local' storage in src/" + advice});
      }
      continue;
    }
    if (t.text.size() > 8 && t.text.compare(0, 8, "pthread_") == 0) {
      if (!sup.suppressed("thread-unsafe", t.line)) {
        out.push_back({f.path, t.line, "thread-unsafe",
                       "'" + t.text + "' in src/" + advice});
      }
      continue;
    }
    // Only the std-qualified spellings: a protocol-domain identifier that
    // happens to be called `barrier` or `promise` must not fire.
    const bool std_qualified =
        i >= 2 && toks[i - 1].kind == Tok::kPunct && toks[i - 1].text == "::" &&
        toks[i - 2].kind == Tok::kIdent && toks[i - 2].text == "std";
    if (std_qualified && kBannedStd.count(t.text) &&
        !sup.suppressed("thread-unsafe", t.line)) {
      out.push_back({f.path, t.line, "thread-unsafe",
                     "'std::" + t.text + "' in src/" + advice});
    }
  }
}

void rule_metric_docs(const LexedFile& f, const Suppressions& sup,
                      const std::string& doc_text, std::vector<Finding>& out,
                      std::set<std::string>* registered) {
  const auto& toks = f.toks;
  auto documented = [&](const std::string& name) {
    return doc_text.find("`" + name + "`") != std::string::npos;
  };
  for (std::size_t i = 0; i + 2 < toks.size(); ++i) {
    if (toks[i].kind != Tok::kIdent) continue;
    const std::string& id = toks[i].text;
    if (id != "counter" && id != "gauge" && id != "histogram") continue;
    if (toks[i + 1].kind != Tok::kPunct || toks[i + 1].text != "(") continue;
    if (toks[i + 2].kind != Tok::kString) continue;
    const std::string& name = toks[i + 2].text;
    if (name.empty()) continue;
    if (registered) registered->insert(name);
    if (!documented(name) && !sup.suppressed("metric-docs", toks[i].line)) {
      out.push_back({f.path, toks[i].line, "metric-docs",
                     "metric family \"" + name + "\" is not documented in "
                     "docs/OBSERVABILITY.md: add a catalog row (the doc is "
                     "part of the metrics schema contract)"});
    }
  }
  // Event tags passed as the literal last argument of Simulator::at/after
  // or Timer::arm/arm_if_idle.
  for (std::size_t i = 2; i + 1 < toks.size(); ++i) {
    if (toks[i].kind != Tok::kString) continue;
    if (i + 1 >= toks.size() || toks[i + 1].kind != Tok::kPunct || toks[i + 1].text != ")") continue;
    if (toks[i - 1].kind != Tok::kPunct || toks[i - 1].text != ",") continue;
    // Only treat as a tag when it looks like one ("area.name") to avoid
    // matching arbitrary string arguments.
    const std::string& name = toks[i].text;
    if (name.find('.') == std::string::npos || name.find(' ') != std::string::npos) continue;
    if (!documented(name) && !sup.suppressed("metric-docs", toks[i].line)) {
      out.push_back({f.path, toks[i].line, "metric-docs",
                     "event tag \"" + name + "\" is not documented in "
                         "docs/OBSERVABILITY.md: add it to the event-tag table"});
    }
  }
}

// prof-docs: every profiler probe name used in src/ — a SHARQ_PROF_SCOPE
// argument or a ProfSubsys:: / ProfCounter:: member — must have a row in
// the docs/OBSERVABILITY.md probe catalog (type cell "probe" for
// subsystems, "profile counter" for named counters); --reverse-docs
// checks the cataloged rows stay live. The catalog is part of the
// sharqfec.profile.v1 schema contract the same way the metric tables are
// part of the metrics schema.
void rule_prof_docs(const LexedFile& f, const Suppressions& sup,
                    const std::string& doc_text, std::vector<Finding>& out,
                    std::set<std::string>* used) {
  const auto& toks = f.toks;
  auto documented = [&](const std::string& name) {
    return doc_text.find("`" + name + "`") != std::string::npos;
  };
  auto flag = [&](const std::string& name, int line) {
    if (used) used->insert(name);
    if (!documented(name) && !sup.suppressed("prof-docs", line)) {
      out.push_back({f.path, line, "prof-docs",
                     "profiler probe \"" + name + "\" is not documented in "
                     "docs/OBSERVABILITY.md: add a probe-catalog row (the "
                     "catalog is part of the profile schema contract)"});
    }
  };
  for (std::size_t i = 0; i + 2 < toks.size(); ++i) {
    if (toks[i].kind != Tok::kIdent) continue;
    if (toks[i].text == "SHARQ_PROF_SCOPE") {
      if (toks[i + 1].kind == Tok::kPunct && toks[i + 1].text == "(" &&
          toks[i + 2].kind == Tok::kIdent) {
        flag(toks[i + 2].text, toks[i].line);
      }
      continue;
    }
    if (toks[i].text != "ProfSubsys" && toks[i].text != "ProfCounter") {
      continue;
    }
    if (toks[i + 1].kind != Tok::kPunct || toks[i + 1].text != "::") continue;
    if (toks[i + 2].kind != Tok::kIdent) continue;
    const std::string& name = toks[i + 2].text;
    if (name == "kCount") continue;  // the enum's own size sentinel
    flag(name, toks[i].line);
  }
}

// pointer-key: pointer-typed keys in associative containers and
// std::less/std::greater over pointers. The key is the first template
// argument; a mapped type holding pointers is fine.
void rule_pointer_key(const LexedFile& f, const Suppressions& sup,
                      std::vector<Finding>& out) {
  static const std::set<std::string> kOrdered = {"map", "set", "multimap",
                                                 "multiset"};
  static const std::set<std::string> kUnordered = {
      "unordered_map", "unordered_set", "unordered_multimap",
      "unordered_multiset"};
  const auto& toks = f.toks;
  auto std_qualified = [&](std::size_t i) {
    return i >= 2 && toks[i - 1].kind == Tok::kPunct && toks[i - 1].text == "::" &&
           toks[i - 2].kind == Tok::kIdent && toks[i - 2].text == "std";
  };
  for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
    if (toks[i].kind != Tok::kIdent) continue;
    const std::string& id = toks[i].text;
    const bool container = kUnordered.count(id) ||
                           (kOrdered.count(id) && std_qualified(i));
    const bool cmp = (id == "less" || id == "greater") && std_qualified(i);
    if (!container && !cmp) continue;
    if (toks[i + 1].kind != Tok::kPunct || toks[i + 1].text != "<") continue;
    const std::size_t after = skip_template_args(toks, i + 1);
    if (after == i + 1) continue;
    // Scan the first top-level template argument (the key / compared
    // type) for a raw pointer declarator.
    int angle = 1, paren = 0;
    bool ptr = false;
    for (std::size_t j = i + 2; j + 1 < after; ++j) {
      if (toks[j].kind != Tok::kPunct) continue;
      const std::string& p = toks[j].text;
      if (p == "<") ++angle;
      else if (p == ">") --angle;
      else if (p == ">>") angle -= 2;
      else if (p == "(" || p == "[") ++paren;
      else if (p == ")" || p == "]") --paren;
      else if (p == "," && angle == 1 && paren == 0 && container) break;
      else if (p == "*") { ptr = true; break; }
    }
    if (ptr && !sup.suppressed("pointer-key", toks[i].line)) {
      out.push_back({f.path, toks[i].line, "pointer-key",
                     container
                         ? "pointer-typed key in '" + id + "': hash/compare "
                           "order follows allocation addresses (ASLR, pool "
                           "recycling) and silently breaks same-seed "
                           "byte-identity; key by value (e.g. "
                           "std::map<std::string_view, ...>) or annotate "
                           "`// sharq-lint: pointer-key-ok (reason)`"
                         : "std::" + id + " over a pointer type: comparison "
                           "order is the allocator's, not the program's; "
                           "sort by a value key or annotate "
                           "`// sharq-lint: pointer-key-ok (reason)`"});
    }
  }
}

// shard-affinity: a member declared in a shard-owned region of a header
// may only be named from files sharing that header's stem.
void rule_shard_affinity(const LexedFile& f, const ProjectIndex& idx,
                         const Suppressions& sup, std::vector<Finding>& out) {
  if (idx.shard_members.empty()) return;
  const std::string stem = fs::path(f.path).stem().string();
  const auto& toks = f.toks;
  for (const Tok& t : toks) {
    if (t.kind != Tok::kIdent) continue;
    auto it = idx.shard_members.find(t.text);
    if (it == idx.shard_members.end()) continue;
    if (stem == it->second) continue;
    // A name declared in more than one header cannot be attributed to
    // one owner; drop it rather than guess.
    auto df = idx.member_decl_files.find(t.text);
    if (df != idx.member_decl_files.end() && df->second.size() > 1) continue;
    if (sup.suppressed("shard-affinity", t.line)) continue;
    out.push_back({f.path, t.line, "shard-affinity",
                   "'" + t.text + "' is shard-owned state of " + it->second +
                       ".hpp: cross-shard access is only deterministic on "
                       "the barrier-merge path; keep the access in " +
                       it->second + ".* or annotate "
                       "`// sharq-lint: shard-affinity-ok (merge path, "
                       "barrier audited)`"});
  }
}

// float-accum: `name += ...` on a float-typed name inside a range-for
// body. FP addition is not associative, so summation order is part of
// the output contract; an annotation records why the order is fixed.
void rule_float_accum(const LexedFile& f, const ProjectIndex& idx,
                      const Suppressions& sup, std::vector<Finding>& out) {
  const auto& toks = f.toks;
  const std::vector<NumDecl> decls = collect_num_decls(f, idx.float_types);
  // Is the name float-typed at this use? The nearest preceding
  // declaration in this file wins; header-declared float members are the
  // cross-TU fallback.
  auto is_float_at = [&](const std::string& name, std::size_t use) {
    for (std::size_t d = decls.size(); d-- > 0;) {
      if (decls[d].tok < use && decls[d].name == name) return decls[d].is_float;
    }
    return idx.float_vars.count(name) > 0;
  };
  // Token-index intervals of range-for bodies.
  std::vector<std::pair<std::size_t, std::size_t>> bodies;
  for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
    if (toks[i].kind != Tok::kIdent || toks[i].text != "for") continue;
    if (toks[i + 1].kind != Tok::kPunct || toks[i + 1].text != "(") continue;
    const std::size_t close = skip_balanced(toks, i + 1);
    if (close == toks.size()) continue;
    int depth = 0;
    bool is_range = false;
    for (std::size_t j = i + 1; j < close; ++j) {
      if (toks[j].kind != Tok::kPunct) continue;
      const std::string& p = toks[j].text;
      if (p == "(" || p == "[" || p == "{") ++depth;
      else if (p == ")" || p == "]" || p == "}") --depth;
      else if (p == ":" && depth == 1) { is_range = true; break; }
      else if (p == ";") break;
    }
    if (!is_range) continue;
    std::size_t b1 = close;
    if (close < toks.size() && toks[close].kind == Tok::kPunct &&
        toks[close].text == "{") {
      b1 = skip_balanced(toks, close);
    } else {
      while (b1 < toks.size() &&
             !(toks[b1].kind == Tok::kPunct && toks[b1].text == ";")) {
        ++b1;
      }
    }
    bodies.emplace_back(close, b1);
  }
  if (bodies.empty()) return;
  for (std::size_t i = 1; i < toks.size(); ++i) {
    if (toks[i].kind != Tok::kPunct || toks[i].text != "+=") continue;
    bool inside = false;
    for (const auto& [lo, hi] : bodies) {
      if (i > lo && i < hi) { inside = true; break; }
    }
    if (!inside) continue;
    std::size_t k = i - 1;
    while (k > 0 && toks[k].kind == Tok::kPunct && toks[k].text == "]") {
      const std::size_t open = rskip_balanced(toks, k);
      if (open == 0) break;
      k = open - 1;
    }
    if (toks[k].kind != Tok::kIdent || !is_float_at(toks[k].text, i)) continue;
    if (sup.suppressed("float-accum", toks[i].line)) continue;
    out.push_back({f.path, toks[i].line, "float-accum",
                   "'" + toks[k].text + " +=' inside a range-for: float "
                       "summation order is observable output, and a sharded "
                       "merge can reorder it; accumulate in a fixed order "
                       "and annotate `// sharq-lint: float-accum-ok "
                       "(iteration order fixed: ...)`, or sum integers"});
  }
}

// rng-stream: by-value sim::Rng declarations must be initialized from a
// parent stream's fork() (at the declaration, or via a constructor /
// assignment seen anywhere in the project — rng_forked is name-based).
void rule_rng_stream(const LexedFile& f, const ProjectIndex& idx,
                     const Suppressions& sup, bool all_scopes,
                     std::vector<Finding>& out) {
  if (!all_scopes &&
      (ends_with(f.path, "src/sim/random.hpp") ||
       ends_with(f.path, "src/sim/simulator.hpp") ||
       ends_with(f.path, "src/sim/simulator.cpp"))) {
    return;  // the stream factories themselves
  }
  const auto& toks = f.toks;
  for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
    if (toks[i].kind != Tok::kIdent || toks[i].text != "Rng") continue;
    // Qualified spelling must be sim::Rng; another namespace's Rng is
    // not ours.
    if (i >= 2 && toks[i - 1].kind == Tok::kPunct && toks[i - 1].text == "::" &&
        !(toks[i - 2].kind == Tok::kIdent && toks[i - 2].text == "sim")) {
      continue;
    }
    // Skip type-position uses that are not by-value declarations.
    const std::size_t prev = (i >= 2 && toks[i - 1].text == "::") ? i - 3 : i - 1;
    if (prev + 1 > 0 && prev < toks.size() && toks[prev].kind == Tok::kIdent) {
      static const std::set<std::string> kNotDecl = {
          "class", "struct", "using", "enum", "typename", "return"};
      if (kNotDecl.count(toks[prev].text)) continue;
    }
    if (toks[i + 1].kind != Tok::kIdent) continue;  // Rng&, Rng*, Rng::, Rng)
    const std::string& name = toks[i + 1].text;
    if (i + 2 >= toks.size() || toks[i + 2].kind != Tok::kPunct) continue;
    const std::string& nx = toks[i + 2].text;
    bool flagged = false;
    if (nx == ";") {
      flagged = true;  // uninitialized member/local
    } else if (nx == "=" ) {
      flagged = true;
      for (std::size_t j = i + 3; j < toks.size(); ++j) {
        if (toks[j].kind == Tok::kPunct && toks[j].text == ";") break;
        if (toks[j].kind == Tok::kIdent &&
            (toks[j].text == "fork" || toks[j].text == "next_u64")) {
          flagged = false;
          break;
        }
      }
    } else if (nx == "(" || nx == "{") {
      const std::size_t close = skip_balanced(toks, i + 2);
      if (close == toks.size()) continue;
      bool has_fork = false, adjacent_idents = false, empty = close == i + 4;
      for (std::size_t j = i + 3; j + 1 < close; ++j) {
        if (toks[j].kind == Tok::kIdent &&
            (toks[j].text == "fork" || toks[j].text == "next_u64")) {
          has_fork = true;
        }
        if (toks[j].kind == Tok::kIdent && toks[j + 1].kind == Tok::kIdent) {
          adjacent_idents = true;  // `type name`: a function declaration
        }
      }
      flagged = !has_fork && !adjacent_idents && !(nx == "(" && empty);
    }
    if (!flagged) continue;
    if (idx.rng_forked.count(name)) continue;
    if (sup.suppressed("rng-stream", toks[i].line)) continue;
    out.push_back({f.path, toks[i].line, "rng-stream",
                   "'" + name + "' is a sim::Rng that is never fork()ed "
                       "from a Simulator/shard stream: ad-hoc streams make "
                       "draw order depend on call-site history, not the "
                       "seed; initialize from a parent stream's fork() or "
                       "annotate `// sharq-lint: rng-stream-ok (reason)`"});
  }
}

// Shared scanner for journal emit sites: Journal::emit through a
// journal-named receiver, and the per-class wrappers recorded in
// cause_sigs, resolved via the enclosing class (in headers) or the last
// `Class :: fn (` definition seen (in .cpp files).
template <typename Cb>
void scan_emit_sites(const LexedFile& f, const ProjectIndex& idx, Cb&& cb) {
  const auto& toks = f.toks;
  ClassTracker tracker;
  std::string cur_qual;  // class of the enclosing out-of-line definition
  for (std::size_t i = 0; i < toks.size(); ++i) {
    tracker.feed(toks, i);
    if (toks[i].kind == Tok::kPunct && toks[i].text == "::" && i >= 1 &&
        i + 2 < toks.size() && toks[i - 1].kind == Tok::kIdent &&
        toks[i + 1].kind == Tok::kIdent && toks[i + 2].kind == Tok::kPunct &&
        toks[i + 2].text == "(") {
      // A definition's class name sits in type position: what precedes it
      // is a return type, a scope close, or another qualifier — never
      // expression punctuation (`cond ? std::min(...) : y` must not read
      // as a constructor-init definition of class `std`).
      if (i >= 2 && toks[i - 2].kind == Tok::kPunct) {
        const std::string& b = toks[i - 2].text;
        if (b != ";" && b != "}" && b != "{" && b != "*" && b != "&" &&
            b != ">" && b != "::") {
          continue;
        }
      }
      std::size_t close = skip_balanced(toks, i + 2);
      std::size_t k = close;
      while (k < toks.size() && toks[k].kind == Tok::kIdent &&
             (toks[k].text == "const" || toks[k].text == "noexcept" ||
              toks[k].text == "override")) {
        ++k;
      }
      if (k < toks.size() && toks[k].kind == Tok::kPunct &&
          (toks[k].text == "{" || toks[k].text == ":")) {
        cur_qual = toks[i - 1].text;
      }
    }
    if (toks[i].kind != Tok::kIdent || i + 1 >= toks.size() ||
        toks[i + 1].kind != Tok::kPunct || toks[i + 1].text != "(") {
      continue;
    }
    const std::string& fn = toks[i].text;
    if (i >= 1 && toks[i - 1].kind == Tok::kPunct && toks[i - 1].text == "::")
      continue;  // definition or qualified static call, not an emit site
    std::string cls;
    if (fn == "emit") {
      if (i < 2 || toks[i - 1].kind != Tok::kPunct ||
          (toks[i - 1].text != "." && toks[i - 1].text != "->")) {
        continue;
      }
      if (toks[i - 2].kind != Tok::kIdent ||
          lower(toks[i - 2].text).find("journal") == std::string::npos) {
        continue;
      }
      // The journal class itself: prefer "Journal", else the unique
      // class declaring emit.
      if (idx.cause_sigs.count("Journal") &&
          idx.cause_sigs.at("Journal").count("emit")) {
        cls = "Journal";
      } else {
        for (const auto& [c, fns] : idx.cause_sigs) {
          if (!fns.count("emit")) continue;
          if (!cls.empty()) { cls.clear(); break; }
          cls = c;
        }
        if (cls.empty()) continue;
      }
    } else {
      std::vector<std::string> candidates;
      for (const auto& [c, fns] : idx.cause_sigs) {
        if (fns.count(fn)) candidates.push_back(c);
      }
      if (candidates.empty()) continue;
      auto defines = [&](const std::string& c) {
        auto it = idx.cause_sigs.find(c);
        return it != idx.cause_sigs.end() && it->second.count(fn) > 0;
      };
      if (!cur_qual.empty() && defines(cur_qual)) cls = cur_qual;
      else if (!tracker.current().empty() && defines(tracker.current())) cls = tracker.current();
      else if (candidates.size() == 1) cls = candidates[0];
      else continue;
    }
    const int cause_idx = idx.cause_sigs.at(cls).at(fn);
    const std::size_t close = skip_balanced(toks, i + 1);
    if (close == toks.size()) continue;
    int depth = 0;
    std::vector<std::pair<std::size_t, std::size_t>> args;
    std::size_t start = i + 2;
    for (std::size_t j = i + 1; j < close; ++j) {
      if (toks[j].kind != Tok::kPunct) continue;
      const std::string& p = toks[j].text;
      if (p == "(" || p == "[" || p == "{") ++depth;
      else if (p == ")" || p == "]" || p == "}") --depth;
      if ((p == "," && depth == 1) || (p == ")" && depth == 0)) {
        if (j > start) args.emplace_back(start, j);
        start = j + 1;
      }
    }
    // The event name must be a single string literal: wrapper bodies
    // forwarding `ev` are not call sites.
    if (args.empty() || args[0].second != args[0].first + 1 ||
        toks[args[0].first].kind != Tok::kString) {
      continue;
    }
    if (static_cast<std::size_t>(cause_idx) >= args.size()) continue;
    cb(toks[args[0].first].text, args[static_cast<std::size_t>(cause_idx)],
       toks[i].line);
  }
}

// journal-cause: every emit site naming an event literal must name a
// cataloged event, and must pass a non-zero-literal cause id when the
// catalog declares a cause edge (anything but "root (0)").
void rule_journal_cause(const LexedFile& f, const ProjectIndex& idx,
                        const DocModel& doc, const Suppressions& sup,
                        std::vector<Finding>& out,
                        std::set<std::string>* emitted) {
  if (!doc.has_event_catalog) return;
  const auto& toks = f.toks;
  scan_emit_sites(f, idx, [&](const std::string& ev,
                              std::pair<std::size_t, std::size_t> cause_arg,
                              int line) {
    if (emitted) emitted->insert(ev);
    const DocEvent* row = doc.find_event(ev);
    if (!row) {
      if (!sup.suppressed("journal-cause", line)) {
        out.push_back({f.path, line, "journal-cause",
                       "journal event \"" + ev + "\" is not in the " +
                           doc.path + " event catalog: the catalog is the "
                           "machine-checked schema for every emitted event; "
                           "add a row (with its cause edge) or rename"});
      }
      return;
    }
    if (!row->requires_cause) return;
    const bool literal_zero =
        cause_arg.second == cause_arg.first + 1 &&
        toks[cause_arg.first].kind == Tok::kNumber &&
        toks[cause_arg.first].text == "0";
    if (literal_zero && !sup.suppressed("journal-cause", line)) {
      out.push_back({f.path, line, "journal-cause",
                     "journal event \"" + ev + "\" declares the cause edge "
                         "\"" + ev + " <- ...\" in " + doc.path + " but this "
                         "site passes cause=0: thread the causing EventId "
                         "through (or recatalog the event as root (0)), or "
                         "annotate `// sharq-lint: journal-cause-ok "
                         "(reason)`"});
    }
  });
}

// ---------------------------------------------------------------------------
// Driver
// ---------------------------------------------------------------------------

struct Options {
  std::vector<std::string> paths;
  std::string doc_path = "docs/OBSERVABILITY.md";
  bool all_scopes = false;  // fixtures: every rule applies everywhere
  bool reverse_docs = false;  // docs -> source liveness (lint_tree / CI)
  std::string self_test_dir;
  std::string sarif_path;
  std::string baseline_path;
};

bool starts_with(const std::string& s, const std::string& p) {
  return s.rfind(p, 0) == 0;
}

// Default rule scoping by tree location (relative paths from the repo
// root). tests/ may schedule untagged events and shift ad hoc; wall-clock
// and the docs contract are properties of the library tree.
bool rule_applies(const std::string& rule, const std::string& path,
                  bool all_scopes) {
  if (all_scopes) return true;
  const bool in_src = starts_with(path, "src/");
  const bool in_tests = starts_with(path, "tests/");
  if (rule == "wall-clock" || rule == "metric-docs" ||
      rule == "prof-docs" || rule == "thread-unsafe" ||
      rule == "shard-affinity" || rule == "rng-stream" ||
      rule == "journal-cause") {
    return in_src;
  }
  if (rule == "event-tag" || rule == "unchecked-shift" ||
      rule == "float-accum") {
    return !in_tests;
  }
  return true;  // unordered-iter, pointer-key: whole tree
}

bool lintable(const fs::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".cpp" || ext == ".hpp" || ext == ".h" || ext == ".cc";
}

std::vector<std::string> collect_files(const std::vector<std::string>& roots) {
  std::vector<std::string> files;
  for (const std::string& root : roots) {
    fs::path rp(root);
    if (fs::is_regular_file(rp)) {
      files.push_back(rp.generic_string());
      continue;
    }
    if (!fs::is_directory(rp)) continue;
    for (auto it = fs::recursive_directory_iterator(rp);
         it != fs::recursive_directory_iterator(); ++it) {
      const std::string name = it->path().filename().string();
      if (it->is_directory() &&
          (starts_with(name, "build") || name == ".git" || name == "fixtures")) {
        it.disable_recursion_pending();
        continue;
      }
      if (it->is_regular_file() && lintable(it->path())) {
        files.push_back(it->path().generic_string());
      }
    }
  }
  std::sort(files.begin(), files.end());
  return files;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::vector<Finding> run_lint(const std::vector<std::string>& files,
                              const Options& opt) {
  std::vector<LexedFile> lexed;
  lexed.reserve(files.size());
  // Round 1+2 build the project-wide type sets. Unordered-variable names
  // use two-tier scoping: header declarations are global, .cpp names are
  // file-local; type/alias names are global wherever they are spelled.
  // Two rounds reach the fixed point for one level of aliasing, which is
  // all the tree uses.
  ProjectIndex idx;
  auto collect_types = [&](const LexedFile& f) {
    if (is_header(f.path)) {
      collect_unordered_decls(f, idx.sym);
    } else {
      SymbolTable local;
      local.unordered_types = idx.sym.unordered_types;
      collect_unordered_decls(f, local);
      idx.sym.unordered_types = std::move(local.unordered_types);
    }
    collect_float_aliases(f, idx);
  };
  for (const std::string& path : files) {
    lexed.push_back(lex_file(path, slurp(path)));
    collect_types(lexed.back());
  }
  for (const LexedFile& f : lexed) collect_types(f);
  // Round 3: member ownership, function signatures, and fork sites — the
  // cross-TU facts the parallel-era rules resolve through.
  for (const LexedFile& f : lexed) {
    if (is_header(f.path)) {
      collect_float_members(f, idx.float_types, idx.float_vars);
      collect_member_decls(f, idx);
      collect_shard_members(f, idx);
    }
    collect_cause_sigs(f, idx);
    collect_rng_forked(f, idx);
  }

  const DocModel doc = parse_doc(opt.doc_path, slurp(opt.doc_path));
  std::vector<Finding> findings;
  for (const LexedFile& f : lexed) {
    const Suppressions sup(f);
    if (rule_applies("unordered-iter", f.path, opt.all_scopes)) {
      // Effective table for this file: globals plus its own declarations.
      SymbolTable eff = idx.sym;
      collect_unordered_decls(f, eff);
      rule_unordered_iter(f, eff, sup, findings);
    }
    if (rule_applies("wall-clock", f.path, opt.all_scopes))
      rule_wall_clock(f, sup, findings);
    if (rule_applies("event-tag", f.path, opt.all_scopes))
      rule_event_tag(f, sup, findings);
    if (rule_applies("unchecked-shift", f.path, opt.all_scopes))
      rule_unchecked_shift(f, sup, findings);
    if (rule_applies("thread-unsafe", f.path, opt.all_scopes))
      rule_thread_unsafe(f, sup, findings);
    if (rule_applies("metric-docs", f.path, opt.all_scopes))
      rule_metric_docs(f, sup, doc.text, findings, &idx.registered_metrics);
    if (rule_applies("prof-docs", f.path, opt.all_scopes))
      rule_prof_docs(f, sup, doc.text, findings, &idx.used_probes);
    if (rule_applies("pointer-key", f.path, opt.all_scopes))
      rule_pointer_key(f, sup, findings);
    if (rule_applies("shard-affinity", f.path, opt.all_scopes))
      rule_shard_affinity(f, idx, sup, findings);
    if (rule_applies("float-accum", f.path, opt.all_scopes))
      rule_float_accum(f, idx, sup, findings);
    if (rule_applies("rng-stream", f.path, opt.all_scopes))
      rule_rng_stream(f, idx, sup, opt.all_scopes, findings);
    if (rule_applies("journal-cause", f.path, opt.all_scopes))
      rule_journal_cause(f, idx, doc, sup, findings, &idx.emitted_events);
  }
  if (opt.reverse_docs) {
    // Docs -> source: every documented metric row and cataloged event
    // must still be live, so the doc cannot drift above the code.
    for (const auto& [name, line] : doc.metric_rows) {
      if (idx.registered_metrics.count(name)) continue;
      findings.push_back({opt.doc_path, line, "metric-docs",
                          "metric family \"" + name + "\" is documented but "
                          "never registered by counter()/gauge()/histogram() "
                          "in the linted tree: delete the stale row or "
                          "restore the metric"});
    }
    for (const DocEvent& ev : doc.event_rows) {
      if (idx.emitted_events.count(ev.name)) continue;
      findings.push_back({opt.doc_path, ev.line, "journal-cause",
                          "event \"" + ev.name + "\" is cataloged but never "
                          "emitted with a literal name in the linted tree: "
                          "delete the stale row or restore the emit site"});
    }
    for (const auto& [name, line] : doc.probe_rows) {
      if (idx.used_probes.count(name)) continue;
      findings.push_back({opt.doc_path, line, "prof-docs",
                          "probe \"" + name + "\" is cataloged but no "
                          "SHARQ_PROF_SCOPE / ProfSubsys / ProfCounter site "
                          "in the linted tree uses it: delete the stale row "
                          "or restore the probe"});
    }
  }
  std::sort(findings.begin(), findings.end());
  return findings;
}

// ---------------------------------------------------------------------------
// SARIF 2.1.0 writer
// ---------------------------------------------------------------------------

struct RuleDoc { const char* id; const char* text; };
constexpr RuleDoc kRuleDocs[] = {
    {"unordered-iter", "no iteration over unordered containers (order feeds output)"},
    {"wall-clock", "no wall-clock/randomness sources in src/ outside sim/random.hpp"},
    {"event-tag", "Simulator::at/after call sites must carry an event tag"},
    {"unchecked-shift", "no literal-<<-nonconstant shifts without a bound-check"},
    {"metric-docs", "metric families and event tags must match docs/OBSERVABILITY.md"},
    {"prof-docs", "profiler probe names must match the docs/OBSERVABILITY.md probe catalog"},
    {"thread-unsafe", "no raw threading primitives in src/ outside the shard runtime"},
    {"pointer-key", "no pointer-typed keys in associative containers or std::less-over-pointers"},
    {"shard-affinity", "shard-owned members only touched from the owning shard's files"},
    {"float-accum", "no float += in range-for bodies without an ordering annotation"},
    {"rng-stream", "every by-value sim::Rng must be fork()ed from a simulator stream"},
    {"journal-cause", "journal emits must be cataloged and pass a cause id when declared"},
};

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
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
  return out;
}

bool write_sarif(const std::string& path, const std::vector<Finding>& findings) {
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    std::fprintf(stderr, "sharq_lint: cannot write SARIF to %s\n", path.c_str());
    return false;
  }
  std::map<std::string, int> rule_index;
  out << "{\n"
         "  \"$schema\": \"https://json.schemastore.org/sarif-2.1.0.json\",\n"
         "  \"version\": \"2.1.0\",\n"
         "  \"runs\": [\n"
         "    {\n"
         "      \"tool\": {\n"
         "        \"driver\": {\n"
         "          \"name\": \"sharq_lint\",\n"
         "          \"version\": \"2.0.0\",\n"
         "          \"informationUri\": \"docs/DETERMINISM.md\",\n"
         "          \"rules\": [\n";
  int n = 0;
  for (const RuleDoc& r : kRuleDocs) {
    rule_index[r.id] = n;
    out << "            {\"id\": \"" << r.id
        << "\", \"shortDescription\": {\"text\": \"" << json_escape(r.text)
        << "\"}, \"defaultConfiguration\": {\"level\": \"error\"}}"
        << (++n < static_cast<int>(std::size(kRuleDocs)) ? ",\n" : "\n");
  }
  out << "          ]\n"
         "        }\n"
         "      },\n"
         "      \"results\": [\n";
  for (std::size_t i = 0; i < findings.size(); ++i) {
    const Finding& fi = findings[i];
    const auto it = rule_index.find(fi.rule);
    out << "        {\"ruleId\": \"" << json_escape(fi.rule) << "\"";
    if (it != rule_index.end()) out << ", \"ruleIndex\": " << it->second;
    out << ", \"level\": \"error\", \"message\": {\"text\": \""
        << json_escape(fi.message)
        << "\"}, \"locations\": [{\"physicalLocation\": {\"artifactLocation\": "
           "{\"uri\": \""
        << json_escape(fi.file)
        << "\", \"uriBaseId\": \"SRCROOT\"}, \"region\": {\"startLine\": "
        << (fi.line > 0 ? fi.line : 1) << "}}}]}"
        << (i + 1 < findings.size() ? ",\n" : "\n");
  }
  out << "      ]\n"
         "    }\n"
         "  ]\n"
         "}\n";
  return out.good();
}

// ---------------------------------------------------------------------------
// Suppression baseline (`path rule count` per line, shrink-only)
// ---------------------------------------------------------------------------

// Filters findings covered by the baseline in place. Returns 0 when the
// baseline is exact, 1 when it is stale (an entry no longer fires at its
// recorded count — shrink the file), 2 on malformed or src/ entries.
int apply_baseline(const std::string& path, std::vector<Finding>& findings) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "sharq_lint: cannot read baseline %s\n", path.c_str());
    return 2;
  }
  std::map<std::pair<std::string, std::string>, int> allowed;
  int lineno = 0, rc = 0;
  for (std::string ln; std::getline(in, ln);) {
    ++lineno;
    const std::string t = trim_ws(ln);
    if (t.empty() || t[0] == '#') continue;
    std::istringstream is(t);
    std::string file, rule;
    int count = 0;
    if (!(is >> file >> rule >> count) || count <= 0) {
      std::fprintf(stderr, "sharq_lint: %s:%d: malformed baseline entry "
                   "(want `path rule count`)\n", path.c_str(), lineno);
      return 2;
    }
    if (starts_with(file, "src/")) {
      std::fprintf(stderr, "sharq_lint: %s:%d: baseline entries for src/ are "
                   "not permitted — src/ must be clean or annotated\n",
                   path.c_str(), lineno);
      return 2;
    }
    allowed[{file, rule}] += count;
  }
  std::map<std::pair<std::string, std::string>, int> actual;
  for (const Finding& fi : findings) ++actual[{fi.file, fi.rule}];
  for (const auto& [key, allow] : allowed) {
    const auto it = actual.find(key);
    const int have = it == actual.end() ? 0 : it->second;
    if (have < allow) {
      std::fprintf(stderr, "sharq_lint: stale baseline entry `%s %s %d` "
                   "(only %d finding(s) still fire): shrink %s\n",
                   key.first.c_str(), key.second.c_str(), allow, have,
                   path.c_str());
      rc = 1;
    } else if (have > allow) {
      std::fprintf(stderr, "sharq_lint: `%s %s` exceeds its baseline "
                   "(%d > %d): fix the new finding(s), do not grow the "
                   "baseline\n", key.first.c_str(), key.second.c_str(), have,
                   allow);
    }
  }
  // Suppress exactly-covered groups; over-baseline groups stay reported.
  std::vector<Finding> keep;
  keep.reserve(findings.size());
  for (Finding& fi : findings) {
    const auto it = allowed.find({fi.file, fi.rule});
    if (it != allowed.end() && actual[{fi.file, fi.rule}] <= it->second) continue;
    keep.push_back(std::move(fi));
  }
  findings = std::move(keep);
  return rc;
}

// Self-test: every fixture line marked `// EXPECT-LINT: rule` must produce
// exactly that finding, and no unmarked finding may appear.
int run_self_test(const Options& opt) {
  std::vector<std::string> files = collect_files({opt.self_test_dir});
  if (files.empty()) {
    std::fprintf(stderr, "sharq_lint: no fixtures under %s\n",
                 opt.self_test_dir.c_str());
    return 2;
  }
  Options fixture_opt = opt;
  fixture_opt.all_scopes = true;
  // The fixture doc lives next to the fixtures.
  const fs::path doc = fs::path(opt.self_test_dir) / "observability_fixture.md";
  if (fs::exists(doc)) fixture_opt.doc_path = doc.generic_string();

  std::set<std::pair<std::string, std::pair<int, std::string>>> expected;
  for (const std::string& path : files) {
    const LexedFile f = lex_file(path, slurp(path));
    for (const auto& [line, rule] : f.expect_markers) {
      expected.insert({path, {line, rule}});
    }
  }
  std::set<std::pair<std::string, std::pair<int, std::string>>> got;
  for (const Finding& fi : run_lint(files, fixture_opt)) {
    got.insert({fi.file, {fi.line, fi.rule}});
  }
  int rc = 0;
  for (const auto& e : expected) {
    if (!got.count(e)) {
      std::fprintf(stderr, "self-test FAIL: expected %s:%d: [%s] not reported\n",
                   e.first.c_str(), e.second.first, e.second.second.c_str());
      rc = 1;
    }
  }
  for (const auto& g : got) {
    if (!expected.count(g)) {
      std::fprintf(stderr, "self-test FAIL: unexpected %s:%d: [%s]\n",
                   g.first.c_str(), g.second.first, g.second.second.c_str());
      rc = 1;
    }
  }
  if (rc == 0) {
    std::printf("sharq_lint self-test: %zu expectations across %zu fixtures OK\n",
                expected.size(), files.size());
  }
  return rc;
}

void print_rules() {
  for (const RuleDoc& r : kRuleDocs) {
    std::printf("%-16s %s\n", r.id, r.text);
  }
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--list-rules") { print_rules(); return 0; }
    if (a == "--all-scopes") { opt.all_scopes = true; continue; }
    if (a == "--reverse-docs") { opt.reverse_docs = true; continue; }
    if (starts_with(a, "--doc=")) { opt.doc_path = a.substr(6); continue; }
    if (a == "--doc" && i + 1 < argc) { opt.doc_path = argv[++i]; continue; }
    if (starts_with(a, "--sarif=")) { opt.sarif_path = a.substr(8); continue; }
    if (a == "--sarif" && i + 1 < argc) { opt.sarif_path = argv[++i]; continue; }
    if (starts_with(a, "--baseline=")) { opt.baseline_path = a.substr(11); continue; }
    if (a == "--baseline" && i + 1 < argc) { opt.baseline_path = argv[++i]; continue; }
    if (a == "--self-test" && i + 1 < argc) { opt.self_test_dir = argv[++i]; continue; }
    if (starts_with(a, "--")) {
      std::fprintf(stderr, "sharq_lint: unknown option %s\n", a.c_str());
      return 2;
    }
    opt.paths.push_back(a);
  }
  if (!opt.self_test_dir.empty()) return run_self_test(opt);
  if (opt.paths.empty()) {
    std::fprintf(stderr,
                 "usage: sharq_lint [--doc PATH] [--sarif FILE] "
                 "[--baseline FILE] [--reverse-docs] [--all-scopes] "
                 "[--list-rules] [--self-test FIXTURE_DIR] paths...\n");
    return 2;
  }
  const std::vector<std::string> files = collect_files(opt.paths);
  std::vector<Finding> findings = run_lint(files, opt);
  int baseline_rc = 0;
  if (!opt.baseline_path.empty()) {
    baseline_rc = apply_baseline(opt.baseline_path, findings);
    if (baseline_rc == 2) return 2;
  }
  if (!opt.sarif_path.empty() && !write_sarif(opt.sarif_path, findings)) {
    return 2;
  }
  for (const Finding& fi : findings) {
    std::printf("%s:%d: [%s] %s\n", fi.file.c_str(), fi.line, fi.rule.c_str(),
                fi.message.c_str());
  }
  if (findings.empty()) {
    if (baseline_rc != 0) {
      std::printf("sharq_lint: %zu files clean, but the baseline is stale\n",
                  files.size());
      return baseline_rc;
    }
    std::printf("sharq_lint: %zu files clean\n", files.size());
    return 0;
  }
  std::printf("sharq_lint: %zu finding(s) in %zu files\n", findings.size(),
              files.size());
  return 1;
}
