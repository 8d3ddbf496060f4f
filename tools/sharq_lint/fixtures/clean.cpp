// Fixture: a file that exercises every rule's escape hatch and must lint
// clean. Not compiled — parsed by sharq_lint's self-test.
#include <map>
#include <set>
#include <unordered_map>

struct Stats {
  std::unordered_map<int, long> hits_;    // lookups only: fine to keep
  std::map<int, long> ordered_hits_;      // ordered: iteration is fine
};

long total(const Stats& s) {
  long n = 0;
  // Ordered container: never flagged.
  for (const auto& [k, v] : s.ordered_hits_) n += v;
  // Walk the ordered map, look keys up in the unordered one: never flagged.
  for (const auto& [k, v] : s.ordered_hits_) n += s.hits_.count(k);
  return n;
}

// Region annotation: a genuinely order-free fold (documented reason).
// sharq-lint: unordered-iter-ok begin (commutative sum, result order-free)
long fold(const Stats& s) {
  long n = 0;
  for (const auto& [k, v] : s.hits_) n += v;
  return n;
}
// sharq-lint: unordered-iter-ok end

// Line annotation with a reason.
unsigned checked(unsigned cls) {
  if (cls >= 32u) return 0;
  return 1u << cls;  // sharq-lint: unchecked-shift-ok (bound-checked above)
}

struct Sim {
  template <class F> int after(double d, F f, const char* tag = nullptr);
};
void schedule(Sim& simu) {
  simu.after(1.0, [] {}, "fixture.tick");  // tagged: clean
}
