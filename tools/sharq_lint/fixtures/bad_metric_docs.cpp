// Fixture: metric registrations and event tags that the catalog
// (observability_fixture.md) does not document must be caught.
// Not compiled — parsed by sharq_lint's self-test.
struct Metrics {
  int& counter(const char* name);
  int& gauge(const char* name);
  int& histogram(const char* name);
};
struct Timer {
  void arm(double delay, void (*fn)(), const char* tag);
};

void reg(Metrics& m, Timer& t) {
  m.counter("fixture.documented");    // in the fixture doc: must not fire
  m.counter("fixture.rogue");         // EXPECT-LINT: metric-docs
  m.gauge("fixture.rogue_gauge");     // EXPECT-LINT: metric-docs
  m.histogram("fixture.rogue_hist");  // EXPECT-LINT: metric-docs
  t.arm(1.0, [] {}, "fixture.tagged");     // in the fixture doc: must not fire
  t.arm(1.0, [] {}, "fixture.rogue_tag");  // EXPECT-LINT: metric-docs
}
