// Self-time subtraction of the benchmark's span recorder. Exits 0 when
// every check holds; prints each failure otherwise.
#include <cmath>
#include <iostream>
#include <string>

#include "spans.hpp"

namespace {

int failures = 0;

void expect_near(const std::string& what, double got, double want) {
  if (std::fabs(got - want) > 1e-12) {
    std::cerr << "FAIL " << what << ": got " << got << ", want " << want
              << "\n";
    ++failures;
  }
}

}  // namespace

int main() {
  using perfbench::SpanRecorder;

  // drive [0,10] holds advance [1,3] and flush [4,8]; flush holds
  // sched [5,6]. Self times: drive 10-2-4=4, advance 2, flush 4-1=3,
  // sched 1.
  {
    SpanRecorder spans;
    const auto drive = spans.intern("drive");
    const auto advance = spans.intern("advance");
    const auto flush = spans.intern("flush");
    const auto sched = spans.intern("sched");
    spans.begin(drive, 0.0);
    spans.begin(advance, 1.0);
    spans.end(3.0);
    spans.begin(flush, 4.0);
    spans.add(sched, 5.0, 6.0);
    spans.end(8.0);
    spans.end(10.0);
    const auto table = spans.totals();
    expect_near("drive total", table.at("drive").total_s, 10.0);
    expect_near("drive self", table.at("drive").self_s, 4.0);
    expect_near("advance self", table.at("advance").self_s, 2.0);
    expect_near("flush total", table.at("flush").total_s, 4.0);
    expect_near("flush self", table.at("flush").self_s, 3.0);
    expect_near("sched self", table.at("sched").self_s, 1.0);
    expect_near("top level", spans.top_level_s(), 10.0);
  }

  // Repeated calls add up per name, and only direct children are
  // subtracted: a grandchild counts once, against its own parent.
  {
    SpanRecorder spans;
    const auto outer = spans.intern("outer");
    const auto inner = spans.intern("inner");
    const auto leaf = spans.intern("leaf");
    for (int i = 0; i < 3; ++i) {
      const double base = 10.0 * i;
      spans.begin(outer, base);
      spans.begin(inner, base + 1.0);
      spans.add(leaf, base + 2.0, base + 5.0);
      spans.end(base + 6.0);
      spans.end(base + 8.0);
    }
    const auto table = spans.totals();
    expect_near("outer calls", static_cast<double>(table.at("outer").calls),
                3.0);
    expect_near("outer self", table.at("outer").self_s, 3 * (8.0 - 5.0));
    expect_near("inner self", table.at("inner").self_s, 3 * (5.0 - 3.0));
    expect_near("leaf self", table.at("leaf").self_s, 3 * 3.0);
    expect_near("top level", spans.top_level_s(), 24.0);
  }

  // An open span is left out of the table until it closes.
  {
    SpanRecorder spans;
    const auto open = spans.intern("open");
    spans.begin(open, 0.0);
    if (!spans.totals().empty()) {
      std::cerr << "FAIL open span counted\n";
      ++failures;
    }
    spans.end(2.0);
    expect_near("closed", spans.totals().at("open").self_s, 2.0);
  }

  std::cout << (failures == 0 ? "span self-time tests passed\n"
                              : "span self-time tests FAILED\n");
  return failures == 0 ? 0 : 1;
}
