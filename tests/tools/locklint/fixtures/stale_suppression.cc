// LL000 fixture: a suppression that gates no finding is itself a finding.
//
//  * Used  — the wallclock-ok suppression excuses the clock read below it:
//            clean.
//  * Plain — the same suppression above a line that reads no clock:
//            locklint_test expects LL000 "stale suppression" on line 17.
#include <ctime>

namespace fixture {

long Used() {
  // locklint: wallclock-ok(fixture: the next line really reads a clock)
  return time(nullptr);
}

long Plain(const long* counter) {
  // locklint: wallclock-ok(stale: the next line reads no clock)
  return *counter;
}

}  // namespace fixture
