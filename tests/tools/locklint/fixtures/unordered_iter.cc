// LL002 fixture: iteration over an unordered container without an
// ordered-ok annotation.
#include <unordered_map>

std::unordered_map<int, long> counts;

long Total() {
  long total = 0;
  for (const auto& [k, v] : counts) {  // locklint_test expects LL002 line 9
    total += v;
  }
  return total;
}
