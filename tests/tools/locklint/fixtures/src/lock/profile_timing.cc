// LL009 fixture: timing calls in a src/lock/ path need a profile-ok reason.
#include <chrono>

uint64_t Ungated() {
  return std::chrono::steady_clock::now().time_since_epoch().count();
}

#if defined(LOCKTUNE_PROFILE)
uint64_t Gated() {
  return std::chrono::steady_clock::now().time_since_epoch().count();
}
#endif

uint64_t Suppressed() {
  // locklint: profile-ok(cold snapshot path, not per-request)
  return std::chrono::high_resolution_clock::now().time_since_epoch().count();
}
