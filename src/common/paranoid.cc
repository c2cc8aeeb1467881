#include "common/paranoid.h"

#include <cstdlib>
#include <cstring>

namespace locktune {

namespace {

enum class Override { kUnset, kOn, kOff };
Override g_override = Override::kUnset;

bool EnvDefault() {
  // Environment is configuration, not simulation input: reading it does not
  // affect determinism of a given run. getenv is mt-unsafe only against a
  // concurrent setenv, and this process never writes its environment; the
  // magic-static in ParanoidEnabled() serializes the one read anyway.
  // NOLINTNEXTLINE(concurrency-mt-unsafe)
  const char* env = std::getenv("LOCKTUNE_PARANOID");
  return env != nullptr &&
         (std::strcmp(env, "1") == 0 || std::strcmp(env, "on") == 0 ||
          std::strcmp(env, "ON") == 0);
}

}  // namespace

bool ParanoidEnabled() {
  if (g_override != Override::kUnset) return g_override == Override::kOn;
  static const bool kDefault = EnvDefault();
  return kDefault;
}

void SetParanoidForTesting(bool on) {
  g_override = on ? Override::kOn : Override::kOff;
}

}  // namespace locktune
