#include "common/check.h"

namespace locktune {

namespace {

// Fixed-capacity hook table: registration is rare (once per subsystem per
// process).
constexpr int kMaxHooks = 8;
CheckFailureHook g_hooks[kMaxHooks] = {};
int g_hook_count = 0;
bool g_invoking = false;

}  // namespace

void AddCheckFailureHook(CheckFailureHook hook) {
  // Hooks past capacity are silently dropped.
  if (hook == nullptr || g_hook_count >= kMaxHooks) return;
  g_hooks[g_hook_count++] = hook;
}

void InvokeCheckFailureHooks() {
  // A hook that itself fails a CHECK must not recurse forever; the second
  // entry falls through to abort with whatever was already printed.
  if (g_invoking) return;
  g_invoking = true;
  for (int i = 0; i < g_hook_count; ++i) g_hooks[i]();
  g_invoking = false;
}

}  // namespace locktune
