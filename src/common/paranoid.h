// Paranoid mode: full-structure invariant validation every simulation tick.
//
// Two ways to turn it on:
//   * set LOCKTUNE_PARANOID=1 (or "on") in the environment — works in any
//     build, which is how the paranoid ctests run against the stock binary;
//   * SetParanoidForTesting(true) from a test.
//
// Paranoid validation is read-only and must never change observable output:
// the golden determinism suite runs with it on and must stay byte-identical.
#ifndef LOCKTUNE_COMMON_PARANOID_H_
#define LOCKTUNE_COMMON_PARANOID_H_

namespace locktune {

// True when every-tick validators (Database::ValidateInvariants) should run.
bool ParanoidEnabled();

// Test override; passing the environment default back is not possible —
// tests should restore the previous value themselves.
void SetParanoidForTesting(bool on);

}  // namespace locktune

#endif  // LOCKTUNE_COMMON_PARANOID_H_
