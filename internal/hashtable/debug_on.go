//go:build ridtdebug

package hashtable

// debugPhase enables the phase-violation detector (see phaseDebug in
// snap.go): mutators count themselves in and out atomically, and the
// phase operation Reserve panics if it observes an in-flight mutator. CI
// runs the test suite with this tag so any caller violating the phase
// contract fails loudly instead of corrupting silently.
const debugPhase = true
