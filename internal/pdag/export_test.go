package pdag

// SetArenaIndexLimit lowers the node-index ceiling of an arena
// generation so tests reach exhaustion with small tables; the returned
// func restores it.
func SetArenaIndexLimit(n uint32) (restore func()) {
	old := arenaIdxLimit
	arenaIdxLimit = n
	return func() { arenaIdxLimit = old }
}

// SetRecyclePoison makes Recycle overwrite every array it takes back
// with w, so a recycle that a reader could still observe is loud.
func SetRecyclePoison(w uint32) (restore func()) {
	old := recyclePoison
	recyclePoison = w
	return func() { recyclePoison = old }
}

// The white-box structural checks, for the tests that must live in
// package pdag_test because their inputs come from internal/gen, which
// imports ip6, which imports this package.
var (
	CheckInvariants = checkInvariants
	VerifyCanonical = verifyCanonical
)
