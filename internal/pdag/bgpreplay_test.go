package pdag_test

import (
	"math/rand"
	"testing"

	"fibcomp/internal/fib"
	"fibcomp/internal/gen"
	"fibcomp/internal/pdag"
)

// TestBGPReplayEquivalence replays a realistic BGP-like feed (biased
// to long prefixes, withdrawals of previously announced routes)
// against a partition-shaped FIB with skewed labels. This is the
// workload that exposed a stale-default bug in the patch path's
// merged-leaf expansion: when a withdrawn label had been folded into a
// coalesced leaf, re-seeding the leaf-push default from that leaf
// resurrected the deleted route. The fix tracks the default from the
// mutated control path only; this test guards the regression.
func TestBGPReplayEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	tb, err := gen.SplitFIB(rng, 50000, []float64{0.5, 0.25, 0.15, 0.1})
	if err != nil {
		t.Fatal(err)
	}
	d, err := pdag.Build(tb, 11)
	if err != nil {
		t.Fatal(err)
	}
	us := gen.BGPUpdates(rand.New(rand.NewSource(1)), tb, 20000)
	probe := rand.New(rand.NewSource(7))
	for i, u := range us {
		if u.Withdraw {
			d.Delete(u.Addr, u.Len)
		} else if err := d.Set(u.Addr, u.Len, u.NextHop); err != nil {
			t.Fatal(err)
		}
		// Probe inside the just-updated region, where staleness shows.
		for k := 0; k < 20; k++ {
			a := u.Addr | (probe.Uint32() &^ fib.Mask(u.Len))
			if d.Lookup(a) != d.Control().Lookup(a) {
				t.Fatalf("divergence after update %d (%+v) at addr %08x: dag=%d control=%d",
					i, u, a, d.Lookup(a), d.Control().Lookup(a))
			}
		}
	}
	pdag.CheckInvariants(t, d)
	pdag.VerifyCanonical(t, d)
	for k := 0; k < 50000; k++ {
		a := probe.Uint32()
		if d.Lookup(a) != d.Control().Lookup(a) {
			t.Fatalf("final divergence at %08x", a)
		}
	}
}
