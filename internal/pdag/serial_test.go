package pdag

import (
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"fibcomp/internal/fib"
)

// sameBlob reports whether two blobs hold the same bytes.
func sameBlob(a, b *Blob) bool {
	return a.Lambda == b.Lambda && a.Width == b.Width && a.RootBase == b.RootBase &&
		slices.Equal(a.Root, b.Root) && slices.Equal(a.Nodes, b.Nodes)
}

// TestSerializeCanonicalUnderChurn pins the serialized form's bytes,
// not just its lookups: after every burst of updates — above and
// below the barrier — the DAG's Serialize, and a republish into a
// reused blob, must be byte-equal to Serialize of a DAG folded afresh
// from the same control trie. The form is canonical (dense preorder,
// left child first), so churn history must leave no trace in it.
func TestSerializeCanonicalUnderChurn(t *testing.T) {
	for seed := int64(1); seed <= 2; seed++ {
		rng := rand.New(rand.NewSource(seed))
		for _, lambda := range []int{0, 8, 11, 16, 24} {
			d, err := Build(randomTable(rng, 2000, 6, true), lambda)
			if err != nil {
				t.Fatal(err)
			}
			var reused *Blob
			for round := 0; round < 4; round++ {
				for i := 0; i < 100; i++ {
					plen := rng.Intn(fib.W + 1)
					addr := rng.Uint32() & fib.Mask(plen)
					if rng.Intn(3) == 0 {
						d.Delete(addr, plen)
					} else if err := d.Set(addr, plen, uint32(rng.Intn(6))+1); err != nil {
						t.Fatal(err)
					}
				}
				got, err := d.Serialize()
				if err != nil {
					t.Fatal(err)
				}
				if reused, err = d.SerializeInto(reused); err != nil {
					t.Fatal(err)
				}
				fresh, err := FromTrie(d.Control(), lambda)
				if err != nil {
					t.Fatal(err)
				}
				want, err := fresh.Serialize()
				if err != nil {
					t.Fatal(err)
				}
				if !sameBlob(got, want) || !sameBlob(reused, want) {
					t.Fatalf("seed %d λ=%d round %d: %d/%d bytes after churn, %d folded afresh, contents differ",
						seed, lambda, round, got.SizeBytes(), reused.SizeBytes(), want.SizeBytes())
				}
			}
		}
	}
}

// TestSerializeAllocatesOnlyTheBlob pins a study blob's footprint:
// one Serialize of a warm DAG allocates the blob's own words and
// little else. A generation sized with the engine's headroom (3|S|
// room, 1.5× that reserved) would allocate over twice the blob.
func TestSerializeAllocatesOnlyTheBlob(t *testing.T) {
	d, err := Build(randomTable(rand.New(rand.NewSource(44)), 100000, 6, true), 11)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Serialize(); err != nil { // warm the emitter's scratch
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	blob, err := d.Serialize()
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	got, limit := after.TotalAlloc-before.TotalAlloc, uint64(blob.SizeBytes()+64<<10)
	if got > limit {
		t.Fatalf("Serialize allocated %d bytes for a %d-byte blob, limit %d", got, blob.SizeBytes(), limit)
	}
	t.Logf("Serialize allocated %d bytes for a %d-byte blob, |S| = %d", got, blob.SizeBytes(), d.FoldedInterior())
}

// TestSerializeIntoZeroAllocs proves a steady-state republish — same
// barrier, node count not growing past the high-water mark — touches
// the heap zero times.
func TestSerializeIntoZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	d, err := Build(randomTable(rng, 3000, 6, true), 11)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := d.SerializeInto(nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.SerializeInto(blob); err != nil { // warm the scratch high-water marks
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := d.SerializeInto(blob); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("SerializeInto allocated %.1f times per republish, want 0", allocs)
	}
}

// TestSerializeIntoShrinks reuses a large blob for a much smaller DAG
// and checks the slices are resliced, not leaked at full length.
func TestSerializeIntoShrinks(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	big, err := Build(randomTable(rng, 5000, 6, true), 11)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := big.Serialize()
	if err != nil {
		t.Fatal(err)
	}
	small, err := Build(fib.MustParse("0.0.0.0/0 1", "10.0.0.0/8 2"), 11)
	if err != nil {
		t.Fatal(err)
	}
	blob, err = small.SerializeInto(blob)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := small.Serialize()
	if err != nil {
		t.Fatal(err)
	}
	if blob.SizeBytes() != fresh.SizeBytes() {
		t.Fatalf("reused blob reports %d bytes, fresh %d", blob.SizeBytes(), fresh.SizeBytes())
	}
	for i := 0; i < 5000; i++ {
		a := rng.Uint32()
		if g, w := blob.Lookup(a), small.Lookup(a); g != w {
			t.Fatalf("addr %08x: reused %d, dag %d", a, g, w)
		}
	}
}
