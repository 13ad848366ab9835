package fibcomp_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math/rand"
	"testing"

	"fibcomp/internal/gen"
	"fibcomp/internal/ip6"
	"fibcomp/internal/pdag"
)

// The serialized form of §5.3 is canonical: folded interiors take
// dense preorder indices, left child first, so a table and a barrier
// name exactly one Root and one Nodes. These digests pin those bytes
// for two seeded tables; a change to the emitter that moves a single
// word — an index order, a root entry, a leaf flag — moves a digest.
const (
	goldenV4 = "027a69da4526f8b281422ede1c4521b251bbc2672294a7368c9cb61f8b4957a8" // gen.SplitFIB, seed 11, λ 11
	goldenV6 = "cf59c78edb4725ddfe349e05679e9151a03e493b04af7326386963a7563fad66" // ip6.SplitFIB, seed 16, λ 16
)

// blobDigest is the SHA-256 of Root‖Nodes, each word little-endian.
func blobDigest(b *pdag.Blob) string {
	h := sha256.New()
	var w [4]byte
	for _, s := range [][]uint32{b.Root, b.Nodes} {
		for _, v := range s {
			binary.LittleEndian.PutUint32(w[:], v)
			h.Write(w[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

func TestBlobDigests(t *testing.T) {
	t4, err := gen.SplitFIB(rand.New(rand.NewSource(11)), 50000, []float64{0.6, 0.2, 0.1, 0.06, 0.04})
	if err != nil {
		t.Fatal(err)
	}
	d4, err := pdag.Build(t4, 11)
	if err != nil {
		t.Fatal(err)
	}
	b4, err := d4.Serialize()
	if err != nil {
		t.Fatal(err)
	}
	t6, err := ip6.SplitFIB(rand.New(rand.NewSource(16)), 30000, []float64{0.6, 0.2, 0.1, 0.06, 0.04})
	if err != nil {
		t.Fatal(err)
	}
	d6, err := ip6.Build(t6, 16)
	if err != nil {
		t.Fatal(err)
	}
	b6, err := d6.Serialize()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name, want string
		b          *pdag.Blob
	}{
		{"v4 λ11", goldenV4, b4},
		{"v6 λ16", goldenV6, (*pdag.Blob)(b6)},
	} {
		if got := blobDigest(c.b); got != c.want {
			t.Errorf("%s: %d root + %d node words, digest %s, want %s", c.name, len(c.b.Root), len(c.b.Nodes), got, c.want)
		}
	}
}
