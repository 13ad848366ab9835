package ip6

import (
	"fibcomp/internal/pdag"
	"fibcomp/internal/trie"
)

// DAG is an IPv6 prefix DAG: pdag's §4.3 descent over 128-bit keys —
// the same folded region, control trie and update as the IPv4 DAG,
// which only ever asked the address for W and bit q — spelled with
// Addr keys, and serialized into a Blob this package walks.
type DAG struct{ *pdag.Descent }

// Build folds an IPv6 table with leaf-push barrier lambda ∈ [0, 128].
func Build(t *Table, lambda int) (*DAG, error) {
	return fold((*trie.Trie)(FromTable(t)), lambda)
}

// FromTrie folds a prefix trie with leaf-push barrier lambda. The
// trie is deep-copied into the DAG's control FIB, so the caller's
// trie stays independent.
func FromTrie(tr *Trie, lambda int) (*DAG, error) {
	return fold((*trie.Trie)(tr).Clone(), lambda)
}

func fold(control *trie.Trie, lambda int) (*DAG, error) {
	d, err := pdag.NewDescent(nil, control, W, lambda)
	if err != nil {
		return nil, err
	}
	return &DAG{d}, nil
}

// Set inserts or changes a prefix → label association.
func (d *DAG) Set(a Addr, plen int, label uint32) error {
	return d.SetKey(trie.Key(a), plen, label)
}

// Delete removes an association, reporting whether it existed.
func (d *DAG) Delete(a Addr, plen int) bool { return d.DeleteKey(trie.Key(a), plen) }

// Lookup is standard trie lookup over 128 bits.
func (d *DAG) Lookup(a Addr) uint32 { label, _ := d.LookupKey(trie.Key(a)); return label }

// Control exposes the control FIB (read-only).
func (d *DAG) Control() *Trie { return (*Trie)(d.Descent.Control()) }
