package ip6

import "fibcomp/internal/trie"

// Node is a control-trie node: IPv6 prefixes live in package trie's
// one control trie, keyed by the 128-bit trie.Key an Addr converts to
// for free.
type Node = trie.Node

// Trie is the control trie over IPv6 prefixes: trie.Trie spelled with
// Addr keys. (*trie.Trie)(t) is the same trie, for leaf-pushing,
// statistics and the rest of its API.
type Trie trie.Trie

// NewTrie returns an empty trie.
func NewTrie() *Trie { return (*Trie)(trie.New()) }

// FromTable builds a trie from a table; later duplicates win.
func FromTable(t *Table) *Trie {
	tr := NewTrie()
	for _, e := range t.Entries {
		tr.Insert(e.Addr, e.Len, e.NextHop)
	}
	return tr
}

// Insert sets the label of prefix a/plen.
func (t *Trie) Insert(a Addr, plen int, label uint32) {
	(*trie.Trie)(t).InsertKey(trie.Key(a), plen, label)
}

// Delete removes the label of a/plen, reporting whether it was present.
func (t *Trie) Delete(a Addr, plen int) bool { return (*trie.Trie)(t).DeleteKey(trie.Key(a), plen) }

// Lookup performs longest prefix match in O(W).
func (t *Trie) Lookup(a Addr) uint32 { return (*trie.Trie)(t).LookupKey(trie.Key(a)) }
