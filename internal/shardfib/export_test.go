package shardfib

import "fibcomp/internal/trie"

// ControlRoots lists the roots of the engine's control tries, one per
// shard, for the tests outside the package that count what co-tenant
// engines hold together.
func (e *engine) ControlRoots() []*trie.Node {
	roots := make([]*trie.Node, len(e.shards))
	for i := range e.shards {
		roots[i] = e.shards[i].dag.Control().Root
	}
	return roots
}
