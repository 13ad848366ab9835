package pdag

import (
	"errors"
	"fmt"
	"sync"

	"fibcomp/internal/fib"
)

// Space is a shared hash-cons universe: the sub-trie index S and the
// leaf table lp of §4.1 lifted out of one DAG and spanned across many.
// Every descent made with a space (NewDescent, FromTrieShared) folds
// into the same two maps, so an isomorphic labeled sub-trie
// appearing in any number of member DAGs — the shards of one engine,
// or every tenant table of a registry — is stored exactly once. A
// space never reads an address: its members are all of one key width,
// but that width is theirs to know.
//
// The space also owns the serialized form of that sharing: an
// append-only arena of node words (words) that every member DAG's
// SerializeShared emits into, stamping each folded node with its
// arena index, so that a publish appends only the folded nodes created
// since the last one. Published blobs alias the arena; appends never
// mutate an index a published slice can reach, so readers need no
// synchronization. The words of nodes that have since died stay, so
// arenas come in generations: Compact starts an empty one, invalidating
// every stamp, and the members re-emit into it.
//
// A NewSpace space serves many engines: their root windows are
// content-deduplicated into a second arena (rootArena), and its owner
// decides when to compact. A NewArena space serves one: blobs own
// their window buffers, NeedsCompact bounds the garbage by rule, and
// the retired generation's array comes back (Recycle) once the engine
// has proven that no reader can reach it. A private region (Build,
// FromTrie) is the one member of a NewArena space of its own.
//
// All mutation — folding, updates, serialization — must happen under
// the space lock (Lock/Unlock); lookups on published blobs never touch
// the space.
type Space struct {
	mu     sync.Mutex
	sub    map[[2]uint64]*Node
	leaves map[uint32]*Node
	nextID uint64

	freeNode *Node // the members' recycled-node chain (linked via Left)

	// epoch backs the v2 study serializer's stamping epochs
	// (bumpEpoch). Always < 1<<63, so it is disjoint from the arena
	// stamps below; it goes when the v2 format does.
	epoch uint64

	// gen is the arena generation: arena stamps are valid only under
	// the epoch 1<<63|gen, so Compact — which bumps gen and replaces
	// the arenas — invalidates every stamp at once without touching
	// the nodes. full latches when the generation runs out of node
	// indices: every emission then fails until Compact.
	gen  uint64
	full bool

	words     []uint32 // append-only arena: two words per emitted folded interior
	rootArena []uint32 // NewSpace: append-only arena of deduplicated root windows
	rootIdx   map[uint64][]rootWin

	// NewArena only. windows is the owning engine's published root
	// words, constant for its life; idMark trails nextID by the
	// interiors created since the last emission and still alive (it is
	// nextID then, and release advances it), which is what the next
	// emission will append; retired is the previous generation's array
	// until Recycle moves it to free, where the next Compact finds it.
	windows       int
	idMark        uint64
	retired, free []uint32

	onCompact func()

	// private marks a private region's own space: Serialize compacts
	// it before every emission, so nothing is ever retired.
	private bool

	scratchRoot []uint32 // window scratch for interning emissions
	stack       []*Node  // shared-emission DFS stack
	newList     []*Node  // nodes first stamped by the current emission
}

// rootWin locates one deduplicated root window in the root arena.
type rootWin struct {
	off int32
	n   int32
}

// NewSpace creates an empty hash-cons space shared by many engines.
func NewSpace() *Space {
	sp := NewArena(0)
	sp.rootIdx = make(map[uint64][]rootWin)
	return sp
}

// NewArena creates the space of a single engine publishing windows
// root words in total. With one member there is nothing to intern a
// root window against, so SerializeShared writes it into the blob's
// own buffer, and the space bounds its own garbage (NeedsCompact).
func NewArena(windows int) *Space {
	return &Space{
		sub:     make(map[[2]uint64]*Node),
		leaves:  make(map[uint32]*Node),
		windows: windows,
	}
}

// Lock acquires the space's write exclusion. Every mutation of a
// member DAG — fold, Set/Delete, serialization, release — must run
// under it; shardfib's shared mode takes it around each operation.
func (sp *Space) Lock() { sp.mu.Lock() }

// Unlock releases the space's write exclusion.
func (sp *Space) Unlock() { sp.mu.Unlock() }

// SharedBytes reports the resident byte size of the serialized arenas
// — the node words (garbage included) and deduplicated root windows
// every member's blobs alias, counted once. Callers synchronize with
// writers (take the space lock or quiesce the write paths) for an
// exact figure.
func (sp *Space) SharedBytes() int {
	return 4 * (len(sp.words) + len(sp.rootArena))
}

// Generation reports the arena generation: the number of Compacts.
func (sp *Space) Generation() uint64 { return sp.gen }

// FoldedInterior reports the number of shared interior nodes (|S|)
// across every member DAG.
func (sp *Space) FoldedInterior() int { return len(sp.sub) }

// stampEpoch is the persistent arena-stamp epoch of the current
// generation. Bit 63 keeps it disjoint from the v2 study serializer's
// epochs (bumpEpoch), so a v2 stamp on a folded node can never forge
// a valid arena stamp; the split goes when the v2 format does.
func (sp *Space) stampEpoch() uint64 { return 1<<63 | sp.gen }

// OnCompact registers what re-emits the space's members after Compact
// started a new generation (a registry republishing its tenants). It
// runs inside Compact, under the space lock.
func (sp *Space) OnCompact(republish func()) { sp.onCompact = republish }

// NeedsCompact reports whether the members' next emission must go to a
// new generation: always once the current one ran out of indices, and
// for a NewArena space when that emission would take the arena past
// 1.5 × live, live being two words per folded interior plus the
// engine's root windows: words + windows > 1.5·(2|S| + windows).
func (sp *Space) NeedsCompact() bool {
	if sp.full || sp.rootIdx != nil {
		return sp.full
	}
	return len(sp.words)+2*int(sp.nextID-sp.idMark) > 3*len(sp.sub)+sp.windows/2
}

// Compact begins a fresh arena generation: the arenas are replaced
// (never truncated — published blobs alias the old backing arrays and
// keep serving until their snapshots drain) and every arena stamp is
// invalidated by the generation bump. Every member must re-emit
// afterwards so new snapshots land in the new arenas — OnCompact's
// hook, then the caller. A NewArena space sizes the new array for the
// room NeedsCompact gives the generation (root windows past what a
// merged root admits are left to append), so that it never grows,
// reusing the array Recycle handed back when that is large enough. A
// private space sizes it for exactly the emission that follows: 2|S|.
// Called under the space lock.
func (sp *Space) Compact() {
	sp.gen++
	sp.full = false
	switch {
	case sp.rootIdx != nil:
		sp.words, sp.rootArena = nil, nil
		sp.rootIdx = make(map[uint64][]rootWin)
	case sp.private:
		sp.words, sp.free = sp.free[:0], nil
		if cap(sp.words) < 2*len(sp.sub) {
			sp.words = make([]uint32, 0, 2*len(sp.sub))
		}
	default:
		sp.retired, sp.words, sp.free = sp.words, sp.free[:0], nil
		room := 3*len(sp.sub) + min(sp.windows/2, 1<<15)
		if cap(sp.words) < room+room/8 {
			sp.words = make([]uint32, 0, room+room/2)
		}
	}
	if sp.onCompact != nil {
		sp.onCompact()
	}
}

// Retired reports whether a previous generation's array awaits Recycle.
func (sp *Space) Retired() bool { return sp.retired != nil }

// Recycle hands the previous generation's array to the next Compact.
// The owner calls it once no reader can reach a blob cut from that
// generation; published slices alias the array, so an early call is a
// use-after-free in all but name.
func (sp *Space) Recycle() {
	if recyclePoison != 0 {
		fillWords(sp.retired[:cap(sp.retired)], recyclePoison)
	}
	sp.free, sp.retired = sp.retired, nil
}

// Test hooks: the node-index ceiling of a generation, and a word to
// overwrite every recycled array with (0: none).
var (
	arenaIdxLimit uint32 = maxBlobIdx
	recyclePoison uint32
)

// SerializeShared freezes the region's shard window into a blob whose
// Nodes alias the space's arena. shardIdx/shardBits name the window:
// of the full 2^λ root array only entries
// [shardIdx<<(λ-k), (shardIdx+1)<<(λ-k)) are live in a sharded engine,
// so only that window is filled and published (Blob.RootBase records
// its offset; shardBits 0 publishes the whole array). Folded nodes
// already stamped into the arena by any member DAG are reused by index;
// only nodes the arena has never seen append words. A NewSpace space
// interns the window, so a near-duplicate tenant costs a few delta
// nodes and, when even its window is bit-identical to one already
// published, nothing; a NewArena space writes it into b's own Root.
//
// The caller must hold the space lock and must not run concurrently
// with Set/Delete on any member DAG. On error b must not be published;
// an index-exhaustion error latches (NeedsCompact) until Compact.
func (d *Region) SerializeShared(b *Blob, shardIdx, shardBits int) (*Blob, error) {
	sp := d.space
	lambda := d.Lambda
	if lambda > d.Width {
		lambda = d.Width
	}
	if lambda > maxSerialLambda {
		return nil, fmt.Errorf("pdag: cannot serialize with barrier λ=%d > %d", d.Lambda, maxSerialLambda)
	}
	if shardBits < 0 || shardBits > lambda {
		return nil, fmt.Errorf("pdag: shard bits %d outside [0,λ=%d]", shardBits, lambda)
	}
	if sp.full {
		return nil, errArenaFull
	}
	if b == nil {
		b = &Blob{}
	}
	per := 1 << uint(lambda-shardBits)
	win := b.Root
	if sp.rootIdx != nil {
		win = sp.scratchRoot // b.Root aliases the root arena
	}
	if cap(win) < per {
		win = make([]uint32, per)
	}
	win = win[:per]

	// Walk the plain region down the shard's index bits, collecting the
	// default label in force, then fill the window from that subtree.
	n, def := d.root, fib.NoLabel
	for q := shardBits - 1; q >= 0 && n != nil; q-- {
		if n.Label != fib.NoLabel {
			def = n.Label
		}
		if shardIdx>>uint(q)&1 == 0 {
			n = n.Left
		} else {
			n = n.Right
		}
	}
	sp.newList = sp.newList[:0]
	if err := d.fillRoot(win, lambda-shardBits, n, 0, 0, def, d.assignShared); err != nil {
		return nil, err
	}
	// Append the words of the newly stamped nodes; children are
	// stamped (this emission or an earlier one under the same
	// generation), so each word is a read of the child's stamp.
	for _, n := range sp.newList {
		sp.words = append(sp.words, wordFor(n.Left), wordFor(n.Right))
	}
	sp.idMark = sp.nextID

	b.Lambda, b.Width, b.RootBase = lambda, d.Width, shardIdx*per
	if sp.rootIdx != nil {
		sp.scratchRoot = win
		win = sp.internRootWindow(win)
	}
	b.Root = win
	b.Nodes = sp.words[:len(sp.words):len(sp.words)]
	return b, nil
}

var errArenaFull = errors.New("pdag: shared arena out of node indices; compact the space")

// assignShared gives a folded subtree dense arena indices in DFS
// preorder, stamped persistently under the generation epoch so every
// later emission — by any member DAG — reuses them. Already-stamped
// nodes (shared subtrees reached again) return their index at once,
// preserving the hash-consed sharing in the words.
func (d *Region) assignShared(root *Node) (uint32, error) {
	sp := d.space
	epoch := sp.stampEpoch()
	if root.serialEpoch == epoch {
		return root.serialIdx, nil
	}
	if err := sp.stampShared(root, epoch); err != nil {
		return 0, err
	}
	stack := append(sp.stack[:0], root)
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		// Stamp both children at the parent, left first, so siblings
		// take consecutive indices; push right below left so the left
		// subtree is walked first (the locality trick of §4.2).
		l, r := n.Left, n.Right
		pushL := l.kind == kindInt && l.serialEpoch != epoch
		pushR := r.kind == kindInt && r.serialEpoch != epoch
		if pushL {
			if err := sp.stampShared(l, epoch); err != nil {
				sp.stack = stack
				return 0, err
			}
		}
		if pushR {
			// l == r was stamped above; recheck keeps the scan
			// single-visit.
			if r.serialEpoch == epoch {
				pushR = false
			} else if err := sp.stampShared(r, epoch); err != nil {
				sp.stack = stack
				return 0, err
			}
		}
		if pushR {
			stack = append(stack, r)
		}
		if pushL {
			stack = append(stack, l)
		}
	}
	sp.stack = stack
	return root.serialIdx, nil
}

// stampShared assigns n the next arena index under the generation
// epoch. Running out of indices latches: the nodes stamped so far have
// no words behind them, and only Compact's generation bump unstamps
// them.
func (sp *Space) stampShared(n *Node, epoch uint64) error {
	idx := uint32(len(sp.words)/2 + len(sp.newList))
	if idx > arenaIdxLimit {
		sp.full = true
		return errArenaFull
	}
	n.serialEpoch, n.serialIdx = epoch, idx
	sp.newList = append(sp.newList, n)
	return nil
}

// internRootWindow returns an arena slice whose contents equal win,
// appending it only when no published window already matches — the
// content-hash dedup that makes bit-identical tenant shards share
// their root windows too.
func (sp *Space) internRootWindow(win []uint32) []uint32 {
	h := hashWords(win)
	for _, w := range sp.rootIdx[h] {
		if int(w.n) == len(win) && wordsEqual(sp.rootArena[w.off:int(w.off)+len(win)], win) {
			return sp.rootArena[w.off : int(w.off)+len(win) : int(w.off)+len(win)]
		}
	}
	off := len(sp.rootArena)
	sp.rootArena = append(sp.rootArena, win...)
	sp.rootIdx[h] = append(sp.rootIdx[h], rootWin{off: int32(off), n: int32(len(win))})
	return sp.rootArena[off : off+len(win) : off+len(win)]
}

// hashWords is FNV-1a over the window's words.
func hashWords(s []uint32) uint64 {
	h := uint64(14695981039346656037)
	for _, w := range s {
		h ^= uint64(w)
		h *= 1099511628211
	}
	return h
}

func wordsEqual(a, b []uint32) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
