package shardfib

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"fibcomp/internal/fib"
	"fibcomp/internal/gen"
	"fibcomp/internal/ip6"
	"fibcomp/internal/trie"
)

// churned is one address family behind the operations the properties
// of an engine under churn are stated over, so that each is stated once
// for both: a private engine, the offline replay its answers must
// equal, and a probe set.
type churned interface {
	shell() *engine
	apply(us []gen.Update) (mutated int, err error) // one ApplyBatch, allocation-free once warm
	replay(us []gen.Update)                         // the same updates, offline
	mismatch() string                               // LookupBatch over the probes against the replay; "" when bit-identical
	fresh() (*engine, error)                        // a fresh engine of the replay's table
}

type churned4 struct {
	f              *FIB
	ctl            *trie.Trie
	lambda, shards int
	probes, got    []uint32
	ops            []Op
}

// newChurned4 builds the IPv4 arm; the probes are uniform addresses
// plus addresses inside what the head of the feed touches.
func newChurned4(t *testing.T, tab *fib.Table, lambda, shards int, feed []gen.Update) *churned4 {
	f, err := Build(tab, lambda, shards)
	if err != nil {
		t.Fatal(err)
	}
	c := &churned4{f: f, ctl: trie.FromTable(tab), lambda: lambda, shards: shards}
	c.probes = gen.UniformAddrs(rand.New(rand.NewSource(33)), 1024)
	for _, u := range feed[:min(512, len(feed))] {
		c.probes = append(c.probes, u.Addr|^fib.Mask(u.Len))
	}
	c.got = make([]uint32, len(c.probes))
	return c
}

func (c *churned4) shell() *engine { return &c.f.engine }

func (c *churned4) apply(us []gen.Update) (int, error) {
	c.ops = c.ops[:0]
	for _, u := range us {
		c.ops = append(c.ops, Op{Addr: u.Addr, Len: u.Len, Label: u.NextHop})
	}
	return c.f.ApplyBatch(c.ops)
}

func (c *churned4) replay(us []gen.Update) {
	for _, u := range us {
		if u.NextHop == fib.NoLabel {
			c.ctl.Delete(u.Addr, u.Len)
		} else {
			c.ctl.Insert(u.Addr, u.Len, u.NextHop)
		}
	}
}

func (c *churned4) mismatch() string {
	c.f.LookupBatchInto(c.got, c.probes)
	for i, a := range c.probes {
		if want := c.ctl.Lookup(a); c.got[i] != want {
			return fmt.Sprintf("addr %08x -> %d, offline replay says %d", a, c.got[i], want)
		}
	}
	return ""
}

func (c *churned4) fresh() (*engine, error) {
	f, err := Build(&fib.Table{Entries: c.ctl.Entries()}, c.lambda, c.shards)
	if err != nil {
		return nil, err
	}
	return &f.engine, nil
}

type churned6 struct {
	f              *FIB6
	ctl            *ip6.Trie
	lambda, shards int
	probes         []ip6.Addr
	got            []uint32
	ops            []Op6
}

func newChurned6(t *testing.T, tab *ip6.Table, lambda, shards int, feed []gen.Update) *churned6 {
	f, err := Build6(tab, lambda, shards)
	if err != nil {
		t.Fatal(err)
	}
	c := &churned6{f: f, ctl: ip6.FromTable(tab), lambda: lambda, shards: shards}
	c.probes = probes6(tab, rand.New(rand.NewSource(33)), 1024)
	for _, u := range feed[:min(512, len(feed))] {
		m := ip6.Mask(u.Len)
		c.probes = append(c.probes, ip6.Addr{Hi: u.Addr6.Hi | ^m.Hi, Lo: u.Addr6.Lo | ^m.Lo})
	}
	c.got = make([]uint32, len(c.probes))
	return c
}

func (c *churned6) shell() *engine { return &c.f.engine }

func (c *churned6) apply(us []gen.Update) (int, error) {
	c.ops = c.ops[:0]
	for _, u := range us {
		c.ops = append(c.ops, Op6{Addr: u.Addr6, Len: u.Len, Label: u.NextHop})
	}
	return c.f.ApplyBatch(c.ops)
}

func (c *churned6) replay(us []gen.Update) {
	for _, u := range us {
		if u.NextHop == ip6.NoLabel {
			c.ctl.Delete(u.Addr6, u.Len)
		} else {
			c.ctl.Insert(u.Addr6, u.Len, u.NextHop)
		}
	}
}

func (c *churned6) mismatch() string {
	c.f.LookupBatchInto(c.got, c.probes)
	for i, a := range c.probes {
		if want := c.ctl.Lookup(a); c.got[i] != want {
			return fmt.Sprintf("addr %s -> %d, offline replay says %d", a, c.got[i], want)
		}
	}
	return ""
}

func (c *churned6) fresh() (*engine, error) {
	tab := ip6.New()
	var walk func(n *ip6.Node, a ip6.Addr, depth int)
	walk = func(n *ip6.Node, a ip6.Addr, depth int) {
		if n == nil {
			return
		}
		if n.Label != ip6.NoLabel {
			tab.Entries = append(tab.Entries, ip6.Entry{Addr: a, Len: depth, NextHop: n.Label})
		}
		walk(n.Left, a, depth+1)
		walk(n.Right, a.WithBit(depth), depth+1)
	}
	walk(c.ctl.Root, ip6.Addr{}, 0)
	f, err := Build6(tab, c.lambda, c.shards)
	if err != nil {
		return nil, err
	}
	return &f.engine, nil
}

// withdrawn gives every withdrawal the label an engine's ops spell it
// with, so that a feed converts to ops field by field.
func withdrawn(us []gen.Update) []gen.Update {
	for i := range us {
		if us[i].Withdraw {
			us[i].NextHop = fib.NoLabel
		}
	}
	return us
}

// thereAndBack is a feed that leaves the table as it found it, three
// times over. BGP-like updates are announce-dominated, and a table that
// grows makes later batches legitimately dearer (growth is not
// garbage); so the feed is us, then the updates that undo us in
// reverse — was reporting what the original table holds at a prefix —
// and every third of the run is the same work on the same table.
func thereAndBack(us []gen.Update, was func(gen.Update) uint32) []gen.Update {
	for i := len(us) - 1; i >= 0; i-- {
		u := us[i]
		u.NextHop = was(u)
		u.Withdraw = u.NextHop == fib.NoLabel
		us = append(us, u)
	}
	return withdrawn(append(append(us, us...), us...))
}

// TestStationaryUnderChurn is the roadmap's stationarity property, for
// both families: serving bytes track the table, not the history, and a
// publish costs what it cost at the start. For seeded BGP-like and
// flap-storm sequences of 240 batches, after every batch:
//
//	(a) LookupBatch over a probe set is bit-identical to the offline
//	    replay of the same updates;
//	(b) SizeBytes() ≤ 1.5 × SizeBytes() of a fresh Build of the
//	    resulting table, plus one root window per shard — the arena's
//	    garbage rule (IPv6, whose fresh builds cost eight times the
//	    batch, builds one every eighth batch and holds the engine's own
//	    resident ÷ live to 1.5 on every one);
//
// and over the whole sequence (c) the mean ApplyBatch time of the last
// third is within 1.5× of the first third's (not under -short or -race,
// whose overheads are not the engine's).
func TestStationaryUnderChurn(t *testing.T) {
	const batches, size = 240, 128
	tab := testTable(t, 3000, 31)
	orig := trie.FromTable(tab)
	feeds := map[string]func(*rand.Rand) []gen.Update{
		"bgp": func(rng *rand.Rand) []gen.Update {
			return thereAndBack(gen.BGPUpdates(rng, tab, batches/6*size), func(u gen.Update) uint32 { return orig.Get(u.Addr, u.Len) })
		},
		"flap": func(rng *rand.Rand) []gen.Update { return withdrawn(gen.FlapStorm(rng, tab, batches*size, 256)) },
	}
	for _, lambda := range []int{8, 11} {
		for _, shards := range []int{4, 16} {
			for name, feed := range feeds {
				t.Run(fmt.Sprintf("v1/lambda=%d/shards=%d/%s", lambda, shards, name), func(t *testing.T) {
					us := feed(rand.New(rand.NewSource(32)))
					stationary(t, func() churned { return newChurned4(t, tab, lambda, shards, us) }, us, size, 1)
				})
			}
		}
	}
	tab6 := testTable6(t, 3000, 34)
	orig6 := (*trie.Trie)(ip6.FromTable(tab6))
	for _, cfg := range []struct{ lambda, shards int }{{11, 4}, {16, 16}} {
		t.Run(fmt.Sprintf("v6/lambda=%d/shards=%d/bgp", cfg.lambda, cfg.shards), func(t *testing.T) {
			us := thereAndBack(gen.BGPUpdates6(rand.New(rand.NewSource(32)), tab6, batches/6*size),
				func(u gen.Update) uint32 { return orig6.GetKey(trie.Key(u.Addr6), u.Len) })
			stationary(t, func() churned { return newChurned6(t, tab6, cfg.lambda, cfg.shards, us) }, us, size, 8)
		})
	}
}

func stationary(t *testing.T, build func() churned, us []gen.Update, size, freshEvery int) {
	c := build()
	windows := 4 * c.shell().windows // bytes of every shard's root window together
	for lo := 0; lo+size <= len(us); lo += size {
		batch := us[lo : lo+size]
		c.replay(batch)
		if _, err := c.apply(batch); err != nil {
			t.Fatal(err)
		}
		if m := c.mismatch(); m != "" {
			t.Fatalf("batch %d: %s", lo/size, m)
		}
		if resident, live, _ := c.shell().Arena(); 2*resident > 3*live {
			t.Fatalf("batch %d: arena resident %d B, live %d B: past 1.5 ×", lo/size, resident, live)
		}
		if lo/size%freshEvery != 0 {
			continue
		}
		fresh, err := c.fresh()
		if err != nil {
			t.Fatal(err)
		}
		if have, bound := c.shell().SizeBytes(), fresh.SizeBytes()*3/2+windows; have > bound {
			t.Fatalf("batch %d: serving %d B, a fresh build of the same table %d B: bound %d", lo/size, have, fresh.SizeBytes(), bound)
		}
	}
	if testing.Short() || raceEnabled {
		return
	}
	// (c), on an engine of its own with nothing else allocating: the
	// time the first and the last third of the batches take. A slowdown
	// the engine causes repeats; one the host causes does not, so the
	// best of three runs decides.
	var first, last time.Duration
	for try := 0; try < 3; try++ {
		c = build()
		runtime.GC()
		third := len(us) / size / 3 * size
		thirds := [3]time.Duration{}
		for lo := 0; lo < 3*third; lo += size {
			start := time.Now()
			if _, err := c.apply(us[lo : lo+size]); err != nil {
				t.Fatal(err)
			}
			thirds[lo/third] += time.Since(start)
		}
		if first, last = thirds[0], thirds[2]; last <= first*3/2 {
			return
		}
	}
	t.Fatalf("ApplyBatch slowed down: the first third of the batches took %v, the last %v", first, last)
}
