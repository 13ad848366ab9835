package main

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"fibcomp/internal/fib"
	"fibcomp/internal/gen"
	"fibcomp/internal/ip6"
	"fibcomp/internal/trie"
)

// control is the offline reference: a plain binary trie of the table
// the server was given, to which exactly the updates sent are replayed.
// Keys are in wire form (4 or 16 big-endian bytes).
type control interface {
	lookup(key []byte) uint32
	apply(u gen.Update)
}

type control4 struct{ t *trie.Trie }

func (c control4) lookup(key []byte) uint32 { return c.t.Lookup(binary.BigEndian.Uint32(key)) }
func (c control4) apply(u gen.Update) {
	if u.Withdraw {
		c.t.Delete(u.Addr, u.Len)
	} else {
		c.t.Insert(u.Addr, u.Len, u.NextHop)
	}
}

type control6 struct{ t *ip6.Trie }

func wireAddr6(key []byte) ip6.Addr {
	return ip6.Addr{Hi: binary.BigEndian.Uint64(key), Lo: binary.BigEndian.Uint64(key[8:])}
}

func (c control6) lookup(key []byte) uint32 { return c.t.Lookup(wireAddr6(key)) }
func (c control6) apply(u gen.Update) {
	if u.Withdraw {
		c.t.Delete(u.Addr6, u.Len)
	} else {
		c.t.Insert(u.Addr6, u.Len, u.NextHop)
	}
}

// keyPool is a block of lookup keys in wire form and the label the
// control gives each, also in wire form, so a reply is checked with one
// byte comparison.
type keyPool struct {
	asz  int // 4 or 16
	n    int
	keys []byte
	exp  []byte
}

func (p *keyPool) relabel(c control) {
	for i := 0; i < p.n; i++ {
		binary.BigEndian.PutUint32(p.exp[4*i:], c.lookup(p.keys[p.asz*i:]))
	}
}

// feed is an update sequence with its text rendered once, so the
// generator's hot loop writes slices of it.
type feed struct {
	ups  []gen.Update
	text []byte
	end  []int // end[i] is the offset just past line i
}

// lines returns the text of updates [i, j).
func (f *feed) lines(i, j int) []byte {
	start := 0
	if i > 0 {
		start = f.end[i-1]
	}
	return f.text[start:f.end[j-1]]
}

func renderFeed(ups []gen.Update) *feed {
	f := &feed{ups: ups, end: make([]int, len(ups)), text: make([]byte, 0, 32*len(ups))}
	for i, u := range ups {
		f.text = appendUpdate(f.text, u)
		f.end[i] = len(f.text)
	}
	return f
}

func appendUpdate(b []byte, u gen.Update) []byte {
	if u.Withdraw {
		b = append(b, "withdraw "...)
	} else {
		b = append(b, "announce "...)
	}
	if u.V6 {
		b = append(b, ip6.Entry{Addr: u.Addr6, Len: u.Len}.Prefix()...)
	} else {
		b = appendPrefix4(b, u.Addr, u.Len)
	}
	if !u.Withdraw {
		b = append(b, ' ')
		b = strconv.AppendUint(b, uint64(u.NextHop), 10)
	}
	return append(b, '\n')
}

func appendPrefix4(b []byte, addr uint32, plen int) []byte {
	for s := 24; s >= 0; s -= 8 {
		b = strconv.AppendUint(b, uint64(addr>>uint(s)&0xFF), 10)
		if s > 0 {
			b = append(b, '.')
		}
	}
	b = append(b, '/')
	return strconv.AppendInt(b, int64(plen), 10)
}

// tenant is one VRF: the shared base plus its private /24s, and a small
// pool of keys that land inside those.
type tenant struct {
	id      uint16
	private []fib.Entry
	pool    keyPool
	file    string
}

const tenantKeys = 512 // per-tenant keys inside the private prefixes

// markerLabels is the cycle of labels successive marker announces
// carry. It is longer than any number of markers that can be pending at
// once, so a reply's label names its marker even when the plane
// coalesced several.
const markerLabels = 200

func markerLabel(k int) uint32 { return uint32(1 + k%markerLabels) }

// inputs is everything one run feeds the server, made from the seed.
type inputs struct {
	sp       *spec
	asz      int
	f4, f6   string // table files
	vrfSpec  string // -vrfs value
	prefixes map[string]int

	ctl     control // of the table the lookups and the feed address
	pool    keyPool
	tenants []tenant
	feedVRF uint16 // tenant the ribd session is scoped to (0: default table)

	markerKey []byte // wire address every probe slot asks for
	markerPfx string // the prefix the marker announces name
	markerUp  gen.Update
	feed      *feed
	rng       *rand.Rand
}

func scaled(n int, scale float64, min int) int {
	v := int(float64(n)*scale + 0.5)
	if v < min {
		v = min
	}
	return v
}

// generate builds tables, key pools, feeds and tenant deltas from the
// seed and writes the table files the server will read.
func generate(e *env, sp *spec, seed int64, scale float64) (*inputs, error) {
	rng := rand.New(rand.NewSource(seed))
	in := &inputs{sp: sp, asz: 4, prefixes: map[string]int{}, rng: rng}
	dir, err := os.MkdirTemp(e.dir, sp.name+"-")
	if err != nil {
		return nil, err
	}

	// The default IPv4 table: taz, or the tenants' shared base.
	var t4 *fib.Table
	if sp.tenants > 0 {
		d, err := gen.SkewedDist(4, 1.0)
		if err != nil {
			return nil, err
		}
		if t4, err = gen.SplitFIB(rng, scaled(vrfBaseRoutes, scale, 500), d); err != nil {
			return nil, err
		}
	} else {
		p, err := gen.ProfileByName("taz")
		if err != nil {
			return nil, err
		}
		p.N = scaled(tazPrefixes, scale, 2000)
		if t4, err = p.Generate(rng); err != nil {
			return nil, err
		}
	}
	in.prefixes["v4"] = t4.N()
	base4 := renderTable4(t4)
	in.f4 = filepath.Join(dir, "v4.fib")
	if err := os.WriteFile(in.f4, base4, 0o644); err != nil {
		return nil, err
	}
	tr4 := trie.FromTable(t4)

	npool := scaled(poolKeys, scale, 1<<14)
	nfeed := scaled(1<<20, scale, 1<<16)
	switch {
	case sp.v6:
		in.asz = 16
		t6, err := ip6.SplitFIB(rng, scaled(v6Prefixes, scale, 1000), gen.TruncPoisson(0.6, 5))
		if err != nil {
			return nil, err
		}
		in.prefixes["v6"] = t6.N()
		in.f6 = filepath.Join(dir, "v6.fib")
		if err := writeWith(in.f6, t6.Write); err != nil {
			return nil, err
		}
		in.ctl = control6{ip6.FromTable(t6)}
		// Half the keys inside installed prefixes, half uniform over
		// 2000::/3.
		keys := append(ip6.DeepAddrs(rng, t6, npool/2), ip6.RandomAddrs(rng, npool-npool/2)...)
		rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
		in.pool = newPool(16, len(keys))
		for i, a := range keys {
			putAddr6(in.pool.keys[16*i:], a)
		}
		// A /64 marker under 2000::/3 and a probe address inside it.
		m := ip6.Addr{Hi: 0x2000000000000000 | rng.Uint64()>>3}
		in.markerPfx = ip6.Entry{Addr: m, Len: 64}.Prefix()
		in.markerUp = gen.Update{Addr6: m, Len: 64, V6: true}
		in.markerKey = make([]byte, 16)
		putAddr6(in.markerKey, ip6.Addr{Hi: m.Hi, Lo: rng.Uint64()})
		in.feed = renderFeed(gen.BGPUpdates6(rng, t6, max(nfeed/4, 1<<16)))
	default:
		in.ctl = control4{tr4}
		in.pool = newPool(4, npool)
		private := map[uint32]bool{} // /24s owned by some tenant
		if sp.tenants > 0 {
			if err := in.makeTenants(dir, rng, tr4, base4, scale, private); err != nil {
				return nil, err
			}
		}
		marker := rng.Uint32()
		for private[marker>>8] {
			marker = rng.Uint32()
		}
		for i := 0; i < npool; i++ {
			k := rng.Uint32()
			for k == marker || private[k>>8] {
				k = rng.Uint32()
			}
			binary.BigEndian.PutUint32(in.pool.keys[4*i:], k)
		}
		in.markerKey = binary.BigEndian.AppendUint32(nil, marker)
		in.markerPfx = string(appendPrefix4(nil, marker, 32))
		in.markerUp = gen.Update{Addr: marker, Len: 32}
		if sp.tenants > 0 {
			// The session feeds the first tenant: its own table is the
			// base plus its private routes.
			tn := &in.tenants[0]
			in.feedVRF = tn.id
			own := trie.FromTable(t4)
			for _, p := range tn.private {
				own.Insert(p.Addr, p.Len, p.NextHop)
			}
			in.ctl = control4{own}
		}
		ups := gen.BGPUpdates(rng, t4, nfeed)
		if sp.feed {
			// The closed-loop bursts go through the generated feed several
			// times in a run, and how many depends on the server's speed.
			// On the table as generated the first lap is unlike the others
			// (four updates in ten change a route, then one in four: an
			// announce repeats what the lap before left). The server of
			// this workload therefore loads the table as the feed leaves
			// it, so that every lap is alike and so is every run.
			for _, u := range ups {
				in.ctl.apply(u)
			}
			t4 = &fib.Table{Entries: tr4.Entries()}
			in.prefixes["v4"] = t4.N()
			if err := os.WriteFile(in.f4, renderTable4(t4), 0o644); err != nil {
				return nil, err
			}
		}
		in.feed = renderFeed(ups)
	}
	in.pool.relabel(baseControl(in, tr4))
	return in, nil
}

// baseControl is the control the general pool is labelled from: on the
// VRF workload every tenant answers pool keys from the shared base (the
// pool avoids every private /24), elsewhere it is the run's control.
func baseControl(in *inputs, tr4 *trie.Trie) control {
	if in.sp.tenants > 0 {
		return control4{tr4}
	}
	return in.ctl
}

func newPool(asz, n int) keyPool {
	return keyPool{asz: asz, n: n, keys: make([]byte, asz*n), exp: make([]byte, 4*n)}
}

func putAddr6(b []byte, a ip6.Addr) {
	binary.BigEndian.PutUint64(b, a.Hi)
	binary.BigEndian.PutUint64(b[8:], a.Lo)
}

func renderTable4(t *fib.Table) []byte {
	b := make([]byte, 0, 24*t.N())
	for _, e := range t.Entries {
		b = appendPrefix4(b, e.Addr, e.Len)
		b = append(b, ' ')
		b = strconv.AppendUint(b, uint64(e.NextHop), 10)
		b = append(b, '\n')
	}
	return b
}

func writeWith(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	if err := write(bw); err != nil {
		f.Close()
		return err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// makeTenants gives each tenant 16 private /24s with their own labels,
// writes its table file (base + private), and labels its key pool by
// installing the private routes in the base trie for the duration.
func (in *inputs) makeTenants(dir string, rng *rand.Rand, base *trie.Trie, base4 []byte, scale float64, private map[uint32]bool) error {
	n := scaled(in.sp.tenants, scale, 4)
	in.prefixes["tenants"] = n
	var specs []string
	for t := 0; t < n; t++ {
		tn := tenant{id: uint16(t + 1), pool: newPool(4, tenantKeys)}
		text := append([]byte(nil), base4...)
		for len(tn.private) < vrfPrivate {
			a := rng.Uint32() & fib.Mask(24)
			if private[a>>8] {
				continue
			}
			private[a>>8] = true
			p := fib.Entry{Addr: a, Len: 24, NextHop: uint32(5 + rng.Intn(200))}
			tn.private = append(tn.private, p)
			text = appendPrefix4(text, p.Addr, p.Len)
			text = append(text, ' ')
			text = strconv.AppendUint(text, uint64(p.NextHop), 10)
			text = append(text, '\n')
		}
		tn.file = filepath.Join(dir, fmt.Sprintf("vrf%d.fib", tn.id))
		if err := os.WriteFile(tn.file, text, 0o644); err != nil {
			return err
		}
		specs = append(specs, fmt.Sprintf("%d=%s", tn.id, tn.file))

		old := make([]uint32, len(tn.private))
		for i, p := range tn.private {
			old[i] = base.Get(p.Addr, p.Len)
			base.Insert(p.Addr, p.Len, p.NextHop)
		}
		for i := 0; i < tenantKeys; i++ {
			p := tn.private[rng.Intn(len(tn.private))]
			binary.BigEndian.PutUint32(tn.pool.keys[4*i:], p.Addr|rng.Uint32()&0xFF)
		}
		tn.pool.relabel(control4{base})
		for i, p := range tn.private {
			if old[i] == fib.NoLabel {
				base.Delete(p.Addr, p.Len)
			} else {
				base.Insert(p.Addr, p.Len, old[i])
			}
		}
		in.tenants = append(in.tenants, tn)
	}
	in.vrfSpec = strings.Join(specs, ",")
	return nil
}

// serverArgs is the workload's part of the frozen flag surface.
func (in *inputs) serverArgs() []string {
	var a []string
	if in.f6 != "" {
		a = append(a, "-fib6", in.f6)
	}
	if in.vrfSpec != "" {
		a = append(a, "-vrfs", in.vrfSpec)
	}
	return a
}
