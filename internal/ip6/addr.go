// Package ip6 adapts the paper's FIB compressors to IPv6, the
// extension §7 explicitly defers ("we see no reasons why our
// techniques could not be adapted to IPv6"): 128-bit addresses packed
// into two machine words, a binary prefix trie with leaf-pushing, the
// trie-folding prefix DAG with a leaf-push barrier, and the XBW-b
// transform. The trie, the DAG's update and the entropy machinery are
// the IPv4 packages' own, over a 128-bit key; what is here reads an
// IPv6 address: tables, their text form and the blob walkers.
package ip6

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"fibcomp/internal/trie"
)

// W is the IPv6 address width in bits.
const W = 128

// NoLabel marks "no route", as in package fib.
const NoLabel uint32 = 0

// MaxLabel bounds the next-hop alphabet.
const MaxLabel uint32 = 255

// Addr is a 128-bit address, big-endian across (Hi, Lo): the layout of
// trie.Key, so a conversion between the two is free.
type Addr struct {
	Hi, Lo uint64
}

// Bit extracts address bit q (0 = MSB of Hi), matching fib.Bit.
func (a Addr) Bit(q int) uint32 { return trie.Key(a).Bit(q) }

// WithBit returns a with bit q set.
func (a Addr) WithBit(q int) Addr {
	if q < 64 {
		a.Hi |= 1 << uint(63-q)
	} else {
		a.Lo |= 1 << uint(127-q)
	}
	return a
}

// Mask returns the netmask of a prefix length. It is written out here
// rather than taken from trie.Key so that Table.LookupLinear, the
// oracle the tries are checked against, shares no code with them.
func Mask(plen int) Addr {
	switch {
	case plen <= 0:
		return Addr{}
	case plen >= W:
		return Addr{^uint64(0), ^uint64(0)}
	case plen <= 64:
		return Addr{^uint64(0) << uint(64-plen), 0}
	default:
		return Addr{^uint64(0), ^uint64(0) << uint(128-plen)}
	}
}

// And applies a mask.
func (a Addr) And(m Addr) Addr { return Addr{a.Hi & m.Hi, a.Lo & m.Lo} }

// Canonical clears the host bits of a prefix.
func Canonical(a Addr, plen int) Addr { return a.And(Mask(plen)) }

// Match reports whether prefix a/plen covers addr.
func Match(a Addr, plen int, addr Addr) bool {
	m := Mask(plen)
	return addr.And(m) == a.And(m)
}

// String renders the address in the canonical RFC 5952 style
// (hextets with the first longest zero run compressed).
func (a Addr) String() string {
	var h [8]uint16
	for i := 0; i < 4; i++ {
		h[i] = uint16(a.Hi >> uint(48-16*i))
		h[4+i] = uint16(a.Lo >> uint(48-16*i))
	}
	// Find the longest run of zero hextets (length ≥ 2).
	best, bestLen := -1, 1
	for i := 0; i < 8; {
		if h[i] != 0 {
			i++
			continue
		}
		j := i
		for j < 8 && h[j] == 0 {
			j++
		}
		if j-i > bestLen {
			best, bestLen = i, j-i
		}
		i = j
	}
	var sb strings.Builder
	for i := 0; i < 8; i++ {
		if i == best {
			sb.WriteString("::")
			i += bestLen - 1
			continue
		}
		if i > 0 && !(best >= 0 && i == best+bestLen) {
			sb.WriteByte(':')
		}
		fmt.Fprintf(&sb, "%x", h[i])
	}
	s := sb.String()
	if s == "" {
		return "::"
	}
	return s
}

// ParseAddr parses an IPv6 address in hextet notation, with at most
// one "::" compression. IPv4-mapped tails are not supported.
func ParseAddr(s string) (Addr, error) {
	if s == "" {
		return Addr{}, fmt.Errorf("ip6: empty address")
	}
	var head, tail []uint16
	parts := strings.Split(s, "::")
	switch len(parts) {
	case 1:
		var err error
		head, err = hextets(parts[0])
		if err != nil {
			return Addr{}, err
		}
		if len(head) != 8 {
			return Addr{}, fmt.Errorf("ip6: %q has %d hextets, want 8", s, len(head))
		}
	case 2:
		var err error
		if parts[0] != "" {
			if head, err = hextets(parts[0]); err != nil {
				return Addr{}, err
			}
		}
		if parts[1] != "" {
			if tail, err = hextets(parts[1]); err != nil {
				return Addr{}, err
			}
		}
		if len(head)+len(tail) >= 8 {
			return Addr{}, fmt.Errorf("ip6: %q: '::' compresses nothing", s)
		}
	default:
		return Addr{}, fmt.Errorf("ip6: %q has multiple '::'", s)
	}
	var h [8]uint16
	copy(h[:], head)
	copy(h[8-len(tail):], tail)
	var a Addr
	for i := 0; i < 4; i++ {
		a.Hi |= uint64(h[i]) << uint(48-16*i)
		a.Lo |= uint64(h[4+i]) << uint(48-16*i)
	}
	return a, nil
}

func hextets(s string) ([]uint16, error) {
	fields := strings.Split(s, ":")
	out := make([]uint16, 0, len(fields))
	for _, f := range fields {
		if f == "" {
			return nil, fmt.Errorf("ip6: empty hextet in %q", s)
		}
		v, err := strconv.ParseUint(f, 16, 16)
		if err != nil {
			return nil, fmt.Errorf("ip6: bad hextet %q", f)
		}
		out = append(out, uint16(v))
	}
	return out, nil
}

// ParsePrefix parses "addr/len".
func ParsePrefix(s string) (Addr, int, error) {
	slash := strings.LastIndexByte(s, '/')
	if slash < 0 {
		return Addr{}, 0, fmt.Errorf("ip6: bad prefix %q", s)
	}
	a, err := ParseAddr(s[:slash])
	if err != nil {
		return Addr{}, 0, err
	}
	plen, err := strconv.Atoi(s[slash+1:])
	if err != nil || plen < 0 || plen > W {
		return Addr{}, 0, fmt.Errorf("ip6: bad prefix length in %q", s)
	}
	return Canonical(a, plen), plen, nil
}

// Entry is one IPv6 FIB row.
type Entry struct {
	Addr    Addr
	Len     int
	NextHop uint32
}

// Prefix renders the entry's prefix in "addr/len" notation.
func (e Entry) Prefix() string {
	return fmt.Sprintf("%s/%d", e.Addr, e.Len)
}

// Table is an IPv6 FIB in tabular form.
type Table struct {
	Entries []Entry
}

// New returns an empty table.
func New() *Table { return &Table{} }

// Add appends an entry with validation.
func (t *Table) Add(a Addr, plen int, nh uint32) error {
	if plen < 0 || plen > W {
		return fmt.Errorf("ip6: prefix length %d out of range", plen)
	}
	if nh == NoLabel || nh > MaxLabel {
		return fmt.Errorf("ip6: label %d out of range [1,%d]", nh, MaxLabel)
	}
	t.Entries = append(t.Entries, Entry{Addr: Canonical(a, plen), Len: plen, NextHop: nh})
	return nil
}

// N reports the number of entries.
func (t *Table) N() int { return len(t.Entries) }

// LookupLinear is the O(N) oracle.
func (t *Table) LookupLinear(addr Addr) uint32 {
	best := NoLabel
	bestLen := -1
	for _, e := range t.Entries {
		if e.Len > bestLen && Match(e.Addr, e.Len, addr) {
			best = e.NextHop
			bestLen = e.Len
		}
	}
	return best
}

// Read parses an IPv6 FIB in the text format
//
//	# comment
//	2001:db8::/32 next-hop-label
//
// one entry per line — the v6 twin of fib.Read, so fibgen/fibserve
// move dual-stack tables through the same file plumbing.
func Read(r io.Reader) (*Table, error) {
	t := New()
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Fields(text)
		if len(fields) != 2 {
			return nil, fmt.Errorf("ip6: line %d: want 'prefix label', got %q", line, text)
		}
		a, plen, err := ParsePrefix(fields[0])
		if err != nil {
			return nil, fmt.Errorf("ip6: line %d: %v", line, err)
		}
		nh, err := strconv.ParseUint(fields[1], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("ip6: line %d: bad label %q", line, fields[1])
		}
		if err := t.Add(a, plen, uint32(nh)); err != nil {
			return nil, fmt.Errorf("ip6: line %d: %v", line, err)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return t, nil
}

// Write serializes the table in the format Read accepts.
func (t *Table) Write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for _, e := range t.Entries {
		if _, err := fmt.Fprintf(bw, "%s %d\n", e.Prefix(), e.NextHop); err != nil {
			return err
		}
	}
	return bw.Flush()
}
