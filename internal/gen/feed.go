package gen

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
	"unsafe"

	"fibcomp/internal/fib"
	"fibcomp/internal/ip6"
)

// The update-feed text format mirrors a simplified RouteViews log,
// dual-stack: the address family of a line is carried by the prefix
// notation itself (a ':' marks IPv6), so v4 and v6 updates interleave
// freely in one feed and v4-only feeds stay byte-identical to PR 4:
//
//	announce 10.1.0.0/16 3
//	withdraw 10.1.0.0/16
//	announce 2001:db8::/32 5
//	withdraw 2001:db8::/32
//	# comments and blank lines are ignored
//
// It is what cmd/fibreplay consumes and what WriteUpdates emits, so
// synthetic feeds can be saved, inspected and replayed.

// WriteUpdates serializes an update sequence.
func WriteUpdates(w io.Writer, us []Update) error {
	bw := bufio.NewWriter(w)
	for _, u := range us {
		prefix := ""
		if u.V6 {
			prefix = ip6.Entry{Addr: u.Addr6, Len: u.Len}.Prefix()
		} else {
			prefix = fib.Entry{Addr: u.Addr, Len: u.Len}.Prefix()
		}
		var err error
		if u.Withdraw {
			_, err = fmt.Fprintf(bw, "withdraw %s\n", prefix)
		} else {
			_, err = fmt.Fprintf(bw, "announce %s %d\n", prefix, u.NextHop)
		}
		if err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ParseUpdate parses one non-blank, non-comment feed line —
// "announce prefix label" or "withdraw prefix" — the unit a
// streaming consumer (a ribd peer session) handles at a time.
func ParseUpdate(text string) (Update, error) {
	return ParseUpdateBytes(unsafe.Slice(unsafe.StringData(text), len(text)))
}

// ParseUpdateBytes is ParseUpdate on a line still in the read buffer.
// It neither keeps nor modifies line, and a well-formed IPv4 line —
// nearly all of any feed — costs no allocation: parseFast takes it, and
// everything else (IPv6, odd spacing, every malformed line) goes to the
// string parser, whose values and error texts are the reference.
func ParseUpdateBytes(line []byte) (Update, error) {
	if u, ok := parseFast(line); ok {
		return u, nil
	}
	u, err := parseUpdate(string(line))
	if err != nil {
		return u, fmt.Errorf("gen: %v", err)
	}
	return u, nil
}

// parseFast accepts exactly "announce a.b.c.d/len label" and "withdraw
// a.b.c.d/len" with single spaces and plain decimal numbers, a subset
// of what parseUpdate accepts with the same value; ok is false for
// anything else, valid or not.
func parseFast(line []byte) (u Update, ok bool) {
	rest := line
	switch {
	case len(line) > 9 && string(line[:9]) == "announce ":
		rest = line[9:]
	case len(line) > 9 && string(line[:9]) == "withdraw ":
		rest, u.Withdraw = line[9:], true
	default:
		return u, false
	}
	var v uint32
	for i := 0; i < 4; i++ {
		if v, rest, ok = decimal(rest, 255); !ok || len(rest) == 0 || rest[0] != ".../"[i] {
			return u, false
		}
		u.Addr, rest = u.Addr<<8|v, rest[1:]
	}
	if v, rest, ok = decimal(rest, fib.W); !ok {
		return u, false
	}
	u.Len = int(v)
	u.Addr &= fib.Mask(u.Len)
	if u.Withdraw {
		return u, len(rest) == 0
	}
	if len(rest) == 0 || rest[0] != ' ' {
		return u, false
	}
	u.NextHop, rest, ok = decimal(rest[1:], fib.MaxLabel)
	return u, ok && len(rest) == 0 && u.NextHop != 0
}

// decimal reads a run of one to three digits from the front of b,
// reporting its value when that is at most max.
func decimal(b []byte, max uint32) (v uint32, rest []byte, ok bool) {
	n := 0
	for n < len(b) && n < 3 && b[n] >= '0' && b[n] <= '9' {
		v = v*10 + uint32(b[n]-'0')
		n++
	}
	if n < len(b) && b[n] >= '0' && b[n] <= '9' {
		return 0, b, false // a longer run: leave it to the reference parser
	}
	return v, b[n:], n > 0 && v <= max
}

func parseUpdate(text string) (Update, error) {
	fields := strings.Fields(text)
	if len(fields) == 0 {
		return Update{}, fmt.Errorf("empty update")
	}
	switch fields[0] {
	case "announce":
		if len(fields) != 3 {
			return Update{}, fmt.Errorf("want 'announce prefix label'")
		}
		u, err := parsePrefixUpdate(fields[1])
		if err != nil {
			return Update{}, err
		}
		maxLabel := uint64(fib.MaxLabel)
		if u.V6 {
			maxLabel = uint64(ip6.MaxLabel)
		}
		nh, err := strconv.ParseUint(fields[2], 10, 32)
		if err != nil || nh == 0 || nh > maxLabel {
			return Update{}, fmt.Errorf("bad label %q", fields[2])
		}
		u.NextHop = uint32(nh)
		return u, nil
	case "withdraw":
		if len(fields) != 2 {
			return Update{}, fmt.Errorf("want 'withdraw prefix'")
		}
		u, err := parsePrefixUpdate(fields[1])
		if err != nil {
			return Update{}, err
		}
		u.Withdraw = true
		return u, nil
	default:
		return Update{}, fmt.Errorf("unknown verb %q", fields[0])
	}
}

// parsePrefixUpdate dispatches on the prefix notation: a ':' marks an
// IPv6 prefix, anything else parses as IPv4 — so family errors come
// out of the family's own parser ("ip6: bad hextet ..." vs "fib: bad
// prefix ..."), and the streaming consumers' line-number+text
// reporting wraps either identically.
func parsePrefixUpdate(prefix string) (Update, error) {
	if strings.Contains(prefix, ":") {
		addr, plen, err := ip6.ParsePrefix(prefix)
		if err != nil {
			return Update{}, err
		}
		return Update{Addr6: addr, Len: plen, V6: true}, nil
	}
	addr, plen, err := fib.ParsePrefix(prefix)
	if err != nil {
		return Update{}, err
	}
	return Update{Addr: addr, Len: plen}, nil
}

// ReadUpdates parses an update feed. A parse error names both the
// offending line number and its text, so a bad line in a 100k-line
// feed can be located without bisecting the file.
func ReadUpdates(r io.Reader) ([]Update, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	var out []Update
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		u, err := parseUpdate(text)
		if err != nil {
			return nil, fmt.Errorf("gen: line %d: %q: %v", line, text, err)
		}
		out = append(out, u)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}
