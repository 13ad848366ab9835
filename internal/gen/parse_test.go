package gen

import (
	"math/rand"
	"strings"
	"testing"

	"fibcomp/internal/fib"
)

// reference is the string parser with ParseUpdate's error prefix: what
// the byte path must agree with, value for value and text for text.
func reference(text string) (Update, string) {
	u, err := parseUpdate(text)
	if err != nil {
		return u, "gen: " + err.Error()
	}
	return u, ""
}

func checkParse(t *testing.T, line string) {
	t.Helper()
	want, wantErr := reference(line)
	got, err := ParseUpdateBytes([]byte(line))
	gotErr := ""
	if err != nil {
		gotErr = err.Error()
	}
	if got != want || gotErr != wantErr {
		t.Fatalf("ParseUpdateBytes(%q) = %+v, %q; the string parser says %+v, %q", line, got, gotErr, want, wantErr)
	}
	if got2, err2 := ParseUpdate(line); got2 != got || (err2 == nil) != (err == nil) || err2 != nil && err2.Error() != gotErr {
		t.Fatalf("ParseUpdate(%q) = %+v, %v; the byte path says %+v, %q", line, got2, err2, got, gotErr)
	}
}

// parseSeeds are lines on both sides of every decision parseFast makes.
var parseSeeds = []string{
	"announce 10.1.0.0/16 3", "withdraw 10.1.0.0/16", "announce 10.1.2.3/16 255",
	"announce 0.0.0.0/0 1", "announce 255.255.255.255/32 7", "withdraw 010.001.000.000/016",
	"announce 10.1.0.0/16 0", "announce 10.1.0.0/16 256", "announce 10.1.0.0/16 0003",
	"announce 10.1.0.0/33 3", "announce 10.1.0.0/ 3", "announce 10.1.0/16 3", "announce 10.1.0.0.0/16 3",
	"announce 256.1.0.0/16 3", "announce 10.1.0.0/16", "announce 10.1.0.0/16 3 4", "announce  10.1.0.0/16 3",
	"announce\t10.1.0.0/16 3", "announce 10.1.0.0/16 3 ", " announce 10.1.0.0/16 3", "announce +10.1.0.0/16 3",
	"announce 10.1.0.0/-1 3", "announce 10.1.0.0/16 +3", "withdraw 10.1.0.0/16 3", "withdraw", "announce", "",
	"announce 2001:db8::/32 5", "withdraw 2001:db8::/32", "announce 2001:db8::/129 5", "announce ::ffff:10.0.0.0/104 2",
	"frobnicate 10.0.0.0/8", "announce 10.0.0.0/8 1", "announce 10.0.0.0/8 3", "announce 10.1.0.0/16 3\x00",
}

func TestParseUpdateBytesMatchesString(t *testing.T) {
	for _, line := range parseSeeds {
		checkParse(t, line)
	}
	// Every line WriteUpdates renders, both families.
	rng := rand.New(rand.NewSource(5))
	tab := fib.MustParse("10.0.0.0/8 1", "10.1.0.0/16 2", "192.168.0.0/24 3")
	var sb strings.Builder
	if err := WriteUpdates(&sb, append(BGPUpdates(rng, tab, 500), RandomUpdates(rng, tab, 500)...)); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(strings.TrimSpace(sb.String()), "\n") {
		checkParse(t, line)
		if _, ok := parseFast([]byte(line)); !ok {
			t.Fatalf("a rendered IPv4 line missed the allocation-free path: %q", line)
		}
	}
}

// TestParseUpdateBytesZeroAllocs pins the session's per-line cost: a
// rendered IPv4 line parses from the read buffer without allocating.
func TestParseUpdateBytesZeroAllocs(t *testing.T) {
	for _, line := range []string{"announce 193.201.17.0/24 117", "withdraw 10.1.0.0/16"} {
		b := []byte(line)
		allocs := testing.AllocsPerRun(1000, func() {
			if _, err := ParseUpdateBytes(b); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Fatalf("ParseUpdateBytes(%q) allocated %.2f times per line, want 0", line, allocs)
		}
	}
}

// FuzzParseUpdate: on arbitrary bytes the byte path and the string
// path return the same update and the same error text.
func FuzzParseUpdate(f *testing.F) {
	for _, line := range parseSeeds {
		f.Add([]byte(line))
	}
	f.Fuzz(func(t *testing.T, line []byte) {
		checkParse(t, string(line))
	})
}
