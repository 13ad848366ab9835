// Package experiments regenerates every table and figure of the
// paper's evaluation (§5). Each Run* function produces the same rows
// or series the paper reports; cmd/fibbench prints them and the root
// benchmark suite wraps them in testing.B harnesses. Absolute numbers
// depend on the host; the assertions the reproduction makes are about
// shape (who wins, by what factor, where the knees sit) and are
// recorded in EXPERIMENTS.md.
package experiments

import (
	"fmt"
	"io"
	"math/rand"
	"time"

	"fibcomp/internal/fib"
	"fibcomp/internal/gen"
	"fibcomp/internal/trie"
)

// CPUGHz converts measured ns to cycles, using the paper's 2.50 GHz
// Core i5 clock.
const CPUGHz = 2.5

// Config scales the experiments: Scale < 1 shrinks the FIB instances
// proportionally so the whole suite runs in seconds; Scale = 1 is
// paper scale.
type Config struct {
	Seed  int64
	Scale float64
}

// DefaultConfig runs at 1/8 paper scale, enough for every shape to be
// visible while keeping the full suite under a couple of minutes.
func DefaultConfig() Config { return Config{Seed: 1, Scale: 0.125} }

func (c Config) scaleN(n int) int {
	s := int(float64(n) * c.Scale)
	if s < 2000 {
		s = 2000
	}
	if s > n {
		s = n
	}
	return s
}

// generate builds the profile FIB at the configured scale.
func (c Config) generate(name string) (*fib.Table, gen.Profile, error) {
	p, err := gen.ProfileByName(name)
	if err != nil {
		return nil, p, err
	}
	p.N = c.scaleN(p.N)
	rng := rand.New(rand.NewSource(c.Seed))
	t, err := p.Generate(rng)
	return t, p, err
}

// kb renders bits as kilobytes.
func kb(bits float64) float64 { return bits / 8 / 1024 }

// throughput measures a lookup function over the address list,
// returning ns/lookup; it runs for at least minDur.
func throughput(look func(uint32) uint32, addrs []uint32, minDur time.Duration) float64 {
	if len(addrs) == 0 {
		return 0
	}
	var sink uint32
	ops := 0
	start := time.Now()
	for time.Since(start) < minDur {
		for _, a := range addrs {
			sink += look(a)
		}
		ops += len(addrs)
	}
	_ = sink
	return float64(time.Since(start).Nanoseconds()) / float64(ops)
}

// leafStats normalizes and measures a table.
func leafStats(t *fib.Table) trie.Stats {
	return trie.FromTable(t).LeafPush().LeafStats()
}

func fprintf(w io.Writer, format string, args ...interface{}) {
	if w != nil {
		fmt.Fprintf(w, format, args...)
	}
}
