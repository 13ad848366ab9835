package fibcomp_test

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// servingPathCeiling is ROADMAP's tracked number: the non-test Go lines
// (as `wc -l` counts them) of the packages a lookup or an update runs
// through — the walkers and the engine, the control trie, the update
// plane and the tenant registry. It is only ever lowered — to the new count, by the change
// that removes the lines. A change that needs more lines than this
// removes others first.
const servingPathCeiling = 7947

var servingPath = []string{"pdag", "ip6", "shardfib", "lookupd", "trie", "ribd", "vrftab"}

func TestServingPathLines(t *testing.T) {
	total := 0
	for _, pkg := range servingPath {
		files, err := filepath.Glob(filepath.Join("internal", pkg, "*.go"))
		if err != nil || len(files) == 0 {
			t.Fatalf("internal/%s: no Go files (%v)", pkg, err)
		}
		for _, f := range files {
			if strings.HasSuffix(f, "_test.go") {
				continue
			}
			src, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			total += bytes.Count(src, []byte("\n"))
		}
	}
	if total > servingPathCeiling {
		t.Fatalf("internal/{%s} hold %d non-test lines, ceiling %d", strings.Join(servingPath, ","), total, servingPathCeiling)
	}
	t.Logf("%d non-test lines, ceiling %d", total, servingPathCeiling)
}
