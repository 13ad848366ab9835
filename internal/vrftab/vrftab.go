// Package vrftab is the multi-tenant table registry: N per-VRF
// compressed FIBs per address family behind one shared hash-cons
// index. Real multi-tenant deployments carry hundreds of VRFs whose
// tables are near-identical — a common provider core plus a few
// tenant-specific routes — and folding every tenant's prefix DAG into
// one shared space per family (pdag.Space) makes that redundancy
// structural: an isomorphic folded subtree appearing in any number of
// tenant tables is stored once, and the serialized blobs alias one
// shared arena too — node words appended once, root windows interned
// by content — so 256 near-identical tenants cost little more resident
// blob memory than one, and a family no tenant has routes in costs one
// window.
//
// The registry is the control plane's view: adding, reloading and
// removing tenants takes the registry lock, while the serving path
// resolves a tenant id to its engines through one atomic pointer load
// on an immutable map — no lock, no allocation, safe under any churn.
// Cross-tenant isolation is by construction: a tenant's routes land
// only in its own DAGs, and sharing happens strictly below the
// hash-cons layer, where equal content is indistinguishable.
package vrftab

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"fibcomp/internal/fib"
	"fibcomp/internal/ip6"
	"fibcomp/internal/obs"
	"fibcomp/internal/pdag"
	"fibcomp/internal/shardfib"
)

// MaxTenants bounds the tenant id space: ids are the 16-bit VRF field
// of the lookupd wire protocol.
const MaxTenants = 1 << 16

// Tenant is one VRF's pair of serving engines. Either family may be
// nil-tabled at Add time, but the engines always exist (built from an
// empty table) so the serving path never branches on family presence.
type Tenant struct {
	ID uint16
	V4 *shardfib.FIB
	V6 *shardfib.FIB6
}

// Registry owns the tenant tables of one serving process.
type Registry struct {
	space   *pdag.Space // IPv4
	space6  *pdag.Space // IPv6
	lambda  int
	lambda6 int
	shards  int

	mu   sync.Mutex // admin operations: Add, Remove, Reload, Compact
	tabs atomic.Pointer[map[uint16]*Tenant]
}

// New creates an empty registry whose tenants fold with the given
// leaf-push barriers and shard count (uniform across tenants — the
// merged-root geometry must agree for the shared arena windows to
// compose). Shared mode requires log2(shards) ≤ λ ≤ 16 for both
// families, checked at the first Add.
func New(lambda, lambda6, shards int) *Registry {
	r := &Registry{
		space:   pdag.NewSpace(),
		space6:  pdag.NewSpace(),
		lambda:  lambda,
		lambda6: lambda6,
		shards:  shards,
	}
	empty := map[uint16]*Tenant{}
	r.tabs.Store(&empty)
	// Whoever starts a new arena generation — Compact below, or a
	// tenant's write that ran the current one out of node indices —
	// has every published tenant re-emit into it, under the space lock
	// it already holds. A tenant that does not fit keeps its snapshots
	// of the old generation, and so does every tenant after it: the
	// space stays out of indices (NeedsCompact) until a later write's
	// compaction finds the tables smaller.
	for fam, sp := range [2]*pdag.Space{r.space, r.space6} {
		sp.OnCompact(func() {
			for _, tn := range *r.tabs.Load() {
				if tn.engines()[fam].Republish() != nil {
					return
				}
			}
		})
	}
	return r
}

// engines lists the tenant's engines in the order of the registry's
// spaces: IPv4, IPv6.
func (tn *Tenant) engines() [2]interface{ Republish() error } {
	return [2]interface{ Republish() error }{tn.V4, tn.V6}
}

// Add builds and publishes a tenant from its initial tables (either
// may be nil for an empty family). Adding an existing id fails; use
// Reload to replace a tenant's routes.
func (r *Registry) Add(id uint16, t4 *fib.Table, t6 *ip6.Table) (*Tenant, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	cur := *r.tabs.Load()
	if _, ok := cur[id]; ok {
		return nil, fmt.Errorf("vrftab: tenant %d already exists", id)
	}
	if t4 == nil {
		t4 = &fib.Table{}
	}
	if t6 == nil {
		t6 = &ip6.Table{}
	}
	f4, err := shardfib.BuildShared(r.space, t4, r.lambda, r.shards)
	if err != nil {
		return nil, err
	}
	f6, err := shardfib.Build6Shared(r.space6, t6, r.lambda6, r.shards)
	if err != nil {
		return nil, err
	}
	tn := &Tenant{ID: id, V4: f4, V6: f6}
	next := make(map[uint16]*Tenant, len(cur)+1)
	for k, v := range cur {
		next[k] = v
	}
	next[id] = tn
	r.tabs.Store(&next)
	return tn, nil
}

// Remove unpublishes a tenant and returns its folded references to
// the shared spaces. In-flight lookups that already resolved the
// tenant finish against its final snapshots; new resolutions miss.
func (r *Registry) Remove(id uint16) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	cur := *r.tabs.Load()
	tn, ok := cur[id]
	if !ok {
		return false
	}
	next := make(map[uint16]*Tenant, len(cur))
	for k, v := range cur {
		if k != id {
			next[k] = v
		}
	}
	r.tabs.Store(&next)
	// Empty reloads release the removed tables' share of the spaces;
	// the engines stay alive (empty) for any still-pinned readers.
	tn.V4.Reload(&fib.Table{})
	tn.V6.Reload(&ip6.Table{})
	return true
}

// Tenant resolves a tenant id. Lock-free and allocation-free: one
// atomic load plus one map read on an immutable map.
func (r *Registry) Tenant(id uint16) (*Tenant, bool) {
	tn, ok := (*r.tabs.Load())[id]
	return tn, ok
}

// Resolve is the lookupd VRF resolver: the serving engines of a
// tenant id, or ok=false when the VRF does not exist.
func (r *Registry) Resolve(id uint16) (*shardfib.FIB, *shardfib.FIB6, bool) {
	tn, ok := (*r.tabs.Load())[id]
	if !ok {
		return nil, nil, false
	}
	return tn.V4, tn.V6, true
}

// Tenants reports the current tenants sorted by id.
func (r *Registry) Tenants() []*Tenant {
	cur := *r.tabs.Load()
	out := make([]*Tenant, 0, len(cur))
	for _, tn := range cur {
		out = append(out, tn)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Len reports the tenant count.
func (r *Registry) Len() int { return len(*r.tabs.Load()) }

// Reload replaces one tenant's tables (either may be nil to leave
// that family untouched) — the per-tenant SIGHUP path. Lookups on
// every tenant proceed throughout.
func (r *Registry) Reload(id uint16, t4 *fib.Table, t6 *ip6.Table) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	tn, ok := (*r.tabs.Load())[id]
	if !ok {
		return fmt.Errorf("vrftab: no tenant %d", id)
	}
	if t4 != nil {
		if err := tn.V4.Reload(t4); err != nil {
			return err
		}
	}
	if t6 != nil {
		if err := tn.V6.Reload(t6); err != nil {
			return err
		}
	}
	return nil
}

// SharedBytes reports the resident size of the two families' shared
// serving arenas — the node words and deduplicated root windows all
// tenants' blobs alias, counted once: every word a tenant lookup can
// walk. This is the number the <3×-of-one-tenant memory claim is
// measured on.
func (r *Registry) SharedBytes() int {
	total := 0
	for _, sp := range []*pdag.Space{r.space, r.space6} {
		sp.Lock()
		total += sp.SharedBytes()
		sp.Unlock()
	}
	return total
}

// FoldedInterior reports the shared interior node counts (|S|) of the
// two spaces — the writer-side dedup across all tenants.
func (r *Registry) FoldedInterior() (v4, v6 int) {
	r.space.Lock()
	v4 = r.space.FoldedInterior()
	r.space.Unlock()
	r.space6.Lock()
	v6 = r.space6.FoldedInterior()
	r.space6.Unlock()
	return v4, v6
}

// Compact retires both families' shared arenas and republishes every
// tenant into fresh ones — garbage collection for a registry whose
// arenas accumulated dead words through heavy churn or tenant removal.
// Blobs published before the compaction keep serving from the retired
// arenas until their snapshots drain. It fails when the tenants'
// tables no longer fit one generation's node indices; every tenant
// then keeps serving what it last published.
func (r *Registry) Compact() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, fam := range []struct {
		sp *pdag.Space
		v  int
	}{{r.space, 4}, {r.space6, 6}} {
		fam.sp.Lock()
		fam.sp.Compact()
		full := fam.sp.NeedsCompact()
		fam.sp.Unlock()
		if full {
			return fmt.Errorf("vrftab: the tenants' IPv%d tables do not fit one arena generation", fam.v)
		}
	}
	return nil
}

// RegisterMetrics exposes the registry-wide gauges plus one gauge
// family per tenant, labeled vrf="<id>". Tenants added after
// registration are not retro-labeled (metrics registration is
// startup-time, like the rest of the obs registry).
func (r *Registry) RegisterMetrics(reg *obs.Registry) {
	reg.MustGaugeFunc("vrftab_tenants", "", "Number of VRF tenants currently published.",
		func() uint64 { return uint64(r.Len()) })
	reg.MustGaugeFunc("vrftab_shared_bytes", "", "Resident bytes of both families' shared serving arenas (node words and interned root windows), counted once across all tenants.",
		func() uint64 { return uint64(r.SharedBytes()) })
	reg.MustGaugeFunc("vrftab_folded_interior", `family="4"`, "Shared interior nodes |S| across all tenants.",
		func() uint64 { v4, _ := r.FoldedInterior(); return uint64(v4) })
	reg.MustGaugeFunc("vrftab_folded_interior", `family="6"`, "Shared interior nodes |S| across all tenants.",
		func() uint64 { _, v6 := r.FoldedInterior(); return uint64(v6) })
	for _, tn := range r.Tenants() {
		tn := tn
		labels := fmt.Sprintf("vrf=%q", fmt.Sprint(tn.ID))
		reg.MustGaugeFunc("vrftab_tenant_blob_bytes", labels+`,family="4"`,
			"Per-tenant attributable serving bytes: the published root windows before interning (what is resident is counted once, in vrftab_shared_bytes).",
			func() uint64 { return uint64(tn.V4.SizeBytes()) })
		reg.MustGaugeFunc("vrftab_tenant_blob_bytes", labels+`,family="6"`, "",
			func() uint64 { return uint64(tn.V6.SizeBytes()) })
	}
}
