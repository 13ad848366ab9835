// Command fibreplay replays a BGP-like update feed against a
// compressed FIB, reporting update throughput and verifying that the
// incrementally maintained prefix DAG stays forwarding-equivalent to
// its control FIB — the Fig 5 experiment as a reusable tool.
//
// -stream pushes the feed at a *live* fibserve (its ribd -updates
// listener) instead of replaying offline, measures the convergence
// lag — the time from the last update sent to the server's sync
// barrier confirming everything is applied and published — and then
// sweeps the server's UDP lookup port against the offline-replayed
// control FIB, proving the live engine converged to the bit-identical
// table. The stream rides the reconnecting ribd.Feeder: connection
// loss, server resets and partitions are retried with jittered
// backoff under the -peer session name; -resume continues each
// reconnect from the server's accepted-update cursor (the
// graceful-restart fast path), while the default replays the feed
// from the start and lets the server's end-of-RIB sweep reconcile.
//
// -6 runs the IPv6 twin end-to-end: -fib names an IPv6 table, the
// synthetic feed is v6 BGP-like churn, the offline replay drives the
// ip6 prefix DAG, and the -stream differential sweep speaks the
// AF-tagged v6 datagram framing at the server's lookup port.
//
// -vrf scopes a -stream run to one tenant of a multi-tenant server:
// the feeder session opens with "hello <peer> vrf <id>" so the whole
// feed lands in that VRF's plane, and the verification sweep speaks
// the VRF-tagged datagram framing, proving that tenant — and only
// that tenant — converged to the control replay.
//
//	fibgen -profile taz > taz.fib
//	fibreplay -fib taz.fib -synth 100000          # synthesize + replay
//	fibreplay -fib taz.fib -feed updates.log      # replay a saved feed
//	fibreplay -fib taz.fib -synth 5000 -emit feed.log   # save a feed
//	fibreplay -fib taz.fib -feed feed.log -stream 127.0.0.1:7001 -server 127.0.0.1:7000
//	fibreplay -6 -fib t6.fib -synth 5000 -stream 127.0.0.1:7001 -server 127.0.0.1:7000
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"time"

	"fibcomp/internal/fib"
	"fibcomp/internal/gen"
	"fibcomp/internal/ip6"
	"fibcomp/internal/lookupd"
	"fibcomp/internal/pdag"
	"fibcomp/internal/ribd"
)

func main() {
	var (
		fibPath = flag.String("fib", "", "FIB file (text format); required")
		v6      = flag.Bool("6", false, "IPv6 mode: -fib is an IPv6 table, the feed is v6 churn, verification speaks the AF-tagged framing")
		feed    = flag.String("feed", "", "update feed to replay (default: synthesize)")
		synth   = flag.Int("synth", 10000, "number of synthetic BGP-like updates")
		emit    = flag.String("emit", "", "write the synthetic feed here instead of replaying")
		lambda  = flag.Int("lambda", 11, "leaf-push barrier (IPv4 mode)")
		lambda6 = flag.Int("lambda6", 16, "leaf-push barrier (IPv6 mode)")
		seed    = flag.Int64("seed", 1, "synthesis seed")
		verify  = flag.Int("verify", 100000, "post-replay verification probes (0 to skip)")
		stream  = flag.String("stream", "", "stream the feed at a live fibserve's -updates address instead of replaying offline")
		server  = flag.String("server", "", "-stream: the server's UDP lookup address, for the differential verification sweep")
		peer    = flag.String("peer", "fibreplay", "-stream: session name; the graceful-restart identity reconnects resume under")
		resume  = flag.Bool("resume", false, "-stream: resume reconnects from the server's accepted cursor instead of a full restart replay")
		pace    = flag.Int("pace", 0, "-stream: cap the send rate, updates/s (0 = full speed)")
		retries = flag.Int("retries", ribd.DefaultFeederRetries, "-stream: consecutive no-progress reconnect attempts before giving up")
		vrf     = flag.Int("vrf", -1, "-stream: scope the session and the verification sweep to this VRF tenant id on a multi-tenant server")
	)
	flag.Parse()
	if *fibPath == "" {
		fatal(fmt.Errorf("-fib is required"))
	}
	if *vrf > 0xFFFF {
		fatal(fmt.Errorf("-vrf %d out of [0,65535]", *vrf))
	}
	fo := ribd.FeederOptions{
		Peer:    *peer,
		Resume:  *resume,
		Pace:    *pace,
		Retries: *retries,
		Seed:    *seed,
	}
	if *vrf >= 0 {
		fo.VRFSet, fo.VRF = true, uint16(*vrf)
	}
	if *v6 {
		replay6(*fibPath, *feed, *emit, *stream, *server, *synth, *lambda6, *verify, *seed, fo)
		return
	}
	f, err := os.Open(*fibPath)
	if err != nil {
		fatal(err)
	}
	table, err := fib.Read(f)
	f.Close()
	if err != nil {
		fatal(err)
	}

	var updates []gen.Update
	if *feed != "" {
		uf, err := os.Open(*feed)
		if err != nil {
			fatal(err)
		}
		updates, err = gen.ReadUpdates(uf)
		uf.Close()
		if err != nil {
			fatal(err)
		}
	} else {
		rng := rand.New(rand.NewSource(*seed))
		updates = gen.BGPUpdates(rng, table, *synth)
	}
	if *emit != "" {
		out, err := os.Create(*emit)
		if err != nil {
			fatal(err)
		}
		if err := gen.WriteUpdates(out, updates); err != nil {
			fatal(err)
		}
		if err := out.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("fibreplay: wrote %d updates to %s\n", len(updates), *emit)
		return
	}

	if *stream != "" {
		streamFeed(table, updates, *stream, *server, *lambda, *verify, *seed, fo)
		return
	}

	d, err := pdag.Build(table, *lambda)
	if err != nil {
		fatal(err)
	}
	before := d.ModelBytes()
	start := time.Now()
	applied, withdrawn := 0, 0
	for _, u := range updates {
		if u.Withdraw {
			if d.Delete(u.Addr, u.Len) {
				withdrawn++
			}
		} else {
			if err := d.Set(u.Addr, u.Len, u.NextHop); err != nil {
				fatal(err)
			}
			applied++
		}
	}
	dur := time.Since(start)
	fmt.Printf("fibreplay: %d announces + %d withdraws in %v (%.0f updates/s, mean %.2f µs)\n",
		applied, withdrawn, dur.Round(time.Millisecond),
		float64(len(updates))/dur.Seconds(),
		float64(dur.Microseconds())/float64(len(updates)))
	fmt.Printf("fibreplay: DAG %0.1f KB before, %0.1f KB after (λ=%d)\n",
		float64(before)/1024, float64(d.ModelBytes())/1024, *lambda)

	if *verify > 0 {
		rng := rand.New(rand.NewSource(*seed + 1))
		for i := 0; i < *verify; i++ {
			addr := rng.Uint32()
			if d.Lookup(addr) != d.Control().Lookup(addr) {
				fatal(fmt.Errorf("divergence from control FIB at %08x", addr))
			}
		}
		fmt.Printf("fibreplay: verified against control FIB on %d probes\n", *verify)
	}
}

// streamFeed pushes the update feed at a live server's ribd listener
// through the reconnecting Feeder — connection loss, server resets
// and partitions are retried with jittered backoff, resuming from the
// server's accepted cursor in -resume mode — measures convergence,
// and (with -server set and verify > 0) proves the post-feed engine
// bit-identical to the offline control replay by a differential
// lookup sweep over the server's UDP port.
func streamFeed(table *fib.Table, updates []gen.Update, stream, server string, lambda, verify int, seed int64, fo ribd.FeederOptions) {
	f, err := ribd.NewFeeder(stream, fo)
	if err != nil {
		fatal(err)
	}
	t0 := time.Now()
	if err := f.Run(updates); err != nil {
		fatal(err)
	}
	total := time.Since(t0)
	st := f.Stats()
	fmt.Printf("fibreplay: streamed %d updates in %v (%.0f updates/s, %d sessions, %d resets, %d resumed), convergence lag %v\n",
		len(updates), total.Round(time.Millisecond),
		float64(len(updates))/total.Seconds(), st.Attempts, st.Resets, st.Resumed,
		f.LastLag().Round(time.Microsecond))
	fmt.Printf("fibreplay: server: %s\n", f.LastReply())

	if verify <= 0 {
		return
	}
	if server == "" {
		fmt.Println("fibreplay: no -server lookup address; skipping the verification sweep")
		return
	}
	// Offline control replay: the same feed applied to a flat control
	// DAG (itself pinned to the tabular FIB by the replay tests).
	d, err := pdag.Build(table, lambda)
	if err != nil {
		fatal(err)
	}
	for _, u := range updates {
		if u.Withdraw {
			d.Delete(u.Addr, u.Len)
		} else if err := d.Set(u.Addr, u.Len, u.NextHop); err != nil {
			fatal(err)
		}
	}
	c, err := lookupd.Dial(server)
	if err != nil {
		fatal(err)
	}
	defer c.Close()
	rng := rand.New(rand.NewSource(seed + 1))
	batch := make([]uint32, lookupd.MaxBatch)
	for done := 0; done < verify; {
		n := min(len(batch), verify-done)
		for i := 0; i < n; i++ {
			batch[i] = rng.Uint32()
		}
		var labels []uint32
		if fo.VRFSet {
			labels, err = c.LookupBatchVRF(fo.VRF, batch[:n])
		} else {
			labels, err = c.LookupBatch(batch[:n])
		}
		if err != nil {
			fatal(err)
		}
		for i, label := range labels {
			if want := d.Lookup(batch[i]); label != want {
				fatal(fmt.Errorf("live engine diverges from control replay at %08x: %d != %d",
					batch[i], label, want))
			}
		}
		done += n
	}
	fmt.Printf("fibreplay: live engine bit-identical to the offline control replay on %d probes\n", verify)
}

// replay6 is the IPv6 mode: synthesize or load a v6 feed, then either
// replay it offline against the ip6 prefix DAG (verifying against the
// control FIB) or stream it at a live dual-stack server and prove the
// served engine bit-identical to the offline control replay over the
// AF-tagged lookup framing.
func replay6(fibPath, feed, emit, stream, server string, synth, lambda, verify int, seed int64, fo ribd.FeederOptions) {
	f, err := os.Open(fibPath)
	if err != nil {
		fatal(err)
	}
	table, err := ip6.Read(f)
	f.Close()
	if err != nil {
		fatal(err)
	}

	var updates []gen.Update
	if feed != "" {
		uf, err := os.Open(feed)
		if err != nil {
			fatal(err)
		}
		updates, err = gen.ReadUpdates(uf)
		uf.Close()
		if err != nil {
			fatal(err)
		}
		for i, u := range updates {
			if !u.V6 {
				fatal(fmt.Errorf("feed %s: update %d is IPv4; -6 replays v6 feeds", feed, i+1))
			}
		}
	} else {
		rng := rand.New(rand.NewSource(seed))
		updates = gen.BGPUpdates6(rng, table, synth)
	}
	if emit != "" {
		out, err := os.Create(emit)
		if err != nil {
			fatal(err)
		}
		if err := gen.WriteUpdates(out, updates); err != nil {
			fatal(err)
		}
		if err := out.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("fibreplay: wrote %d IPv6 updates to %s\n", len(updates), emit)
		return
	}

	// The offline control replay both modes verify against.
	control := func() *ip6.DAG {
		d, err := ip6.Build(table, lambda)
		if err != nil {
			fatal(err)
		}
		for _, u := range updates {
			if u.Withdraw {
				d.Delete(u.Addr6, u.Len)
			} else if err := d.Set(u.Addr6, u.Len, u.NextHop); err != nil {
				fatal(err)
			}
		}
		return d
	}

	if stream != "" {
		f, err := ribd.NewFeeder(stream, fo)
		if err != nil {
			fatal(err)
		}
		t0 := time.Now()
		if err := f.Run(updates); err != nil {
			fatal(err)
		}
		total := time.Since(t0)
		st := f.Stats()
		fmt.Printf("fibreplay: streamed %d IPv6 updates in %v (%.0f updates/s, %d sessions, %d resets, %d resumed), convergence lag %v\n",
			len(updates), total.Round(time.Millisecond),
			float64(len(updates))/total.Seconds(), st.Attempts, st.Resets, st.Resumed,
			f.LastLag().Round(time.Microsecond))
		fmt.Printf("fibreplay: server: %s\n", f.LastReply())
		if verify <= 0 {
			return
		}
		if server == "" {
			fmt.Println("fibreplay: no -server lookup address; skipping the verification sweep")
			return
		}
		d := control()
		c, err := lookupd.Dial(server)
		if err != nil {
			fatal(err)
		}
		defer c.Close()
		rng := rand.New(rand.NewSource(seed + 1))
		batch := make([]ip6.Addr, lookupd.MaxBatch)
		for done := 0; done < verify; {
			n := min(len(batch), verify-done)
			for i := 0; i < n; i++ {
				batch[i] = ip6.Addr{Hi: 0x2000000000000000 | rng.Uint64()>>3, Lo: rng.Uint64()}
			}
			var labels []uint32
			if fo.VRFSet {
				labels, err = c.LookupBatch6VRF(fo.VRF, batch[:n])
			} else {
				labels, err = c.LookupBatch6(batch[:n])
			}
			if err != nil {
				fatal(err)
			}
			for i, label := range labels {
				if want := d.Lookup(batch[i]); label != want {
					fatal(fmt.Errorf("live v6 engine diverges from control replay at %s: %d != %d",
						batch[i], label, want))
				}
			}
			done += n
		}
		fmt.Printf("fibreplay: live v6 engine bit-identical to the offline control replay on %d probes\n", verify)
		return
	}

	d, err := ip6.Build(table, lambda)
	if err != nil {
		fatal(err)
	}
	before := d.ModelBytes()
	start := time.Now()
	applied, withdrawn := 0, 0
	for _, u := range updates {
		if u.Withdraw {
			if d.Delete(u.Addr6, u.Len) {
				withdrawn++
			}
		} else {
			if err := d.Set(u.Addr6, u.Len, u.NextHop); err != nil {
				fatal(err)
			}
			applied++
		}
	}
	dur := time.Since(start)
	fmt.Printf("fibreplay: %d v6 announces + %d withdraws in %v (%.0f updates/s, mean %.2f µs)\n",
		applied, withdrawn, dur.Round(time.Millisecond),
		float64(len(updates))/dur.Seconds(),
		float64(dur.Microseconds())/float64(len(updates)))
	fmt.Printf("fibreplay: v6 DAG %0.1f KB before, %0.1f KB after (λ=%d)\n",
		float64(before)/1024, float64(d.ModelBytes())/1024, lambda)
	if verify > 0 {
		// Differential sweep: the mutated DAG and its serialized blob
		// (scalar and batch-lane walks) must agree with the control FIB
		// on every probe. Barriers past the serializable bound skip the
		// blob legs.
		rng := rand.New(rand.NewSource(seed + 1))
		probes := ip6.RandomAddrs(rng, verify)
		b, serr := d.Serialize()
		var dst []uint32
		if serr == nil {
			dst = b.LookupBatch(probes)
		}
		for i, a := range probes {
			want := d.Control().Lookup(a)
			if d.Lookup(a) != want {
				fatal(fmt.Errorf("divergence from control FIB at %s", a))
			}
			if serr != nil {
				continue
			}
			if got := b.Lookup(a); got != want {
				fatal(fmt.Errorf("blob diverges from control FIB at %s: %d != %d", a, got, want))
			}
			if dst[i] != want {
				fatal(fmt.Errorf("batch lanes diverge from control FIB at %s: %d, want %d", a, dst[i], want))
			}
		}
		legs := "DAG"
		if serr == nil {
			legs = "DAG and blob (scalar + lanes)"
			fmt.Printf("fibreplay: blob: %.1f KB\n", float64(b.SizeBytes())/1024)
		}
		fmt.Printf("fibreplay: verified %s against control FIB on %d probes\n", legs, verify)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "fibreplay: %v\n", err)
	os.Exit(1)
}
