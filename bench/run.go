package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"time"
)

const (
	setupRuns = 4                      // server starts per run; setup_s is their median ...
	setupCap  = 3 * time.Second        // ... but after two, no further start once this much went into them
	warmUp    = 500 * time.Millisecond // lookups before the first window, unmeasured
	markerEnd = 2 * time.Second        // how long past its window a lookup loop waits for unseen markers

	// busyServer is the share of the lookup window the server must be on
	// its CPU for the window to count as a measurement of the server.
	busyServer = 0.85
)

// run is one workload in progress.
type run struct {
	e     *env
	sp    *spec
	in    *inputs
	epoch time.Time // every clock reading of the run counts from here
	yard  *yardstick
	srv   *server
	w     *wire
	s     *session
	mk    *markers
	res   *result

	look      *lookStats
	feed      *burstStats
	late      []float64
	updating  time.Duration         // how long updates flowed between scrape 0 and 1
	scrape    [3]map[string]float64 // before the workload's window, after it, at the end
	sweepBad  int64
	sweepSent int64
	// What collect works out and the per-layer raw.* and tail metrics repeat.
	raw                     map[string]float64
	srvBusy, genBusy        float64 // share of the measured window each side was on its CPU
	rttP90, rttP99, convP90 float64
	syncP50                 float64
}

func runWorkload(e *env, sp *spec, seed int64, seconds, scale float64, traced bool, spansOut string) (*result, error) {
	began := time.Now()
	in, err := generate(e, sp, seed, scale)
	if err != nil {
		return nil, err
	}
	r := &run{e: e, sp: sp, in: in, epoch: began, raw: map[string]float64{}, res: &result{
		Workload: sp.name, Seed: seed, Prefixes: in.prefixes,
		Metrics: map[string]value{}, Spread: map[string]float64{}, Samples: map[string]int{},
		Slices: map[string][]float64{},
		Timing: map[string]float64{},
	}}
	if e.pinned {
		r.yard = startYardstick(e.srvCPU, r.epoch)
	} else {
		r.res.note("one CPU: no yardstick, the scaled metrics equal the raw ones")
	}
	defer func() {
		if r.yard != nil {
			r.yard.close()
		}
		if r.w != nil {
			r.w.conn.Close()
		}
		if r.s != nil {
			r.s.conn.Close()
		}
		if r.srv != nil {
			r.srv.stop()
		}
	}()

	// Set-up, several times: exec of fibserve -> first correct reply.
	var setups, rawSetups []float64
	r.res.Timing["generate_s"] = time.Since(began).Seconds()
	for i, t := 0, time.Now(); i < setupRuns && (i < 2 || time.Since(t) < setupCap); i++ {
		if r.srv != nil {
			r.srv.stop()
		}
		t0 := r.now()
		if r.srv, err = e.start(in.serverArgs(), in.f4); err != nil {
			return nil, err
		}
		if err := r.waitReady(); err != nil {
			return nil, err
		}
		t1 := r.now()
		rawSetups = append(rawSetups, float64(t1-t0)/1e9)
		setups = append(setups, float64(t1-t0)/1e9*r.yard.speed(t0, t1))
	}
	if e.pinned && !r.srv.confined() {
		r.res.note("the server could not be confined to CPU %d", e.srvCPU)
	}

	// The workload's own window, and the churn tail after it unless the
	// workload churns throughout.
	total := time.Duration(seconds * float64(time.Second))
	tail := time.Duration(0)
	if !sp.churn {
		tail = time.Duration(float64(total) * tailShare)
	}
	main := total - tail
	r.mk = &markers{due: make([]int64, int((total+markerEnd)/churnTick)+64)}
	if r.w, err = dialWire(in, r.srv.listen, r.mk, r.epoch); err != nil {
		return nil, err
	}
	if r.s, err = dialSession(in, r.srv.update); err != nil {
		return nil, err
	}
	// Install marker 0 before anything is measured, so the probed /32
	// (/64) always answers with a marker label.
	r.mk.due[0] = r.w.now()
	if err := r.s.sync(r.s.marker(nil)); err != nil {
		return nil, err
	}
	r.mk.sent = 1
	// Loading leaves garbage behind, as much as the tables themselves
	// with 64 tenants. Whether the collector had already freed it when
	// the windows began decided whether updates were served from freed
	// memory or from fresh pages (80-120 against 230-290 kups on vrf-64,
	// by the run). One collection now ends set-up the same way every run.
	if err := r.srv.collect(); err != nil {
		return nil, err
	}
	if _, err := r.w.run(warmUp, 0, markerEnd, true); err != nil {
		return nil, err
	}
	r.mk.lags = nil

	if err := r.snap(0); err != nil {
		return nil, err
	}
	if sp.feed {
		if err := r.feedWindow(main); err != nil {
			return nil, err
		}
		if err := r.snap(1); err != nil {
			return nil, err
		}
		if err := r.lookWindow(0, tail); err != nil {
			return nil, err
		}
	} else {
		if err := r.lookWindow(main, tail); err != nil {
			return nil, err
		}
		if err := r.snap(1); err != nil {
			return nil, err
		}
	}
	if err := r.sweep(scaled(sweepProbes, scale, 4000)); err != nil {
		return nil, err
	}
	if err := r.snap(2); err != nil {
		return nil, err
	}
	r.collect(setups, rawSetups)
	r.res.Timing["run_s"] = time.Since(began).Seconds()
	if traced {
		if err := r.traced(spansOut); err != nil {
			return nil, err
		}
	}
	return r.res, nil
}

func (r *run) now() int64 { return int64(time.Since(r.epoch)) }

// waitReady polls one known key until the server gives the control's
// answer: the first correct reply.
func (r *run) waitReady() error {
	in := r.in
	w, err := dialWire(in, r.srv.listen, nil, time.Now())
	if err != nil {
		return err
	}
	defer w.conn.Close()
	tn := len(in.tenants) - 1 // the last tenant loaded, when there are tenants
	deadline := time.Now().Add(120 * time.Second)
	for time.Now().Before(deadline) {
		if r.srv.exited() {
			return fmt.Errorf("fibserve exited during set-up:\n%s", r.srv.log.String())
		}
		got, err := w.ask(tn, in.pool.keys[:in.asz], 2*time.Millisecond)
		if err == nil && bytes.Equal(got, in.pool.exp[:4]) {
			return nil
		}
		if err == nil {
			return fmt.Errorf("first reply is wrong: label %x, control says %x", got, in.pool.exp[:4])
		}
		time.Sleep(time.Millisecond)
	}
	return fmt.Errorf("fibserve gave no reply in 120 s:\n%s", r.srv.log.String())
}

func (r *run) snap(i int) (err error) {
	r.scrape[i], err = r.srv.scrape()
	return err
}

// lookWindow runs the closed-loop lookups for main and then tail, and
// beside them the session's open loop of BGP-like updates and markers:
// beside all of main on a churn workload (which has no tail), only in
// the tail otherwise. It ends with a sync, so everything written is
// applied before the next phase.
func (r *run) lookWindow(main, tail time.Duration) error {
	feedAfter, feedFor := main, tail
	if r.sp.churn {
		feedAfter, feedFor = 0, main
	}
	if !r.sp.feed {
		r.updating = feedFor
	}
	// The session's open loop is driven from the lookup loop itself.
	c := &churn{s: r.s, mk: r.mk, start: r.w.now() + int64(feedAfter), ticks: int(feedFor / churnTick), rate: r.sp.churnRate()}
	r.w.cpu, r.w.churn = r.readCPU, c
	// Until the first update is written every label is fixed, and every
	// reply is compared byte for byte.
	st, err := r.w.run(main, tail, markerEnd, !r.sp.churn && !r.sp.feed)
	r.w.cpu, r.w.churn = nil, nil
	if err != nil {
		return err
	}
	if c.err != nil {
		return c.err
	}
	r.look, r.late = st, c.late
	return r.s.sync(nil)
}

// readCPU reads the clocks a slice boundary records. The generator's
// busy time is its CPU time less what the lookup loop spent polling an
// empty socket.
func (r *run) readCPU() cpuMark {
	return cpuMark{srv: r.srv.cpuSeconds(), gen: selfCPUSeconds() - r.w.spun.Seconds(), steal: stealSeconds()}
}

func (r *run) feedWindow(dur time.Duration) (err error) {
	r.updating = dur
	r.feed, err = r.s.bursts(dur, r.epoch, r.readCPU)
	return err
}

// sweep is the differential check after the final sync: n probes, half
// from the key pool and half inside prefixes the session announced or
// withdrew, against the control trie that replayed exactly the updates
// written.
func (r *run) sweep(n int) error {
	in := r.in
	if err := r.s.sync(nil); err != nil {
		return err
	}
	r.s.replay()
	last := in.markerUp
	last.NextHop = markerLabel(r.s.markers - 1)
	in.ctl.apply(last)

	per := 256
	if in.sp.v6 {
		per = 64
	}
	keys := make([]byte, 0, per*in.asz)
	for done := 0; done < n; done += per {
		keys = keys[:0]
		for i := 0; i < per; i++ {
			if (done+i)%2 == 0 || len(r.s.ranges) == 0 {
				j := in.rng.Intn(in.pool.n)
				keys = append(keys, in.pool.keys[in.asz*j:in.asz*(j+1)]...)
				continue
			}
			u := r.s.sentSample(in.rng.Int())
			if u.V6 {
				m := maskBelow6(u.Len)
				keys = binary.BigEndian.AppendUint64(keys, u.Addr6.Hi|in.rng.Uint64()&m[0])
				keys = binary.BigEndian.AppendUint64(keys, u.Addr6.Lo|in.rng.Uint64()&m[1])
			} else {
				host := uint32(math.MaxUint32)
				if u.Len > 0 {
					host = 1<<uint(32-u.Len) - 1
				}
				keys = binary.BigEndian.AppendUint32(keys, u.Addr|in.rng.Uint32()&host)
			}
		}
		got, err := r.w.ask(0, keys, replyWait)
		r.sweepSent++
		if err != nil {
			// Replies carry no identifier and are matched by order: a
			// late one must not be taken for the next request's answer.
			r.sweepBad++
			r.w.flush()
			continue
		}
		for i := 0; i < per; i++ {
			if binary.BigEndian.Uint32(got[4*i:]) != in.ctl.lookup(keys[in.asz*i:]) {
				r.sweepBad++
				if r.look.firstWrong == "" {
					r.look.firstWrong = fmt.Sprintf("sweep: key %x answered %d, control says %d",
						keys[in.asz*i:in.asz*(i+1)], binary.BigEndian.Uint32(got[4*i:]), in.ctl.lookup(keys[in.asz*i:]))
				}
				break
			}
		}
	}
	return nil
}

// maskBelow6 is the host-bit mask of a /plen IPv6 prefix as two words.
func maskBelow6(plen int) [2]uint64 {
	switch {
	case plen <= 0:
		return [2]uint64{math.MaxUint64, math.MaxUint64}
	case plen < 64:
		return [2]uint64{1<<uint(64-plen) - 1, math.MaxUint64}
	case plen < 128:
		return [2]uint64{0, 1<<uint(128-plen) - 1}
	}
	return [2]uint64{}
}

// collect turns what the windows recorded into the end-to-end metrics.
func (r *run) collect(setups, rawSetups []float64) {
	res, st, fd := r.res, r.look, r.feed
	set := func(name string, v float64) {
		for _, m := range endToEnd {
			if m.name == name {
				res.Metrics[name] = value{v, m.unit}
			}
		}
	}
	set("setup_s", median(setups))
	r.raw["setup_s"] = median(rawSetups)

	// The workload's own window, slice by slice: the bursts of a feed
	// workload, the measured lookups of any other. A slice during which
	// the hypervisor ran something else on one of the guest's CPUs (steal
	// time, which the kernel counts in 10 ms ticks) measures the host, not
	// the server: such slices, and the markers that completed in them,
	// are set aside. Each remaining slice is scaled by the speed the
	// yardstick found the server's CPU to have during it, and throughput
	// and CPU per operation are totals over those slices, so that a
	// collection or a publish that recurs every second weighs what it
	// costs.
	marks, ops := st.marks, make([]float64, 0, slices)
	for i := 0; i < st.mainSlices; i++ {
		ops = append(ops, float64(st.perSlice[i]))
	}
	if r.sp.feed {
		marks, ops = fd.marks, fd.sliceUpdates
	}
	if len(marks) > len(ops)+1 {
		marks = marks[:len(ops)+1]
	}
	quiet := quietSlices(marks)
	var sumOps, wall, scaledWall, cpu, scaledCPU, gen float64
	var perSliceTp, perSliceCPU, speeds []float64
	for i := 0; i+1 < len(marks); i++ {
		if ops[i] == 0 || !quiet[i] {
			continue
		}
		sec := float64(marks[i+1].at-marks[i].at) / 1e9
		c := marks[i+1].srv - marks[i].srv
		sp := r.yard.speed(marks[i].at, marks[i+1].at)
		sumOps += ops[i]
		wall += sec
		scaledWall += sec * sp
		cpu += c
		scaledCPU += c * sp
		gen += marks[i+1].gen - marks[i].gen
		speeds = append(speeds, sp)
		perSliceTp = append(perSliceTp, ops[i]/(sec*sp)/1e6)
		perSliceCPU = append(perSliceCPU, c*sp/ops[i]*1e9)
	}
	set("throughput_mops", ratio(sumOps, scaledWall)/1e6)
	set("srv_cpu_ns_per_op", ratio(scaledCPU, sumOps)*1e9)
	r.raw["throughput_mops"] = ratio(sumOps, wall) / 1e6
	r.raw["srv_cpu_ns_per_op"] = ratio(cpu, sumOps) * 1e9
	r.raw["speed"] = median(speeds)
	r.srvBusy, r.genBusy = ratio(cpu, wall), ratio(gen, wall)
	for name, vs := range map[string][]float64{"throughput_mops": perSliceTp, "srv_cpu_ns_per_op": perSliceCPU, "speed": speeds} {
		res.Slices[name] = vs
		res.Spread[name] = summarize(vs).spread
	}
	res.Samples["slices_quiet"], res.Samples["slices"] = len(speeds), len(ops)

	// Round trips: of the measured lookups, or on a feed workload of the
	// tail's. Percentiles of the samples of all quiet slices together (a
	// stall that recurs is in every run's tail), each scaled like its
	// slice.
	lookQuiet := quietSlices(st.marks)
	rttQuiet := quiet
	if r.sp.feed {
		rttQuiet = lookQuiet
	}
	var rtt, rawRTT []float64
	for i := 0; i < len(rttQuiet); i++ {
		if !rttQuiet[i] {
			continue
		}
		sp := r.yard.speed(st.marks[i].at, st.marks[i+1].at)
		for _, us := range st.rtt[i] {
			rtt, rawRTT = append(rtt, us*sp), append(rawRTT, us)
		}
	}
	set("wire_rtt_p50_us", median(rtt))
	r.raw["wire_rtt_p50_us"] = median(rawRTT)
	r.rttP90, r.rttP99 = percentile(rtt, 0.9), percentile(rtt, 0.99)
	res.Samples["wire_rtt_p50_us"] = len(rtt)

	// A marker's convergence lag has two parts: the wait for the plane
	// to close the batch it is in, which the plane's pacing timer sets, and
	// the processing of that batch, which the CPU sets and which the
	// freshest marker of the batch measures. Only the second is scaled.
	var conv, rawConv []float64
	for _, l := range quietLags(r.mk.lags, st.marks, lookQuiet) {
		sp := r.yard.speed(l.at-int64(l.ms*1e6), l.at)
		conv, rawConv = append(conv, l.ms-l.proc+l.proc*sp), append(rawConv, l.ms)
	}
	set("conv_lag_p50_ms", median(conv))
	r.raw["conv_lag_p50_ms"] = median(rawConv)
	r.convP90 = percentile(conv, 0.9)
	res.Slices["conv_lag_ms"] = conv
	res.Samples["conv_lag_p50_ms"] = len(conv)
	if fd != nil {
		var syncs []float64
		for _, l := range quietLags(fd.lags, fd.marks, quietSlices(fd.marks)) {
			syncs = append(syncs, l.ms)
		}
		r.syncP50 = median(syncs)
	}

	// Size: the serving bytes of the table as loaded, from the server's
	// own gauges, and the kernel's high-water mark of the whole run.
	end := r.scrape[2]
	set("fib_bytes", servingBytes(r.scrape[0]))
	set("rss_peak_mb", r.srv.rssPeakMB())

	// Failures against operations attempted. A wrong label anywhere, an
	// unseen marker or a server-side error fails the run outright.
	unseen := int64(r.mk.sent - r.mk.seen)
	errs := sumPrefix(end, "ribd_rejected_total") + sumPrefix(end, "ribd_apply_errors_total") +
		sumPrefix(end, "lookupd_drops_total") + sumPrefix(end, "lookupd_errors_total")
	res.Attempted = st.datagrams + r.sweepSent + r.s.lines + r.s.syncs
	res.Failed = st.unanswered + st.wrong + r.sweepBad + unseen + int64(errs)
	res.Correct = res.Failed == 0
	if st.firstWrong != "" {
		res.note("first failure: %s", st.firstWrong)
	}
	if unseen > 0 {
		res.note("%d marker(s) written were never seen in a reply", unseen)
	}
	if r.s.wrapped > 0 && !r.sp.feed {
		// A feed workload laps by design, on a table made for it.
		res.note("the generated feed ran out and restarted %d time(s)", r.s.wrapped)
	}
	// The generator, not the server, was the busy side: throughput and
	// round trips then measure the generator.
	if r.e.pinned && r.genBusy > r.srvBusy && r.srvBusy < busyServer {
		res.note("invalid as a server measurement: over the measured window the server was busy %.2f of the time, the generator %.2f",
			r.srvBusy, r.genBusy)
	}
	res.Slices["yard_at"], res.Slices["yard_ns"] = r.yard.samples()
}

// quietSlices says, for each slice the marks bracket, whether the
// hypervisor left the guest's CPUs alone throughout it. When fewer than
// a quarter of the slices are quiet the quarter with the least steal
// counts as quiet, so that a run on a badly disturbed host still reports.
func quietSlices(marks []cpuMark) []bool {
	n := len(marks) - 1
	if n < 1 {
		return nil
	}
	steal := make([]float64, n)
	for i := range steal {
		steal[i] = marks[i+1].steal - marks[i].steal
	}
	limit := math.Max(0, percentile(steal, 0.25))
	quiet := make([]bool, n)
	for i, s := range steal {
		quiet[i] = s <= limit
	}
	return quiet
}

// quietLags keeps the lags observed in a quiet slice that follows a
// quiet slice (a lag spans the slice before it); all of them when that
// would leave fewer than a quarter.
func quietLags(lags []lag, marks []cpuMark, quiet []bool) []lag {
	var out []lag
	for _, l := range lags {
		i := 0
		for i+1 < len(marks) && marks[i+1].at <= l.at {
			i++
		}
		if i < len(quiet) && quiet[i] && (i == 0 || quiet[i-1]) {
			out = append(out, l)
		}
	}
	if 4*len(out) < len(lags) {
		return lags
	}
	return out
}

func count(bs []bool) int {
	n := 0
	for _, b := range bs {
		if b {
			n++
		}
	}
	return n
}

// servingBytes sums the resident serving bytes a scrape reports: the
// default engines' blobs and the tenants' shared and unique arenas.
func servingBytes(m map[string]float64) float64 {
	return sumPrefix(m, "shardfib_blob_bytes") + m["vrftab_shared_bytes"] + m["vrftab_unique_bytes"]
}
