package main

import (
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The yardstick is how the benchmark tells the speed of the server's CPU
// from the speed of the server. On a shared host the same code runs a
// third slower for seconds or minutes at a time when a neighbour's
// virtual CPU is busy on the other hardware thread of the core; nothing
// in the guest says so, and no window is long enough to average it out.
// So a thread of the benchmark, confined to the server's CPU, runs a
// fixed register-only loop for about a millisecond every yardEvery and
// records the CPU time (not wall time: it shares the CPU with the server)
// an iteration took. Every rate and duration the server's CPU speed sets
// is then reported as it would have been at yardNominal ns per iteration.
const (
	yardIters = 300000
	yardEvery = 50 * time.Millisecond
	// yardNominal is what one iteration takes, beside a busy server, on
	// the host this benchmark was calibrated on (a 2.1 GHz Xeon guest)
	// when the core's other hardware thread is idle; a busy one makes it
	// 4.6-4.9. It only fixes the scale of the scaled numbers: parent and
	// change are scaled alike.
	yardNominal = 3.05 // ns
)

type yardstick struct {
	epoch time.Time
	stop  chan struct{}
	done  chan struct{}

	mu sync.Mutex
	at []int64   // ns since epoch at which a sample ended
	ns []float64 // CPU ns per iteration
}

var yardSink uint64

// startYardstick starts the sampling thread on the given CPU.
func startYardstick(cpu int, epoch time.Time) *yardstick {
	y := &yardstick{epoch: epoch, stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(y.done)
		// The thread is not unlocked: it keeps its affinity, so the
		// runtime ends it with this goroutine and no other goroutine of the
		// generator ever runs on the server's CPU.
		runtime.LockOSThread()
		if setAffinity(0, cpu) != nil {
			return
		}
		tick := time.NewTicker(yardEvery)
		defer tick.Stop()
		for {
			select {
			case <-y.stop:
				return
			case <-tick.C:
			}
			t0 := threadCPU()
			yardSink += yardLoop(yardIters)
			ns := float64(threadCPU()-t0) / yardIters
			y.mu.Lock()
			y.at = append(y.at, int64(time.Since(y.epoch)))
			y.ns = append(y.ns, ns)
			y.mu.Unlock()
		}
	}()
	return y
}

func (y *yardstick) close() {
	close(y.stop)
	<-y.done
}

// yardLoop is four independent xorshift chains: enough parallel work to
// feel a busy sibling thread as the server's code does, and no memory.
func yardLoop(n int) uint64 {
	a, b, c, d := uint64(88172645463325252), uint64(1234567), uint64(987654321), uint64(55555555555)
	for i := 0; i < n; i++ {
		a ^= a << 13
		b ^= b << 13
		c ^= c << 13
		d ^= d << 13
		a ^= a >> 7
		b ^= b >> 7
		c ^= c >> 7
		d ^= d >> 7
		a ^= a << 17
		b ^= b << 17
		c ^= c << 17
		d ^= d << 17
	}
	return a + b + c + d
}

// threadCPU is the calling thread's CPU time in ns.
func threadCPU() int64 {
	const clockThreadCPUTime = 3
	var ts syscall.Timespec
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0)
	return ts.Nano()
}

// speed is the server CPU's speed between two instants (ns since the
// epoch) relative to nominal: the median sample of the interval, widened
// to the nearest sample either side when it holds none. 1 means nominal,
// 0.75 a CPU on which everything takes a third longer. Without a
// yardstick (a host with one CPU) it is 1.
func (y *yardstick) speed(from, to int64) float64 {
	if y == nil {
		return 1
	}
	y.mu.Lock()
	defer y.mu.Unlock()
	if len(y.at) == 0 {
		return 1
	}
	lo := sort.Search(len(y.at), func(i int) bool { return y.at[i] >= from })
	hi := sort.Search(len(y.at), func(i int) bool { return y.at[i] > to })
	if lo == hi {
		lo, hi = max(lo-1, 0), min(hi+1, len(y.at))
	}
	return yardNominal / median(y.ns[lo:hi])
}

// samples returns a copy of the log, for the result document.
func (y *yardstick) samples() (at, ns []float64) {
	if y == nil {
		return nil, nil
	}
	y.mu.Lock()
	defer y.mu.Unlock()
	for i := range y.at {
		at = append(at, float64(y.at[i]))
		ns = append(ns, y.ns[i])
	}
	return at, ns
}
