package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// env is what every run shares: the repository root, the built server
// binary, a scratch directory inside the checkout, and the CPU plan.
type env struct {
	root    string // repository root (holds go.mod and cmd/fibserve)
	build   string // <root>/.bench_build
	dir     string // per-process scratch directory under build
	fibsrv  string // built cmd/fibserve
	nproc   int
	pinned  bool
	srvCPU  int
	genCPU  int
	mu      sync.Mutex
	servers map[*server]bool
}

func newEnv() (*env, error) {
	root, err := findRoot()
	if err != nil {
		return nil, err
	}
	e := &env{root: root, build: filepath.Join(root, ".bench_build"), servers: map[*server]bool{}, srvCPU: -1, genCPU: -1}
	if err := os.MkdirAll(e.build, 0o755); err != nil {
		return nil, err
	}
	if e.dir, err = os.MkdirTemp(e.build, "run-"); err != nil {
		return nil, err
	}
	// The server under test is the repository's own cmd/fibserve, built
	// from source here; the go build cache makes the second build free.
	e.fibsrv = filepath.Join(e.build, "fibserve")
	cmd := exec.Command("go", "build", "-o", e.fibsrv, "./cmd/fibserve")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		e.cleanup()
		return nil, fmt.Errorf("go build ./cmd/fibserve: %v\n%s", err, out)
	}
	e.planCPUs()
	return e, nil
}

// findRoot walks up from the working directory to the directory whose
// go.mod declares module fibcomp.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if b, err := os.ReadFile(filepath.Join(dir, "go.mod")); err == nil {
			if f := strings.Fields(string(b)); len(f) >= 2 && f[0] == "module" && f[1] == "fibcomp" {
				return dir, nil
			}
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no fibcomp go.mod above the working directory")
		}
		dir = parent
	}
}

// planCPUs confines the generator to the first allowed CPU and reserves
// the last one for the server, when there are two.
func (e *env) planCPUs() {
	cpus := allowedCPUs()
	e.nproc = len(cpus)
	if len(cpus) < 2 {
		return
	}
	e.genCPU, e.srvCPU = cpus[0], cpus[len(cpus)-1]
	// Every thread of this process, present and future: threads are
	// cloned from these and inherit the mask.
	ents, err := os.ReadDir("/proc/self/task")
	if err != nil {
		return
	}
	ok := true
	for _, ent := range ents {
		tid, _ := strconv.Atoi(ent.Name())
		if setAffinity(tid, e.genCPU) != nil {
			ok = false
		}
	}
	e.pinned = ok
}

type cpuMask [16]uint64

func allowedCPUs() []int {
	var m cpuMask
	_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m[0])))
	if errno != 0 {
		return []int{0}
	}
	var cpus []int
	for i := 0; i < len(m)*64; i++ {
		if m[i/64]>>(uint(i)%64)&1 == 1 {
			cpus = append(cpus, i)
		}
	}
	return cpus
}

func setAffinity(tid, cpu int) error {
	var m cpuMask
	m[cpu/64] |= 1 << (uint(cpu) % 64)
	_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m[0])))
	if errno != 0 {
		return errno
	}
	return nil
}

func (e *env) cleanup() {
	e.mu.Lock()
	for s := range e.servers {
		s.kill()
	}
	e.servers = map[*server]bool{}
	e.mu.Unlock()
	if e.dir != "" {
		os.RemoveAll(e.dir)
	}
}

func (e *env) gitRevision() string {
	cmd := exec.Command("git", "rev-parse", "--short", "HEAD")
	cmd.Dir = e.root
	out, err := cmd.Output()
	if err != nil {
		return "unknown (not a git checkout)"
	}
	return strings.TrimSpace(string(out))
}

func kernelRelease() string {
	b, err := os.ReadFile("/proc/sys/kernel/osrelease")
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(b))
}

// server is one running fibserve process.
type server struct {
	env    *env
	cmd    *exec.Cmd
	log    *bytes.Buffer
	listen string
	admin  string
	update string
	done   chan struct{} // closed when the process has been waited for
}

// freePorts reserves n distinct loopback ports by binding and releasing.
func freePorts(n int) ([]string, error) {
	var addrs []string
	var held []io.Closer
	defer func() {
		for _, c := range held {
			c.Close()
		}
	}()
	for i := 0; i < n; i++ {
		// A TCP listener and a UDP socket on the same number: the port
		// is free for either use once both close.
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		held = append(held, l)
		u, err := net.ListenPacket("udp", l.Addr().String())
		if err != nil {
			i--
			continue
		}
		held = append(held, u)
		addrs = append(addrs, l.Addr().String())
	}
	return addrs, nil
}

// start execs fibserve with the frozen flag surface:
//
//	fibserve -listen A -admin B -shards 16 -workers 1 -updates C [-fib6 F6] [-vrfs SPEC] F4
//
// To confine it, the child is this binary again, which moves itself to
// the server CPU and then execs fibserve in place (see execOnCPU): the
// server, and the GOMAXPROCS its runtime derives, start on that CPU, and
// no thread of the generator ever leaves its own.
func (e *env) start(extra []string, f4 string) (*server, error) {
	ports, err := freePorts(3)
	if err != nil {
		return nil, err
	}
	s := &server{env: e, listen: ports[0], admin: ports[1], update: ports[2], log: &bytes.Buffer{}, done: make(chan struct{})}
	args := []string{"-listen", s.listen, "-admin", s.admin, "-shards", "16", "-workers", "1", "-updates", s.update}
	args = append(args, extra...)
	args = append(args, f4)
	if e.pinned {
		self, err := os.Executable()
		if err != nil {
			return nil, err
		}
		s.cmd = exec.Command(self, append([]string{execOnCPUArg, strconv.Itoa(e.srvCPU), e.fibsrv}, args...)...)
	} else {
		s.cmd = exec.Command(e.fibsrv, args...)
	}
	s.cmd.Stdout, s.cmd.Stderr = s.log, s.log
	// Its own process group, so one kill reaches whatever it starts; and
	// the kernel kills it should the benchmark itself be killed.
	s.cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
	if err := s.cmd.Start(); err != nil {
		return nil, err
	}
	e.mu.Lock()
	e.servers[s] = true
	e.mu.Unlock()
	go func() {
		s.cmd.Wait()
		close(s.done)
	}()
	return s, nil
}

const execOnCPUArg = "exec-on-cpu"

// execOnCPU is the child side of start: invoked as
// "bench exec-on-cpu N program args...", it confines the calling thread
// to CPU N and replaces the process with the program. exec keeps only
// the calling thread, so the program starts confined. It returns only
// when the arguments are not such an invocation.
func execOnCPU() {
	if len(os.Args) < 4 || os.Args[1] != execOnCPUArg {
		return
	}
	cpu, err := strconv.Atoi(os.Args[2])
	if err != nil {
		fatalf("%s: bad CPU %q", execOnCPUArg, os.Args[2])
	}
	runtime.LockOSThread()
	if err := setAffinity(0, cpu); err != nil {
		fmt.Fprintf(os.Stderr, "bench: cannot confine the server to CPU %d: %v\n", cpu, err)
	}
	// The parent-death signal asked for at fork survives this exec.
	err = syscall.Exec(os.Args[3], os.Args[3:], os.Environ())
	fatalf("exec %s: %v", os.Args[3], err)
}

// confined reports whether the server's threads may run only on the CPU
// planned for it.
func (s *server) confined() bool {
	return s.env.pinned && s.status("Cpus_allowed_list") == strconv.Itoa(s.env.srvCPU)
}

func (s *server) exited() bool {
	select {
	case <-s.done:
		return true
	default:
		return false
	}
}

// stop asks for the graceful drain and waits; a server that does not
// leave within the grace is killed with its process group.
func (s *server) stop() {
	if !s.exited() {
		s.cmd.Process.Signal(syscall.SIGTERM)
		select {
		case <-s.done:
		case <-time.After(10 * time.Second):
			s.kill()
		}
	}
	s.env.mu.Lock()
	delete(s.env.servers, s)
	s.env.mu.Unlock()
}

func (s *server) kill() {
	if s.cmd.Process != nil && !s.exited() {
		syscall.Kill(-s.cmd.Process.Pid, syscall.SIGKILL)
		<-s.done
	}
}

// cpuSeconds is the CPU time the server process has used: the run time
// of all its threads from /proc/<pid>/task/*/schedstat, which counts in
// nanoseconds, or utime+stime in 10 ms ticks where the kernel keeps no
// schedstat.
func (s *server) cpuSeconds() float64 {
	pid := s.cmd.Process.Pid
	if paths, _ := filepath.Glob(fmt.Sprintf("/proc/%d/task/*/schedstat", pid)); len(paths) > 0 {
		ns, ok := 0.0, true
		for _, p := range paths {
			b, err := os.ReadFile(p)
			f := strings.Fields(string(b))
			if err != nil || len(f) < 1 {
				ok = false
				break
			}
			v, _ := strconv.ParseFloat(f[0], 64)
			ns += v
		}
		if ok {
			return ns / 1e9
		}
	}
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the line, 12 and 13 after the name.
	rest := b[bytes.LastIndexByte(b, ')')+1:]
	f := strings.Fields(string(rest))
	if len(f) < 14 {
		return 0
	}
	ut, _ := strconv.ParseFloat(f[11], 64)
	st, _ := strconv.ParseFloat(f[12], 64)
	return (ut + st) / 100 // USER_HZ
}

// status reads one "Key:" line of /proc/<pid>/status.
func (s *server) status(key string) string {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return ""
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), key+":"); ok {
			return strings.TrimSpace(rest)
		}
	}
	return ""
}

func (s *server) rssPeakMB() float64 {
	f := strings.Fields(s.status("VmHWM"))
	if len(f) == 0 {
		return 0
	}
	kb, _ := strconv.ParseFloat(f[0], 64)
	return kb / 1024
}

// scrape reads the server's /metrics into series -> value; histogram
// buckets are skipped (their _sum and _count are kept).
func (s *server) scrape() (map[string]float64, error) {
	c := http.Client{Timeout: 5 * time.Second}
	resp, err := c.Get("http://" + s.admin + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	m := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' || strings.Contains(line, "_bucket{") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			m[line[:i]] = v
		}
	}
	return m, sc.Err()
}

// collect makes the server run one garbage collection, through the heap
// profile handler of its admin endpoint (gc=1 collects before it
// samples).
func (s *server) collect() error {
	c := http.Client{Timeout: 60 * time.Second}
	var resp *http.Response
	var err error
	// fibserve opens the admin listener last; it may not be up yet.
	for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		if resp, err = c.Get("http://" + s.admin + "/debug/pprof/heap?gc=1"); err == nil {
			break
		}
		if time.Now().After(deadline) {
			return err
		}
	}
	defer resp.Body.Close()
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET /debug/pprof/heap?gc=1: %s", resp.Status)
	}
	return nil
}

// sumPrefix adds every series whose name starts with prefix (all label
// sets of one metric).
func sumPrefix(m map[string]float64, prefix string) float64 {
	t := 0.0
	for k, v := range m {
		if k == prefix || strings.HasPrefix(k, prefix+"{") {
			t += v
		}
	}
	return t
}

// stealSeconds is the time the hypervisor has run something else while
// the guest wanted one of its CPUs, from the first line of /proc/stat,
// which counts in 10 ms ticks.
func stealSeconds() float64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	if f := strings.Fields(line); len(f) > 8 && f[0] == "cpu" {
		v, _ := strconv.ParseFloat(f[8], 64)
		return v / 100
	}
	return 0
}

// selfCPUSeconds is this process's user+system time.
func selfCPUSeconds() float64 {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}
