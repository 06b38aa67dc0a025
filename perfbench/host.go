package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// hostRecord identifies the machine a run measured on. Host CPU steal is
// what tells an outlier on a shared VM apart from a regression: wall time
// tracks it while CPU time does not.
type hostRecord struct {
	Go         string  `json:"go"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	CPU        string  `json:"cpu"`
	StealS     float64 `json:"steal_s"`
}

func newHostRecord() hostRecord {
	return hostRecord{Go: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), CPU: cpuModel()}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// userHZ is the kernel's USER_HZ, the unit of /proc/stat. It is 100 on
// every Linux architecture Go supports.
const userHZ = 100

// hostSteal returns the CPU time the hypervisor has taken from this host's
// vCPUs since boot, summed over all of them; zero where /proc/stat is
// missing.
func hostSteal() time.Duration {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return 0
	}
	// cpu user nice system idle iowait irq softirq steal ...
	fields := strings.Fields(sc.Text())
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseUint(fields[8], 10, 64)
	if err != nil {
		return 0
	}
	return time.Duration(ticks) * time.Second / userHZ
}

// processCPU is the user+system CPU time the process has used so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

const (
	liveHeapMetric = "/gc/heap/live:bytes"
	allocsMetric   = "/gc/heap/allocs:bytes"
	gcCPUMetric    = "/cpu/classes/gc/total:cpu-seconds"
)

// runtimeCounters reads the cumulative allocation and GC CPU counters.
func runtimeCounters() (allocBytes uint64, gcCPU float64) {
	s := []metrics.Sample{{Name: allocsMetric}, {Name: gcCPUMetric}}
	metrics.Read(s)
	return s[0].Value.Uint64(), s[1].Value.Float64()
}

// liveHeapAfterGC forces collections and returns the heap found live. It
// collects twice: objects a sync.Pool held (encoding/json keeps its encode
// buffers there) survive the first collection in the pool's victim cache.
func liveHeapAfterGC() uint64 {
	runtime.GC()
	runtime.GC()
	s := []metrics.Sample{{Name: liveHeapMetric}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// heapWatch tracks the highest live heap any GC cycle reports while it
// runs. A sentinel object that re-arms itself from its own finalizer
// samples once per cycle, when the live heap changes, and never wakes the
// process in between: a polling goroutine would preempt the crawl's
// parallel phases hundreds of times a second and slow them measurably.
type heapWatch struct {
	mu      sync.Mutex
	peak    uint64
	stopped bool
}

// heapSentinel is large enough to bypass the tiny allocator, whose
// objects may never be finalized.
type heapSentinel struct{ _ [32]byte }

func watchHeap() *heapWatch {
	w := &heapWatch{}
	w.sample()
	w.arm()
	return w
}

func (w *heapWatch) arm() {
	runtime.SetFinalizer(&heapSentinel{}, func(*heapSentinel) {
		if w.sample() {
			w.arm()
		}
	})
}

// sample records the live heap of the last GC cycle and reports whether
// the watch is still running.
func (w *heapWatch) sample() bool {
	s := []metrics.Sample{{Name: liveHeapMetric}}
	metrics.Read(s)
	w.mu.Lock()
	defer w.mu.Unlock()
	if v := s[0].Value.Uint64(); v > w.peak {
		w.peak = v
	}
	return !w.stopped
}

// done stops the watch and returns the peak live heap in bytes.
func (w *heapWatch) done() uint64 {
	w.sample()
	w.mu.Lock()
	defer w.mu.Unlock()
	w.stopped = true
	return w.peak
}

func mb(bytes uint64) float64 { return float64(bytes) / 1e6 }
