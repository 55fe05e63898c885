package main

import (
	"encoding/json"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"sync"
	"syscall"
	"time"
)

// procStats is one reading of the process-wide counters.
type procStats struct {
	at       time.Time
	cpu      time.Duration // user + system, from getrusage
	allocs   float64       // bytes allocated on the heap
	gcCycles float64
	gcCPU    float64 // seconds of CPU spent in the GC
	goCPU    float64 // seconds of CPU the runtime accounted
}

var procSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/cycles/total:gc-cycles"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func readProc() procStats {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	s := make([]metrics.Sample, len(procSamples))
	copy(s, procSamples)
	metrics.Read(s)
	return procStats{
		at:       time.Now(),
		cpu:      time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		allocs:   float64(s[0].Value.Uint64()),
		gcCycles: float64(s[1].Value.Uint64()),
		gcCPU:    s[2].Value.Float64(),
		goCPU:    s[3].Value.Float64(),
	}
}

// heapPeak samples the bytes of live heap objects every 5 ms until
// stopped; the benchmark's own generator and sample buffers are included.
type heapPeak struct {
	stop chan struct{}
	done sync.WaitGroup
	peak uint64
	n    int
}

func startHeapPeak() *heapPeak {
	h := &heapPeak{stop: make(chan struct{})}
	h.done.Add(1)
	go func() {
		defer h.done.Done()
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			metrics.Read(s)
			h.peak = max(h.peak, s[0].Value.Uint64())
			h.n++
			select {
			case <-h.stop:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// end stops sampling and returns the peak in MB and the samples taken.
func (h *heapPeak) end() (float64, int) {
	close(h.stop)
	h.done.Wait()
	return float64(h.peak) / (1 << 20), h.n
}

// conditions describes what a result was measured under.
func conditions(workload string, seed uint64, seconds int, trace bool, dir string) string {
	gogc := os.Getenv("GOGC")
	if gogc == "" {
		gogc = "100"
	}
	raw, _ := json.Marshal(map[string]any{ // plain map of strings and numbers
		"workload":   workload,
		"seed":       seed,
		"seconds":    seconds,
		"trace":      trace,
		"go":         runtime.Version(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"gogc":       gogc,
		"data_fs":    fsType(dir),
		"durability": "fsync on, group commit on",
		"clients":    "2 workers, at most 2 TLS connections",
	})
	return string(raw)
}

// fsType names the filesystem holding dir.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint64(st.Type) {
	case 0xEF53:
		return "ext4"
	case 0x58465342:
		return "xfs"
	case 0x01021994:
		return "tmpfs"
	case 0x9123683E:
		return "btrfs"
	case 0x794C7630:
		return "overlayfs"
	default:
		return "0x" + strconv.FormatUint(uint64(st.Type), 16)
	}
}
