package main

import (
	"bufio"
	"bytes"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"
)

// hostRecord is attached to every result: raw host times only compare on
// the same host shape, so each result says which one it came from.
type hostRecord struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	Seed       int64  `json:"seed"`
	SeedNote   string `json:"seed_note"`
}

// seedNotes says, per workload, what the seed draws.
var seedNotes = map[string]string{
	"sweep-cold":  "ignores the seed: fixed paper matrix (11 workloads x 3 configs)",
	"dse-measure": "seed draws the 32 design points",
	"serve-warm":  "seed draws the request mix",
	"fabric-tiny": "ignores the seed: fixed paper matrix at tiny scale",
}

func newHostRecord(seed int64, workload string) hostRecord {
	return hostRecord{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   cpuModel(),
		GoVersion:  runtime.Version(),
		Seed:       seed,
		SeedNote:   seedNotes[workload],
	}
}

func cpuModel() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	sc := bufio.NewScanner(bytes.NewReader(raw))
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// rssMB reads the process's current resident set size in MB (0 when
// /proc is unavailable).
func rssMB() float64 {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, ln := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(ln, "VmRSS:"); ok {
			f := strings.Fields(rest)
			if len(f) >= 1 {
				kb, _ := strconv.ParseFloat(f[0], 64)
				return kb / 1024
			}
		}
	}
	return 0
}

// memWindow measures memory over one timed window: the peak resident set
// size, sampled every 10 ms (the kernel's own high-water mark, VmHWM,
// covers the whole process life, setup included), and the bytes the Go
// heap allocated. Each window starts from a collected heap with freed
// memory returned to the OS, so garbage left by setup or an earlier
// window does not count.
type memWindow struct {
	stop    chan struct{}
	done    chan struct{}
	samples []float64 // written by the sampling goroutine until done closes
	alloc0  uint64
}

func startWindow() *memWindow {
	debug.FreeOSMemory()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	w := &memWindow{stop: make(chan struct{}), done: make(chan struct{}), samples: []float64{rssMB()}, alloc0: ms.TotalAlloc}
	go func() {
		defer close(w.done)
		tk := time.NewTicker(10 * time.Millisecond)
		defer tk.Stop()
		for {
			select {
			case <-w.stop:
				return
			case <-tk.C:
				w.samples = append(w.samples, rssMB())
			}
		}
	}()
	return w
}

// Stop ends the window and returns its peak RSS and allocated bytes, in MB.
func (w *memWindow) Stop() (peakMB, allocMB float64) {
	close(w.stop)
	<-w.done
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	w.samples = append(w.samples, rssMB())
	return maxOf(w.samples), float64(ms.TotalAlloc-w.alloc0) / (1 << 20)
}
