package main

import (
	"bufio"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// quantile returns the p-quantile (0 ≤ p ≤ 1) of xs by the nearest-rank
// rule; xs is sorted in place.
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	rank := int(math.Ceil(p * float64(len(xs))))
	return xs[min(max(rank, 1), len(xs))-1]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// heapAlloc is the process's cumulative heap allocation in bytes.
func heapAlloc() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.TotalAlloc
}

// stamp identifies the host and the run, so results from different hosts
// or settings are never compared silently.
type stamp struct {
	Workload       string         `json:"workload"`
	Seed           int64          `json:"seed"`
	Trace          bool           `json:"trace"`
	Seconds        int            `json:"seconds"`
	CPUs           int            `json:"cpus"`
	GOMAXPROCS     int            `json:"gomaxprocs"`
	CPUModel       string         `json:"cpuModel"`
	GoVersion      string         `json:"goVersion"`
	Commit         string         `json:"commit"`
	Clients        int            `json:"clients"`
	Samples        int            `json:"samples"`
	TailPercentile float64        `json:"tailPercentile"`
	TailBeyond     int            `json:"tailSamplesBeyond"`
	Arbiter        map[string]any `json:"arbiter"`
}

func newStamp(w workloadDef, seed int64, seconds int, trace bool) stamp {
	return stamp{
		Workload:       w.Name,
		Seed:           seed,
		Trace:          trace,
		Seconds:        seconds,
		CPUs:           runtime.NumCPU(),
		GOMAXPROCS:     runtime.GOMAXPROCS(0),
		CPUModel:       cpuModel(),
		GoVersion:      runtime.Version(),
		Commit:         commit(),
		Clients:        clients,
		TailPercentile: w.TailPercentile,
	}
}

// cpuModel reads the first "model name" of /proc/cpuinfo; hosts without
// it report "unknown".
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit is the VCS revision the Go toolchain stamped into the binary;
// a build outside a git checkout has none and reports "unknown".
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if rev == "" {
		return "unknown"
	}
	if dirty {
		rev += "+dirty"
	}
	return rev
}
