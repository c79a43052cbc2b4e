package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

const mb = 1e6 // bytes per MB in every *_mb metric

// cpuTime returns the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// settle collects garbage and returns freed memory to the OS, then
// resets the kernel's peak-RSS mark, so the next peakRSS reading covers
// only what follows. It reports whether the reset worked (Linux
// /proc/self/clear_refs); without it peakRSS is the process lifetime's.
func settle() bool {
	runtime.GC()
	debug.FreeOSMemory()
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) == nil
}

// peakRSS returns the peak resident set size in bytes since the last
// settle (VmHWM), falling back to the lifetime maximum from getrusage.
func peakRSS() float64 {
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		sc := bufio.NewScanner(bytes.NewReader(b))
		for sc.Scan() {
			if f := strings.Fields(sc.Text()); len(f) >= 2 && f[0] == "VmHWM:" {
				if kb, err := strconv.ParseFloat(f[1], 64); err == nil {
					return kb * 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024
}

func memStats() runtime.MemStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m
}

// liveHeap returns the heap still reachable after full collections; the
// second one empties the sync.Pool victim caches the first one keeps.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	return memStats().HeapAlloc
}

// provenance identifies what a result was measured on.
type provenance struct {
	Commit       string `json:"commit"`
	SourceSHA256 string `json:"source_sha256"`
	GoVersion    string `json:"go_version"`
	GOMAXPROCS   int    `json:"gomaxprocs"`
	NProc        int    `json:"nproc"`
	CPUModel     string `json:"cpu_model"`
	Workload     string `json:"workload"`
	Scenario     string `json:"scenario"`
	SpecHash     string `json:"spec_hash"`
	Seed         int64  `json:"scenario_seed"`
	RunSeed      int64  `json:"run_seed"`
	HorizonHours int64  `json:"horizon_hours"`
	Clients      int    `json:"clients"`
	Websites     int    `json:"websites"`
	Shards       int    `json:"shards"`
	Transactions int64  `json:"transactions"`
	Records      int64  `json:"records"`
	Iterations   int    `json:"iterations"`
	Traced       bool   `json:"traced"`
	PeakRSSReset bool   `json:"peak_rss_reset"`
}

// hostProvenance fills the fields that describe the build and the host.
func hostProvenance() provenance {
	return provenance{
		Commit:       gitCommit(),
		SourceSHA256: sourceHash("."),
		GoVersion:    runtime.Version(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		NProc:        runtime.NumCPU(),
		CPUModel:     cpuModel(),
	}
}

// gitCommit returns HEAD when the working directory is the root of a git
// checkout, else "none" (benchmark checkouts carry no git metadata; the
// source hash identifies them).
func gitCommit() string {
	if _, err := os.Stat(".git"); err != nil {
		return "none"
	}
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// sourceHash is a SHA-256 over the program's sources under root — every
// .go, .json and go.mod file outside hidden directories — by path, so
// two checkouts of one commit hash alike.
func sourceHash(root string) string {
	var paths []string
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if ext := filepath.Ext(path); ext == ".go" || ext == ".json" || d.Name() == "go.mod" {
			paths = append(paths, path)
		}
		return nil
	})
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s\x00%d\x00", filepath.ToSlash(p), len(b))
		h.Write(b)
	}
	return fmt.Sprintf("%x", h.Sum(nil))[:16]
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}
