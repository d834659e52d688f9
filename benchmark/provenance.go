package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"

	"ft2/internal/tensor"
)

// provenance records where a run's figures came from. The kernel cost
// model is calibrated at every start and its constants vary between
// starts, so the installed model is part of the record: a dispatch plan
// that flips between runs shows here.
func provenance(name string, seed int64) map[string]any {
	p := map[string]any{
		"workload":   name,
		"seed":       seed,
		"git_sha":    "unknown",
		"utc":        time.Now().UTC().Format(time.RFC3339),
		"cpu_model":  cpuModel(),
		"num_cpu":    runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go_version": runtime.Version(),
		"cost_model": tensor.CurrentCostModel(),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				p["git_sha"] = s.Value
			case "vcs.modified":
				p["git_modified"] = s.Value == "true"
			}
		}
	}
	return p
}

// cpuModel returns the first "model name" of /proc/cpuinfo.
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

// peakRSSMB returns the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", v, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}
