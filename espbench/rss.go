package main

import (
	"os"
	"strconv"
	"strings"
	"syscall"
)

// rssWatch measures the peak resident set size over an interval. On
// Linux it resets the kernel's high-water mark (VmHWM) at the start;
// where that is unavailable it falls back to the process-lifetime peak.
type rssWatch struct{ reset bool }

func startRSSWatch() rssWatch {
	err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
	return rssWatch{reset: err == nil}
}

// peakMB returns the peak resident set size since the watch started, in
// MiB.
func (w rssWatch) peakMB() float64 {
	if w.reset {
		if kb, ok := statusKB("VmHWM:"); ok {
			return kb / 1024
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux and BSD report KiB
}

// statusKB reads a kB-valued field of /proc/self/status.
func statusKB(field string) (float64, bool) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, false
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, field); ok {
			v, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return v, err == nil
		}
	}
	return 0, false
}
