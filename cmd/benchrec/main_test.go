package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestParseSeedBenchComparesLikeWork: the seed's Fig5a latency
// benchmarks run 10 ping-pong rounds and benchrec's Fig5aLatency
// workloads 40, so no Fig5a line may be mapped; like-for-like lines are.
func TestParseSeedBenchComparesLikeWork(t *testing.T) {
	path := filepath.Join(t.TempDir(), "seed_bench.txt")
	err := os.WriteFile(path, []byte(`goos: linux
BenchmarkFig5aLatency/vmmcESP/64B-2      100   2950000 ns/op   14.20 us-latency   3828 allocs/op
BenchmarkFig5aLatency/vmmcESP/4096B-2     50   5900000 ns/op   61.70 us-latency   7000 allocs/op
BenchmarkFig5bBandwidth/vmmcESP/1024B-2   40  12000000 ns/op   92.50 MB/s
BenchmarkVerifyFirmwareModel-2             5 250000000 ns/op   12000 states
PASS
`), 0o644)
	if err != nil {
		t.Fatal(err)
	}
	got, err := parseSeedBench(path)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, b := range got {
		names = append(names, b.Name)
	}
	if want := "Fig5bBandwidth/1024B,VerifyFirmwareModel"; strings.Join(names, ",") != want {
		t.Errorf("mapped %v, want %s", names, want)
	}
	if len(got) == 2 && (got[0].Metrics["MB/s"] != 92.5 || got[1].Metrics["states/sec"] != 12000/0.25) {
		t.Errorf("metrics parsed as %v and %v", got[0].Metrics, got[1].Metrics)
	}
}
