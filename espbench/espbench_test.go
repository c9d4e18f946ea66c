package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite reference.json from the baseline engine")

// TestReference rebuilds both reference tables on the baseline engine
// and fails on any drift from reference.json.
func TestReference(t *testing.T) {
	got, err := buildReference()
	if err != nil {
		t.Fatal(err)
	}
	if *update {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile("reference.json", append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if !reflect.DeepEqual(got, reference) {
		t.Fatalf("reference drift:\nrebuilt:  %+v\nrecorded: %+v", got, reference)
	}
}

// TestLayerFilesExist fails when a file of the CPU bucket table was
// renamed or removed, and when a layer package gained a file the table
// does not name — either would quietly move samples into cpu.other.
func TestLayerFilesExist(t *testing.T) {
	goroot := runtime.GOROOT()
	layers := map[string]bool{}
	for _, l := range cpuLayers {
		layers[l] = true
	}
	for file, layer := range layerFiles {
		if !layers[layer] {
			t.Errorf("%s: unknown layer %q", file, layer)
		}
		path := filepath.Join("..", file)
		if strings.HasPrefix(file, "runtime/") {
			path = filepath.Join(goroot, "src", file)
		}
		if _, err := os.Stat(path); err != nil {
			t.Errorf("bucket table names a missing file: %v", err)
		}
	}
	for _, dir := range []string{"vm", "vmmc", "sim", "nic", "mc"} {
		files, err := filepath.Glob(filepath.Join("..", "internal", dir, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range files {
			rel := filepath.ToSlash(f[len(".."+string(filepath.Separator)):])
			if strings.HasSuffix(rel, "_test.go") {
				continue
			}
			if _, ok := layerFiles[rel]; !ok {
				t.Errorf("%s is missing from the bucket table", rel)
			}
		}
	}
}

// TestLayerOf checks the path forms a profile carries.
func TestLayerOf(t *testing.T) {
	for file, want := range map[string]string{
		"/src/esplang/internal/vm/encode.go":         "vm_encode",
		"esplang/internal/mc/shard.go":               "mc_visited",
		"/usr/local/go/src/runtime/mgcmark.go":       "runtime_gc",
		"/usr/local/go/src/runtime/map_faststr.go":   "",
		"/src/esplang/espbench/main.go":              "",
		"/src/esplang/internal/vm/encode_helpers.go": "",
	} {
		if got := layerOf(file); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", file, got, want)
		}
	}
}

// TestCPUSplit profiles a short fig5 point and checks that the shares
// cover the firmware layers and sum to 1.
func TestCPUSplit(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("cpu profiler unavailable:", err)
	}
	deadline := time.Now().Add(500 * time.Millisecond)
	for time.Now().Before(deadline) {
		if _, err := (point{pingPong, 64, 200}).simulate(); err != nil {
			pprof.StopCPUProfile()
			t.Fatal(err)
		}
	}
	pprof.StopCPUProfile()
	split, err := cpuSplit(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, l := range cpuLayers {
		sum += split[l]
	}
	if sum < 0.999 || sum > 1.001 {
		t.Errorf("shares sum to %v: %v", sum, split)
	}
	if split["vm_exec"] == 0 {
		t.Errorf("no samples in the VM interpreter: %v", split)
	}
}

// TestQuantile pins the interpolation rule.
func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if got := quantile(xs, 0.5); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	if got := quantile(xs, 0.95); got < 3.84 || got > 3.86 {
		t.Errorf("p95 = %v, want 3.85", got)
	}
}
