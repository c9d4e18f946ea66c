package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
)

// identity names the exact work a result measured and where it ran, so
// results are comparable only when the work is the same.
type identity struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Traced   bool   `json:"traced"`
	// WorkloadHash covers the workload's parameters; InputsHash adds the
	// seed, which fixes the order of the work items.
	WorkloadHash string `json:"workload_hash"`
	InputsHash   string `json:"inputs_hash"`
	Params       any    `json:"params"`
	Env          env    `json:"env"`
}

type env struct {
	GoVersion  string `json:"go_version"`
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	// Commit is the VCS revision stamped into the binary, when built in a
	// checkout that has one; SourceHash digests the Go sources and go.mod
	// files under the working directory either way.
	Commit     string `json:"commit"`
	SourceHash string `json:"source_hash"`
}

func newIdentity(w *workload, seed int64, traced bool) *identity {
	return &identity{
		Workload:     w.name,
		Seed:         seed,
		Traced:       traced,
		WorkloadHash: hashJSON(map[string]any{"workload": w.name, "params": w.params}),
		InputsHash:   hashJSON(map[string]any{"workload": w.name, "params": w.params, "seed": seed}),
		Params:       w.params,
		Env: env{
			GoVersion:  runtime.Version(),
			CPU:        cpuModel(),
			NumCPU:     runtime.NumCPU(),
			GOMAXPROCS: runtime.GOMAXPROCS(0),
			Commit:     commit(),
			SourceHash: sourceHash("."),
		},
	}
}

func hashJSON(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // params are plain data
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8])
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

func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty {
		rev += "+modified"
	}
	return rev
}

// sourceHash digests every .go and go.mod file under root, skipping
// hidden directories such as the build directory.
func sourceHash(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		h.Write([]byte(path + "\x00"))
		h.Write(b)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}
