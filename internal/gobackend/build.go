// Building generated packages: the emitted main.go is written into a
// tiny child module (module espcompiled) whose go.mod replaces the
// esplang requirement with the on-disk repository root, so the child
// compiles against the exact runtime it will drive. Build products are
// cached in the user cache directory keyed on a content hash of the
// generated source and of the runtime sources it links, so re-running the
// same program skips the toolchain entirely (the 10x benchmark numbers are
// quoted against a warm cache).
package gobackend

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"sync"

	esplang "esplang"
)

// ErrNoToolchain reports that no `go` binary is on PATH. Callers treat
// it as a graceful-degradation signal: esprun prints a clear message,
// the differential tests and the fuzzer's compiled oracle stage skip.
var ErrNoToolchain = errors.New("gobackend: no Go toolchain (`go`) found on PATH")

// BuildError reports that the host toolchain rejected a generated
// package. It is a distinct type so the fuzzer can classify backend
// build failures separately from semantic divergences.
type BuildError struct {
	Output string
	Err    error
}

func (e *BuildError) Error() string {
	return fmt.Sprintf("gobackend: go build failed: %v\n%s", e.Err, e.Output)
}

func (e *BuildError) Unwrap() error { return e.Err }

// BuildOptions configures Build.
type BuildOptions struct {
	// Name and File are the esplang.CompileOptions used for the program
	// (and replayed by the generated harness).
	Name string
	File string
	// NoOptimize and VerifyIR mirror the same CompileOptions fields.
	NoOptimize bool
	VerifyIR   bool
	// CacheDir overrides the build-product cache root (tests).
	CacheDir string
}

// Toolchain returns the path of the host `go` binary, or ErrNoToolchain.
func Toolchain() (string, error) {
	path, err := exec.LookPath("go")
	if err != nil {
		return "", ErrNoToolchain
	}
	return path, nil
}

// moduleRoot locates the esplang module root for the child's replace
// directive: the directory of this source file at build time (which is
// where the module lives for every in-repo binary and test), verified
// by the presence of go.mod, with `go env GOMOD` as fallback.
func moduleRoot(goTool string) (string, error) {
	if _, file, _, ok := runtime.Caller(0); ok {
		root := filepath.Dir(filepath.Dir(filepath.Dir(file)))
		if fi, err := os.Stat(filepath.Join(root, "go.mod")); err == nil && !fi.IsDir() {
			return root, nil
		}
	}
	out, err := exec.Command(goTool, "env", "GOMOD").Output()
	if err == nil {
		gomod := strings.TrimSpace(string(out))
		if gomod != "" && gomod != "/dev/null" && gomod != "NUL" {
			return filepath.Dir(gomod), nil
		}
	}
	return "", errors.New("gobackend: cannot locate the esplang module root")
}

// childGoMod renders the generated module's go.mod.
func childGoMod(root string) string {
	return fmt.Sprintf("module espcompiled\n\ngo 1.22\n\nrequire esplang v0.0.0\n\nreplace esplang => %s\n", root)
}

// WriteTree writes a buildable source tree (main.go + go.mod) for the
// emitted mainSrc into dir — the implementation of espc -emit-go.
func WriteTree(dir, mainSrc string) error {
	goTool, err := Toolchain()
	root := ""
	if err == nil {
		root, err = moduleRoot(goTool)
	} else if _, file, _, ok := runtime.Caller(0); ok {
		// Even without a toolchain the tree is still useful to inspect;
		// fall back to the compile-time source location.
		root = filepath.Dir(filepath.Dir(filepath.Dir(file)))
		err = nil
	}
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, "main.go"), []byte(mainSrc), 0o644); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "go.mod"), []byte(childGoMod(root)), 0o644)
}

// sourceDigest returns the digest of the module's non-test Go sources
// (hashSources), computed once per process: the module root is fixed for
// the life of the process.
var sourceDigest = sync.OnceValues(func() (string, error) {
	goTool, err := Toolchain()
	if err != nil {
		return "", err
	}
	root, err := moduleRoot(goTool)
	if err != nil {
		return "", err
	}
	return hashSources(root)
})

// hashSources digests moduleSources by path and content.
func hashSources(root string) (string, error) {
	h := sha256.New()
	err := moduleSources(root, func(rel string, data []byte) {
		fmt.Fprintf(h, "%s\x00%d\x00", rel, len(data))
		h.Write(data)
	})
	if err != nil {
		return "", fmt.Errorf("gobackend: hashing module sources: %w", err)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// moduleSources visits, in lexical order, everything under the module
// root that a generated binary can link: go.mod, go.sum and every
// non-test .go file, skipping what the go tool ignores (testdata and
// names starting with "." or "_") and nested modules. rel is
// slash-separated and relative to root.
func moduleSources(root string, visit func(rel string, data []byte)) error {
	return filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path == root {
				return nil
			}
			if name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir
			}
			return nil
		}
		isSrc := strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go")
		isMod := filepath.Dir(path) == root && (name == "go.mod" || name == "go.sum")
		if !isSrc && !isMod {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		visit(filepath.ToSlash(rel), data)
		return nil
	})
}

// cacheRoot returns the build-product cache directory.
func cacheRoot(override string) string {
	if override != "" {
		return override
	}
	if dir, err := os.UserCacheDir(); err == nil {
		return filepath.Join(dir, "espc-gobuild")
	}
	return filepath.Join(os.TempDir(), "espc-gobuild")
}

// Build emits, writes, and compiles the generated package for src,
// returning a Runner for the cached binary. The cache key covers the
// generated source, the child go.mod (which embeds the module root) and
// the digest of the module's non-test Go sources, so any change to the
// program, the emitter, the runtime the binary links, or the runtime
// location forces a rebuild; an existing binary is reused without
// invoking the toolchain at all.
func Build(src string, o BuildOptions) (*Runner, error) {
	if _, err := Toolchain(); err != nil {
		return nil, err
	}
	prog, err := esplang.Compile(src, esplang.CompileOptions{
		Name: o.Name, File: o.File, NoOptimize: o.NoOptimize, VerifyIR: o.VerifyIR,
	})
	if err != nil {
		return nil, fmt.Errorf("gobackend: compile: %w", err)
	}
	return BuildProgram(prog, o)
}

// BuildProgram is Build for an already-compiled program. prog must have
// been compiled with the options in o.
func BuildProgram(prog *esplang.Program, o BuildOptions) (*Runner, error) {
	goTool, err := Toolchain()
	if err != nil {
		return nil, err
	}
	mainSrc, err := Emit(prog, Options{NoOptimize: o.NoOptimize, VerifyIR: o.VerifyIR})
	if err != nil {
		return nil, err
	}
	root, err := moduleRoot(goTool)
	if err != nil {
		return nil, err
	}
	gomod := childGoMod(root)
	srcs, err := sourceDigest()
	if err != nil {
		return nil, err
	}

	sum := sha256.Sum256([]byte(mainSrc + "\x00" + gomod + "\x00" + srcs))
	key := hex.EncodeToString(sum[:8])
	dir := filepath.Join(cacheRoot(o.CacheDir), key)
	bin := filepath.Join(dir, "espcompiled")
	if fi, err := os.Stat(bin); err == nil && !fi.IsDir() {
		return &Runner{Bin: bin, Dir: dir, Cached: true}, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	if err := os.WriteFile(filepath.Join(dir, "main.go"), []byte(mainSrc), 0o644); err != nil {
		return nil, err
	}
	if err := os.WriteFile(filepath.Join(dir, "go.mod"), []byte(gomod), 0o644); err != nil {
		return nil, err
	}
	cmd := exec.Command(goTool, "build", "-o", bin, ".")
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "GOWORK=off", "GOFLAGS=")
	out, err := cmd.CombinedOutput()
	if err != nil {
		return nil, &BuildError{Output: string(out), Err: err}
	}
	return &Runner{Bin: bin, Dir: dir}, nil
}
