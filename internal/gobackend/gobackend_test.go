package gobackend

import (
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"strings"
	"testing"

	esplang "esplang"
	"esplang/internal/obs"
	"esplang/internal/vm"
)

const add5Src = `channel inC: int external writer
channel outC: int external reader
interface feed( out inC) { Put( $v) }

process add5 {
    while (true) {
        in( inC, $i);
        out( outC, i + 5);
    }
}
`

// pingpongSrc exercises the direct-transfer lowering: channel c is a
// statically-matched scalar pair, so the generated code runs
// CGSendDirScalar/CGRecvDirScalar while the baseline oracle scans.
const pingpongSrc = `channel c: int
channel done: int external reader

process producer {
    $i = 0;
    while (i < 50) {
        out( c, i);
        i = i + 1;
    }
}

process consumer {
    $sum = 0;
    $n = 0;
    while (n < 50) {
        in( c, $v);
        sum = sum + v;
        n = n + 1;
    }
    out( done, sum);
}
`

// faultSrc faults with a division by zero at a known source line.
const faultSrc = `channel outC: int external reader
process p {
    $a = 10;
    $b = 0;
    out( outC, a / b);
}
`

func requireToolchain(t *testing.T) {
	t.Helper()
	if _, err := Toolchain(); err != nil {
		t.Skipf("skipping: %v", err)
	}
}

func eventSum(evs []obs.Event) string {
	h := fnv.New64a()
	for _, e := range evs {
		fmt.Fprintln(h, e)
	}
	return fmt.Sprintf("%d events, fnv %x", len(evs), h.Sum64())
}

// baselineRender runs prog in-process under the baseline engine with the
// given inputs and renders every observable the subprocess protocol
// carries, in the same shape as compiledRender.
func baselineRender(t *testing.T, src, name string, req *Request, feed map[string][]int64) string {
	t.Helper()
	prog, err := esplang.Compile(src, esplang.CompileOptions{Name: name, File: name + ".esp", VerifyIR: true})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	m := prog.Machine(esplang.MachineConfig{
		MaxLiveObjects: req.MaxLive,
		StepBudget:     req.StepBudget,
		MaxCycles:      req.MaxCycles,
		Engine:         esplang.EngineBaseline,
	})
	log := obs.NewEventLog()
	m.SetRecorder(log)
	readers := map[string]*esplang.CollectReader{}
	for chName := range req.Readers {
		r := &esplang.CollectReader{Limit: req.Readers[chName]}
		if err := m.BindReader(chName, r); err != nil {
			t.Fatal(err)
		}
		readers[chName] = r
	}
	for chName, vals := range feed {
		w := &esplang.QueueWriter{}
		for _, v := range vals {
			v := v
			w.Push(0, func(*esplang.Machine) esplang.Value { return esplang.IntVal(v) })
		}
		if err := m.BindWriter(chName, w); err != nil {
			t.Fatal(err)
		}
	}
	res := m.Run()
	outs := map[string][]vm.Snapshot{}
	for chName, r := range readers {
		outs[chName] = r.Values
	}
	log.Sync()
	return renderAll(prog, res.String(), m.Fault(), m.Cycles, m.Stats, outs, eventSum(log.Snapshot(0)))
}

func compiledRender(t *testing.T, src, name string, req *Request) string {
	t.Helper()
	runner, err := Build(src, BuildOptions{Name: name, File: name + ".esp", VerifyIR: true, CacheDir: t.TempDir()})
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	res, err := runner.Run(req)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	prog, err := esplang.Compile(src, esplang.CompileOptions{Name: name, File: name + ".esp", VerifyIR: true})
	if err != nil {
		t.Fatal(err)
	}
	return renderAll(prog, res.Result.String(), res.Fault, res.Cycles, res.Stats, res.Outputs, res.Trace)
}

// renderAll is the shared observable rendering: result, fault (with
// file:line), cycle meter, statistics (DirectXfers zeroed — diagnostic
// only), per-channel outputs in declaration order, trace hash.
func renderAll(prog *esplang.Program, result string, f *vm.Fault, cycles int64, st vm.Stats, outs map[string][]vm.Snapshot, trace string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "result: %s\n", result)
	if f != nil {
		fmt.Fprintf(&b, "fault: %v\n", f)
	} else {
		b.WriteString("fault: none\n")
	}
	st.DirectXfers = 0
	fmt.Fprintf(&b, "cycles: %d\nstats: %+v\n", cycles, st)
	for _, ch := range prog.IR.Channels {
		vals, ok := outs[ch.Name]
		if !ok {
			continue
		}
		fmt.Fprintf(&b, "%s:", ch.Name)
		for _, v := range vals {
			fmt.Fprintf(&b, " %d", v.Scalar)
		}
		b.WriteString("\n")
	}
	fmt.Fprintf(&b, "trace: %s\n", trace)
	return b.String()
}

func scalarItems(vals []int64) []Item {
	items := make([]Item, len(vals))
	for i, v := range vals {
		items[i] = Item{Case: 0, Val: Scalar(v)}
	}
	return items
}

func TestCompiledMatchesBaselineAdd5(t *testing.T) {
	requireToolchain(t)
	vals := []int64{1, 7, 42, -3, 100, 5}
	req := &Request{
		MaxLive: 64,
		Trace:   true,
		Writers: map[string][]Item{"inC": scalarItems(vals)},
		Readers: map[string]int{"outC": 0},
	}
	base := baselineRender(t, add5Src, "add5", req, map[string][]int64{"inC": vals})
	got := compiledRender(t, add5Src, "add5", req)
	if got != base {
		t.Errorf("compiled run diverges from baseline:\n--- baseline ---\n%s--- compiled ---\n%s", base, got)
	}
}

func TestCompiledMatchesBaselineDirectTransfer(t *testing.T) {
	requireToolchain(t)
	req := &Request{
		MaxLive: 64,
		Trace:   true,
		Writers: map[string][]Item{},
		Readers: map[string]int{"done": 0},
	}
	base := baselineRender(t, pingpongSrc, "pingpong", req, nil)
	got := compiledRender(t, pingpongSrc, "pingpong", req)
	if got != base {
		t.Errorf("compiled run diverges from baseline:\n--- baseline ---\n%s--- compiled ---\n%s", base, got)
	}
	// The direct-transfer lowering must actually be exercised: the
	// generated source carries the fast-path bridge calls.
	prog, err := esplang.Compile(pingpongSrc, esplang.CompileOptions{Name: "pingpong", File: "pingpong.esp", VerifyIR: true})
	if err != nil {
		t.Fatal(err)
	}
	src, err := Emit(prog, Options{VerifyIR: true})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(src, "CGSendDirScalar") || !strings.Contains(src, "CGRecvDirScalar") {
		t.Errorf("statically-matched scalar channel did not lower to direct transfers:\n%s", src)
	}
}

// TestCompiledFusedPairQuiet: the statically-paired pingpong processes
// must compile into a fused function guarded by quiet-machine
// dispatchers, and a quiet run — which actually executes the fused fast
// path with its inline rendezvous and deferred context switches — must
// report the same result, cycles, stats, and outputs as the traced
// baseline (which cannot produce a trace digest to compare, so that
// line is spliced out of both renders).
func TestCompiledFusedPairQuiet(t *testing.T) {
	requireToolchain(t)
	prog, err := esplang.Compile(pingpongSrc, esplang.CompileOptions{Name: "pingpong", File: "pingpong.esp", VerifyIR: true})
	if err != nil {
		t.Fatal(err)
	}
	src, err := Emit(prog, Options{VerifyIR: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"func fused0x1", "CGQuiet", "CGXfer(", "step0gen", "step1gen"} {
		if !strings.Contains(src, want) {
			t.Errorf("generated source missing %q: fused pair not emitted as designed", want)
		}
	}

	traced := &Request{MaxLive: 64, Trace: true, Writers: map[string][]Item{}, Readers: map[string]int{"done": 0}}
	quiet := &Request{MaxLive: 64, Writers: map[string][]Item{}, Readers: map[string]int{"done": 0}}
	base := baselineRender(t, pingpongSrc, "pingpong", traced, nil)
	got := compiledRender(t, pingpongSrc, "pingpong", quiet)
	splice := func(s string) string {
		if i := strings.LastIndex(s, "trace: "); i >= 0 {
			return s[:i]
		}
		return s
	}
	if splice(got) != splice(base) {
		t.Errorf("fused quiet run diverges from baseline:\n--- baseline ---\n%s--- fused quiet ---\n%s", splice(base), splice(got))
	}
}

func TestCompiledFaultFileLine(t *testing.T) {
	requireToolchain(t)
	req := &Request{
		MaxLive: 64,
		Trace:   true,
		Writers: map[string][]Item{},
		Readers: map[string]int{"outC": 0},
	}
	base := baselineRender(t, faultSrc, "boom", req, nil)
	got := compiledRender(t, faultSrc, "boom", req)
	if got != base {
		t.Errorf("compiled fault diverges from baseline:\n--- baseline ---\n%s--- compiled ---\n%s", base, got)
	}
	if !strings.Contains(got, "boom.esp:5") {
		t.Errorf("compiled fault lost the source file:line:\n%s", got)
	}
}

func TestBuildCache(t *testing.T) {
	requireToolchain(t)
	cache := t.TempDir()
	r1, err := Build(add5Src, BuildOptions{Name: "add5", File: "add5.esp", CacheDir: cache})
	if err != nil {
		t.Fatal(err)
	}
	if r1.Cached {
		t.Error("first build unexpectedly reported a cache hit")
	}
	r2, err := Build(add5Src, BuildOptions{Name: "add5", File: "add5.esp", CacheDir: cache})
	if err != nil {
		t.Fatal(err)
	}
	if !r2.Cached {
		t.Error("second build missed the cache")
	}
	if r1.Bin != r2.Bin {
		t.Errorf("cache key unstable: %s vs %s", r1.Bin, r2.Bin)
	}
}

func TestNoToolchain(t *testing.T) {
	t.Setenv("PATH", t.TempDir())
	if _, err := Build(add5Src, BuildOptions{Name: "add5"}); !errors.Is(err, ErrNoToolchain) {
		t.Errorf("Build without a toolchain: got %v, want ErrNoToolchain", err)
	}
}

func TestWriteTree(t *testing.T) {
	prog, err := esplang.Compile(add5Src, esplang.CompileOptions{Name: "add5", File: "add5.esp"})
	if err != nil {
		t.Fatal(err)
	}
	src, err := Emit(prog, Options{})
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "gen")
	if err := WriteTree(dir, src); err != nil {
		t.Fatal(err)
	}
	for _, f := range []string{"main.go", "go.mod"} {
		if _, err := os.Stat(filepath.Join(dir, f)); err != nil {
			t.Errorf("WriteTree did not produce %s: %v", f, err)
		}
	}
}
