package esplang_test

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"path/filepath"
	"strings"
	"testing"

	esplang "esplang"
	"esplang/internal/gobackend"
	"esplang/internal/ir"
	"esplang/internal/obs"
)

// Differential tests for the fourth engine tier: the AOT-compiled native
// engine runs each sample program in a generated subprocess and must be
// observationally indistinguishable from the in-process baseline — same
// run result, same fault (down to file:line), same cycle meter, same
// statistics, same output snapshots, and the same event-trace digest.
// Everything skips cleanly when the host has no Go toolchain.

func requireToolchain(t *testing.T) {
	t.Helper()
	if _, err := gobackend.Toolchain(); err != nil {
		t.Skipf("compiled engine unavailable: %v", err)
	}
}

func traceSum(evs []obs.Event) string {
	h := fnv.New64a()
	for _, e := range evs {
		fmt.Fprintln(h, e)
	}
	return fmt.Sprintf("%d events, fnv %x", len(evs), h.Sum64())
}

// compiledRequest mirrors feedInputs as a wire request: the same input
// scripts for the same channels, serialized as value trees the generated
// binary rebuilds children-first.
func compiledRequest(t *testing.T, prog *esplang.Program, trace bool) *gobackend.Request {
	t.Helper()
	req := &gobackend.Request{
		MaxLive: 64,
		Trace:   trace,
		Writers: map[string][]gobackend.Item{},
		Readers: map[string]int{},
	}
	for _, ch := range prog.IR.Channels {
		switch ch.Ext {
		case ir.ExtReader:
			req.Readers[ch.Name] = 0
		case ir.ExtWriter:
			switch ch.Name {
			case "inC": // add5.esp / fifo.esp: interface feed, Put($v)
				var items []gobackend.Item
				for _, v := range []int64{1, 7, 42, -3, 100, 5} {
					items = append(items, gobackend.Item{Case: 0, Val: gobackend.Scalar(v)})
				}
				req.Writers[ch.Name] = items
			case "userReqC": // appendixb.esp: Send / Update union cases
				userT := ch.Elem
				sendT, updateT := userT.Fields[0].Type, userT.Fields[1].Type
				update := func(vaddr, paddr int64) gobackend.Item {
					return gobackend.Item{Case: 1, Val: gobackend.Union(userT.ID(), 1,
						gobackend.Record(updateT.ID(), gobackend.Scalar(vaddr), gobackend.Scalar(paddr)))}
				}
				send := func(dest, vaddr, size int64) gobackend.Item {
					return gobackend.Item{Case: 0, Val: gobackend.Union(userT.ID(), 0,
						gobackend.Record(sendT.ID(), gobackend.Scalar(dest), gobackend.Scalar(vaddr), gobackend.Scalar(size)))}
				}
				req.Writers[ch.Name] = []gobackend.Item{
					update(3, 777), update(5, 1234),
					send(9, 3, 4), send(2, 5, 2), send(7, 12, 3),
				}
			default:
				t.Fatalf("no input script for external writer %q", ch.Name)
			}
		}
	}
	return req
}

// compiledBaselineRun runs path in-process under the baseline engine with
// the canonical inputs, rendering the full observable surface the
// subprocess protocol carries. With trace set an event log is attached
// and its digest included; without it the machine is quiet — the
// configuration under which the generated dispatchers take the fused
// fast path on the compiled side.
func compiledBaselineRun(t *testing.T, path string, trace bool) string {
	t.Helper()
	prog, err := esplang.CompileFile(path, esplang.CompileOptions{VerifyIR: true})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	m := prog.Machine(esplang.MachineConfig{MaxLiveObjects: 64, Engine: esplang.EngineBaseline})
	if trace {
		m.SetRecorder(obs.NewEventLog())
	}
	readers := feedInputs(t, prog, m)
	res := m.Run()

	var b bytes.Buffer
	fmt.Fprintf(&b, "result: %v\n", res)
	if f := m.Fault(); f != nil {
		fmt.Fprintf(&b, "fault: %v\n", f)
	} else {
		b.WriteString("fault: none\n")
	}
	st := m.Stats
	st.DirectXfers = 0
	fmt.Fprintf(&b, "cycles: %d\nstats: %+v\n", m.Cycles, st)
	for _, ch := range prog.IR.Channels {
		r, ok := readers[ch.Name]
		if !ok {
			continue
		}
		fmt.Fprintf(&b, "%s:", ch.Name)
		for _, v := range r.Values {
			b.WriteString(" ")
			b.WriteString(renderSnap(v))
		}
		b.WriteString("\n")
	}
	if trace {
		m.Recorder().Sync()
		fmt.Fprintf(&b, "trace: %s\n", traceSum(m.Recorder().Snapshot(0)))
	}
	return b.String()
}

// compiledEngineRun builds path with the Go backend and runs the
// generated binary with the same inputs, rendering identically.
func compiledEngineRun(t *testing.T, path string, trace bool) string {
	t.Helper()
	prog, err := esplang.CompileFile(path, esplang.CompileOptions{VerifyIR: true})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	runner, err := gobackend.BuildProgram(prog, gobackend.BuildOptions{
		Name: prog.Name, File: prog.File, VerifyIR: true,
	})
	if err != nil {
		t.Fatalf("build generated package: %v", err)
	}
	res, err := runner.Run(compiledRequest(t, prog, trace))
	if err != nil {
		t.Fatalf("run generated binary: %v", err)
	}

	var b bytes.Buffer
	fmt.Fprintf(&b, "result: %v\n", res.Result)
	if res.Fault != nil {
		fmt.Fprintf(&b, "fault: %v\n", res.Fault)
	} else {
		b.WriteString("fault: none\n")
	}
	st := res.Stats
	st.DirectXfers = 0
	fmt.Fprintf(&b, "cycles: %d\nstats: %+v\n", res.Cycles, st)
	for _, ch := range prog.IR.Channels {
		vals, ok := res.Outputs[ch.Name]
		if !ok {
			continue
		}
		fmt.Fprintf(&b, "%s:", ch.Name)
		for _, v := range vals {
			b.WriteString(" ")
			b.WriteString(renderSnap(v))
		}
		b.WriteString("\n")
	}
	if trace {
		fmt.Fprintf(&b, "trace: %s\n", res.Trace)
	}
	return b.String()
}

// TestEngineDifferentialCompiled: every sample program behaves
// identically under the AOT-compiled engine and the baseline — the
// fourth column of the engine matrix. Each program runs twice: traced
// (the child attaches an event log, so the generated dispatchers use
// the general per-process functions and the trace digests must match)
// and quiet (no observers, so statically-paired processes run through
// the fused fast path with inline rendezvous and deferred context
// switches — cycles and stats must still be bit-identical).
func TestEngineDifferentialCompiled(t *testing.T) {
	requireToolchain(t)
	files, err := filepath.Glob("testdata/*.esp")
	if err != nil || len(files) == 0 {
		t.Fatalf("no testdata programs found: %v", err)
	}
	for _, f := range files {
		for _, mode := range []struct {
			name  string
			trace bool
		}{{"traced", true}, {"quiet", false}} {
			t.Run(filepath.Base(f)+"/"+mode.name, func(t *testing.T) {
				base := compiledBaselineRun(t, f, mode.trace)
				got := compiledEngineRun(t, f, mode.trace)
				if got != base {
					t.Errorf("compiled engine diverges from baseline:\n--- baseline ---\n%s--- compiled ---\n%s", base, got)
				}
			})
		}
	}
}

// TestEngineDifferentialCompiledFaults: the generated code materializes
// the exact baseline fault for every seeded fault program, including the
// source file:line carried across the subprocess boundary.
func TestEngineDifferentialCompiledFaults(t *testing.T) {
	requireToolchain(t)
	for _, tc := range faultPrograms {
		t.Run(tc.name, func(t *testing.T) {
			prog, err := esplang.Compile(tc.src, esplang.CompileOptions{File: tc.name + ".esp"})
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			m := prog.Machine(esplang.MachineConfig{Engine: esplang.EngineBaseline})
			if err := m.BindReader("outC", &esplang.CollectReader{}); err != nil {
				t.Fatal(err)
			}
			m.Run()
			f := m.Fault()
			if f == nil {
				t.Fatal("baseline: expected a fault")
			}
			st := m.Stats
			st.DirectXfers = 0
			base := fmt.Sprintf("fault: %v\ncycles: %d\nstats: %+v\n", f, m.Cycles, st)

			runner, err := gobackend.BuildProgram(prog, gobackend.BuildOptions{File: tc.name + ".esp"})
			if err != nil {
				t.Fatalf("build generated package: %v", err)
			}
			res, err := runner.Run(&gobackend.Request{Readers: map[string]int{"outC": 0}})
			if err != nil {
				t.Fatalf("run generated binary: %v", err)
			}
			if res.Fault == nil {
				t.Fatal("compiled: expected a fault")
			}
			cst := res.Stats
			cst.DirectXfers = 0
			got := fmt.Sprintf("fault: %v\ncycles: %d\nstats: %+v\n", res.Fault, res.Cycles, cst)
			if got != base {
				t.Errorf("compiled fault diverges:\n--- baseline ---\n%s--- compiled ---\n%s", base, got)
			}
			if !strings.Contains(got, tc.name+".esp:") {
				t.Errorf("compiled fault lost its source location:\n%s", got)
			}
		})
	}
}
