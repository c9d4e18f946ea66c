package vm

import (
	"strings"
	"testing"

	"esplang/internal/check"
	"esplang/internal/compile"
	"esplang/internal/ir"
	"esplang/internal/opt"
	"esplang/internal/parser"
)

// TestFastPathSelection pins how New picks the fused engine's fast paths
// from the machine and the program: the schedule-narrowed scans need an
// auto bit-mask machine and a schedule, element-storage recycling needs
// a machine that is not Manual, and the direct-transfer translation
// exists only when the optimizer computed a schedule.
func TestFastPathSelection(t *testing.T) {
	// One statically-matched channel: the schedule fuses it.
	ast, err := parser.Parse([]byte(`
channel c: int
process producer { $i = 0; while (i < 3) { out( c, i); i = i + 1; } }
process consumer { $n = 0; while (n < 3) { in( c, $v); n = n + 1; } }
`))
	if err != nil {
		t.Fatal(err)
	}
	info, err := check.Check(ast)
	if err != nil {
		t.Fatal(err)
	}
	noFuse := opt.All()
	noFuse.FuseProcs = false
	for _, tc := range []struct {
		name                 string
		opts                 opt.Options
		cfg                  Config
		sched, recycle, dirs bool
	}{
		{"auto-bitmask", opt.All(), Config{}, true, true, true},
		{"manual", opt.All(), Config{Manual: true}, false, false, true},
		{"wait-queues", opt.All(), Config{UseWaitQueues: true}, false, true, true},
		{"fuseprocs-off", noFuse, Config{}, false, true, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			prog := compile.Program(ast, info)
			if _, err := opt.Run(prog, tc.opts); err != nil {
				t.Fatal(err)
			}
			m := New(prog, tc.cfg)
			dirs := false
			for _, fp := range m.fused {
				for _, fi := range fp.Code {
					dirs = dirs || fi.Op == ir.FSendDir || fi.Op == ir.FRecvDir || fi.Op == ir.FXferRec
				}
			}
			if got := m.sched != nil; got != tc.sched {
				t.Errorf("schedule-narrowed scans %v, want %v", got, tc.sched)
			}
			if m.heap.recycle != tc.recycle {
				t.Errorf("element recycling %v, want %v", m.heap.recycle, tc.recycle)
			}
			if dirs != tc.dirs {
				t.Errorf("direct-transfer instructions %v, want %v", dirs, tc.dirs)
			}
			if tc.cfg.Manual {
				return // the model checker drives Manual machines
			}
			if res := m.Run(); res != RunHalted {
				t.Fatalf("run result %v (fault: %v)", res, m.Fault())
			}
			if got := m.Stats.DirectXfers > 0; got != tc.sched {
				t.Errorf("direct transfers taken %v (%d), want %v", got, m.Stats.DirectXfers, tc.sched)
			}
		})
	}
}

// TestParseEngine: the two tiers round-trip through their names, and
// any other name — the retired process-fused and compiled tiers'
// included — is an error that lists exactly baseline and fused.
func TestParseEngine(t *testing.T) {
	for _, e := range []Engine{EngineBaseline, EngineFused} {
		if got, err := ParseEngine(e.String()); err != nil || got != e {
			t.Errorf("ParseEngine(%q) = %v, %v", e, got, err)
		}
	}
	for _, retired := range []string{"proc" + "fused", "compiled"} {
		_, err := ParseEngine(retired)
		if err == nil {
			t.Fatalf("ParseEngine(%q) succeeded", retired)
		}
		_, listed, _ := strings.Cut(err.Error(), "(want ")
		if listed != "baseline or fused)" {
			t.Errorf("ParseEngine(%q) error %q lists %q, want only baseline and fused", retired, err, listed)
		}
	}
}
