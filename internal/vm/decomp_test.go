package vm_test

import (
	"testing"

	"esplang/internal/opt"
	"esplang/internal/vm"
)

// TestCycleDecompositionExact pins the §6.2 accounting identity on every
// engine: the cycle meter is exactly the dot product of the event counters
// with the cost model. There is no Frees term (a free is bookkeeping the
// collector does between instructions, never charged), and DirectXfers —
// the fused engine's diagnostic — must contribute nothing: a direct
// transfer is a rendezvous that already paid the Rendezvous price.
func TestCycleDecompositionExact(t *testing.T) {
	var cycles [2]int64
	for i, eng := range []vm.Engine{vm.EngineBaseline, vm.EngineFused} {
		t.Run(eng.String(), func(t *testing.T) {
			prog := compileSrc(t, pingPongSrc)
			if _, err := opt.Run(prog, opt.All()); err != nil {
				t.Fatalf("opt: %v", err)
			}
			m := vm.New(prog, vm.Config{Engine: eng})
			if err := m.BindReader("outC", &vm.CollectReader{}); err != nil {
				t.Fatal(err)
			}
			if res := m.Run(); res == vm.RunFault {
				t.Fatalf("run result %v (fault: %v)", res, m.Fault())
			}
			c := m.Cost
			s := m.Stats
			want := s.Instrs*c.PerInstr +
				s.CtxSwitches*c.CtxSwitch +
				s.Rendezvous*c.Rendezvous +
				s.Allocs*c.Alloc +
				s.RefOps*c.RefOp +
				s.PatternNodes*c.PatternNode +
				s.MaskChecks*c.MaskCheck +
				s.QueueOps*c.QueueOp +
				s.Polls*c.ExternalPoll +
				s.DeepCopied*c.DeepCopyWord
			if m.Cycles != want {
				t.Errorf("cycle meter %d, decomposition says %d (stats: %s)",
					m.Cycles, want, s)
			}
			if eng == vm.EngineFused {
				if s.DirectXfers == 0 {
					t.Error("fused engine took no direct transfers on a fusable pair")
				}
				if s.DirectXfers > s.Rendezvous {
					t.Errorf("directxfers %d exceeds rendezvous %d", s.DirectXfers, s.Rendezvous)
				}
			} else if s.DirectXfers != 0 {
				t.Errorf("engine %v counted %d direct transfers", eng, s.DirectXfers)
			}
			cycles[i] = m.Cycles
		})
	}
	if cycles[0] != cycles[1] {
		t.Errorf("engines disagree on total cycles: baseline=%d fused=%d", cycles[0], cycles[1])
	}
}
