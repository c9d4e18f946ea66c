package obs

import "testing"

// BenchmarkRecordID measures the recorder's per-event hot path as the
// VM drives it: pre-interned name ID, packed proc/arg and kind/name
// words, staging-buffer store. BenchmarkRendezvousRecorder against
// BenchmarkRendezvousDisabledTracer (internal/vm) measures the same cost
// on the VM's rendezvous path.
func BenchmarkRecordID(b *testing.B) {
	r := NewFlightRecorder(0)
	id := r.Intern("c")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Record(int64(i), PA(0, 1), NK(EvRendezvous, id))
	}
}
