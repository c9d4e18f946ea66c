package main

import (
	"runtime/metrics"
	"time"
)

// layers accumulates what the traced run measures at the layer
// boundaries the benchmark can reach from outside the program.
type layers struct {
	fig5 struct {
		points, msgs                            int64
		buildNs, pointNs, kernelNs, fwNs        int64 // host time
		runs, events, cycles                    int64
		instrs, ctxSwitches, rendezvous, allocs int64
	}
	verify struct {
		jobs, ns, states, transitions, memBytes int64
		frontierPeak                            int
		ampleStates, fullStates                 int64
		provisoFallbacks, deferred              int64
	}
	gc gcSample // heap allocation inside the traced calls

	// overhead holds traced/untraced host time, one ratio per item.
	overhead []float64
	// window brackets the whole measured loop for the GC CPU share.
	window [2]gcSample
}

func (l *layers) addGC(d gcSample) {
	l.gc.allocBytes += d.allocBytes
	l.gc.allocObjects += d.allocObjects
}

func (l *layers) addOverhead(traced, untraced time.Duration) {
	l.overhead = append(l.overhead, ratio(float64(traced), float64(untraced)))
}

// gcSample is a reading of the runtime's cumulative counters.
type gcSample struct {
	allocBytes, allocObjects float64
	gcCPU, totalCPU, idleCPU float64
}

var gcMetricNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
}

func readGC() gcSample {
	s := make([]metrics.Sample, len(gcMetricNames))
	for i, n := range gcMetricNames {
		s[i].Name = n
	}
	metrics.Read(s)
	v := make([]float64, len(s))
	for i := range s {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			v[i] = float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			v[i] = s[i].Value.Float64()
		}
	}
	return gcSample{v[0], v[1], v[2], v[3], v[4]}
}

func (a gcSample) sub(b gcSample) gcSample {
	return gcSample{a.allocBytes - b.allocBytes, a.allocObjects - b.allocObjects,
		a.gcCPU - b.gcCPU, a.totalCPU - b.totalCPU, a.idleCPU - b.idleCPU}
}

// metrics returns every per-layer metric. A layer the workload does not
// exercise reports 0.
func (l *layers) metrics(cpu map[string]float64) map[string]metric {
	f, v := &l.fig5, &l.verify
	msgs := float64(f.msgs)
	out := map[string]metric{
		"vmmc.cluster_build_us":   {ratio(float64(f.buildNs)/1e3, float64(f.points)), "us"},
		"vm.share":                {ratio(float64(f.fwNs), float64(f.pointNs)), "share"},
		"vm.ns_per_run":           {ratio(float64(f.fwNs), float64(f.runs)), "ns"},
		"vm.runs_per_msg":         {ratio(float64(f.runs), msgs), "count"},
		"vm.instrs_per_msg":       {ratio(float64(f.instrs), msgs), "count"},
		"vm.ctx_switches_per_msg": {ratio(float64(f.ctxSwitches), msgs), "count"},
		"vm.rendezvous_per_msg":   {ratio(float64(f.rendezvous), msgs), "count"},
		"vm.allocs_per_msg":       {ratio(float64(f.allocs), msgs), "count"},
		"nic.cycles_per_msg":      {ratio(float64(f.cycles), msgs), "cycles"},
		"sim.events_per_msg":      {ratio(float64(f.events), msgs), "count"},
		"sim.ns_per_event":        {ratio(float64(f.kernelNs-f.fwNs), float64(f.events)), "ns"},

		"mc.states":                  {ratio(float64(v.states), float64(v.jobs)), "count"},
		"mc.transitions":             {ratio(float64(v.transitions), float64(v.jobs)), "count"},
		"mc.states_per_s":            {ratio(float64(v.states), float64(v.ns)/1e9), "1/s"},
		"mc.visited_bytes_per_state": {ratio(float64(v.memBytes), float64(v.states)), "B"},
		"mc.frontier_peak":           {float64(v.frontierPeak), "count"},
		"mc.por.hit_rate":            {ratio(float64(v.ampleStates), float64(v.ampleStates+v.fullStates)), "share"},
		"mc.por.proviso_fallbacks":   {ratio(float64(v.provisoFallbacks), float64(v.jobs)), "count"},
		"mc.por.deferred_per_state":  {ratio(float64(v.deferred), float64(v.ampleStates+v.fullStates)), "count"},

		"gc.bytes_per_msg":     {ratio(l.gc.allocBytes, msgs), "B"},
		"gc.objects_per_msg":   {ratio(l.gc.allocObjects, msgs), "count"},
		"gc.bytes_per_state":   {ratio(l.gc.allocBytes, float64(v.states)), "B"},
		"gc.objects_per_state": {ratio(l.gc.allocObjects, float64(v.states)), "count"},
		"trace.overhead":       {median(l.overhead) - 1, "share"},
	}
	w := l.window[1].sub(l.window[0])
	out["gc.cpu_share"] = metric{ratio(w.gcCPU, w.totalCPU-w.idleCPU), "share"}
	for _, layer := range cpuLayers {
		out["cpu."+layer] = metric{cpu[layer], "share"}
	}
	return out
}
