package main

import (
	"fmt"
	"math/rand"
	"time"

	esplang "esplang"
	"esplang/internal/nic"
	"esplang/internal/vmmc"
)

// Fig. 5 point kinds.
const (
	pingPong = "pingpong" // one message in flight; result: one-way latency, ns
	oneWay   = "oneway"   // 8 outstanding from node 0; result: MB/s
	bidir    = "bidir"    // 8 outstanding per sender; result: total MB/s
)

// point is one Fig. 5 measurement: a fresh two-node cluster running the
// ESP firmware, driven by one of vmmc's closed-loop drivers.
type point struct {
	Kind  string `json:"kind"`
	Size  int    `json:"size"`
	Count int    `json:"count"` // ping-pong rounds, or messages per sender
}

// fig5Catalogue is the fixed set of point types with their message
// counts. Each point takes 20–45 ms of host time on a 2-CPU Xeon VM.
var fig5Catalogue = []point{
	{pingPong, 4, 1000}, {pingPong, 64, 1000}, {pingPong, 512, 1000}, {pingPong, 4096, 1000},
	{oneWay, 64, 2000}, {oneWay, 1024, 2000}, {oneWay, 4096, 2000}, {oneWay, 65536, 200},
	{bidir, 64, 1000}, {bidir, 1024, 1000}, {bidir, 4096, 1000},
}

var fig5Cfg = nic.DefaultConfig()

func fig5Workload() *workload {
	return &workload{
		name: "fig5",
		params: map[string]any{
			"points": fig5Catalogue,
			"engine": esplang.EngineFused.String(),
			"flavor": vmmc.ESP.String(),
		},
		setup: func(rep int) error {
			if rep > 0 {
				if _, err := esplang.Compile(vmmc.ESPSource(fig5Cfg), esplang.CompileOptions{Name: "vmmcESP"}); err != nil {
					return err
				}
			}
			_, err := vmmc.NewCluster(vmmc.ESP, fig5Cfg)
			return err
		},
		pass: func(rng *rand.Rand) []item {
			items := make([]item, len(fig5Catalogue))
			for i, j := range rng.Perm(len(fig5Catalogue)) {
				items[i] = fig5Catalogue[j]
			}
			return items
		},
		beforeItem: func() {},
	}
}

func (p point) name() string { return fmt.Sprintf("%s/%dB", p.Kind, p.Size) }

// msgs is the number of messages the point delivers.
func (p point) msgs() int64 {
	if p.Kind == oneWay {
		return int64(p.Count)
	}
	return 2 * int64(p.Count)
}

// simulate runs the point through vmmc's public driver and returns the
// simulated latency (ns) or bandwidth (MB/s).
func (p point) simulate() (float64, error) {
	switch p.Kind {
	case pingPong:
		return vmmc.PingPong(vmmc.ESP, fig5Cfg, p.Size, p.Count)
	case oneWay:
		return vmmc.OneWay(vmmc.ESP, fig5Cfg, p.Size, p.Count)
	case bidir:
		return vmmc.Bidirectional(vmmc.ESP, fig5Cfg, p.Size, p.Count)
	}
	return 0, fmt.Errorf("unknown point kind %q", p.Kind)
}

func (p point) run() (int64, error) {
	v, err := p.simulate()
	if err != nil {
		return 0, err
	}
	return p.msgs(), checkPoint(p, v)
}

// checkPoint compares a simulated result with the reference table.
func checkPoint(p point, v float64) error {
	want, ok := reference.fig5Value(p)
	if !ok {
		return fmt.Errorf("no reference value")
	}
	if v != want {
		return fmt.Errorf("simulated result %v, reference %v", v, want)
	}
	return nil
}

// timedFW decorates a NIC's firmware with a host-time meter.
type timedFW struct {
	inner nic.Firmware
	ns    int64
	runs  int64
}

func (t *timedFW) Name() string { return t.inner.Name() }

func (t *timedFW) Run(n *nic.NIC) int64 {
	t0 := time.Now()
	c := t.inner.Run(n)
	t.ns += int64(time.Since(t0))
	t.runs++
	return c
}

// runTraced repeats the point on a cluster the benchmark builds itself:
// NewCluster and Kernel.Run are timed, each NIC's firmware is wrapped in a
// timedFW, and the drivers are those of vmmc.PingPong, OneWay and
// Bidirectional, so the simulated result must equal the reference too.
func (p point) runTraced(l *layers) (int64, error) {
	g0 := readGC()
	t0 := time.Now()
	c, err := vmmc.NewCluster(vmmc.ESP, fig5Cfg)
	build := time.Since(t0)
	if err != nil {
		return 0, err
	}
	var fws [2]*timedFW
	for i, n := range c.NICs {
		fws[i] = &timedFW{inner: n.FW}
		n.FW = fws[i]
	}
	delivered := func() int64 { return int64(len(c.Hosts[0].Recvd) + len(c.Hosts[1].Recvd)) }
	start := c.K.Now()
	switch p.Kind {
	case pingPong:
		remaining := p.Count
		c.Hosts[1].OnRecv = func(nic.Notification) {
			if remaining > 0 {
				c.Hosts[1].Send(0, 0, p.Size)
			}
		}
		c.Hosts[0].OnRecv = func(nic.Notification) {
			remaining--
			if remaining > 0 {
				c.Hosts[0].Send(0, 0, p.Size)
			}
		}
		c.Hosts[0].Send(0, 0, p.Size)
	case oneWay, bidir:
		const outstanding = 8
		senders := 1
		if p.Kind == bidir {
			senders = 2
		}
		var posted [2]int
		post := func(side int) {
			for posted[side] < p.Count && posted[side]-len(c.Hosts[1-side].Recvd) < outstanding {
				c.Hosts[side].Send(0, 0, p.Size)
				posted[side]++
			}
		}
		c.Hosts[1].OnRecv = func(nic.Notification) { post(0) }
		if senders == 2 {
			c.Hosts[0].OnRecv = func(nic.Notification) { post(1) }
		}
		for side := 0; side < senders; side++ {
			post(side)
		}
	}
	k0 := time.Now()
	events := c.K.Run(nil)
	kernel := time.Since(k0)
	total := time.Since(t0)
	g1 := readGC()

	if got := delivered(); got != p.msgs() {
		return 0, fmt.Errorf("stalled: %d/%d messages delivered", got, p.msgs())
	}
	elapsed := c.K.Now() - start
	var v float64
	if p.Kind == pingPong {
		v = float64(elapsed) / float64(2*p.Count)
	} else {
		v = float64(int64(p.Size)*p.msgs()) / float64(elapsed) * 1e9 / 1e6
	}

	f := &l.fig5
	f.points++
	f.msgs += p.msgs()
	f.buildNs += int64(build)
	f.pointNs += int64(total)
	f.kernelNs += int64(kernel)
	f.events += int64(events)
	for i, fw := range fws {
		f.fwNs += fw.ns
		f.runs += fw.runs
		f.cycles += c.NICs[i].CPUCycles
		esp, ok := fw.inner.(*vmmc.ESPFirmware)
		if !ok {
			return 0, fmt.Errorf("NIC %d does not run the ESP firmware", i)
		}
		st := esp.Machine().Stats
		f.instrs += st.Instrs
		f.ctxSwitches += st.CtxSwitches
		f.rendezvous += st.Rendezvous
		f.allocs += st.Allocs
	}
	l.addGC(g1.sub(g0))
	return p.msgs(), checkPoint(p, v)
}
