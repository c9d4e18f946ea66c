// The generated file's fixed parts: the package header and the JSON
// harness appended after the emitted step functions. The harness
// declares its own copies of the wire structs from run.go (the child
// module can only import the public esplang package), rebuilds input
// value trees children-first, computes the fuzz oracle's trace hash
// over a full event recorder (esplang.NewEventLog), and answers one
// request line per invocation.
package gobackend

const genHeader = `
package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"time"

	esplang "esplang"
)

// b2i is the generated code's boolean constructor: comparison results
// become machine values without the indirect call through the public
// esplang.BoolVal function variable.
func b2i(b bool) esplang.Value {
	if b {
		return esplang.Value{Int: 1}
	}
	return esplang.Value{Int: 0}
}

`

const genHarness = `
// ---- wire protocol (mirrors esplang/internal/gobackend) ----

type tree struct {
	K string
	I int64
	T int
	G int
	N int
	E []*tree
}

type item struct {
	Case int
	Val  *tree
}

type request struct {
	MaxLive    int
	StepBudget int64
	MaxCycles  int64
	Trace      bool
	Repeat     int
	Writers    map[string][]item
	Readers    map[string]int
}

type wireFault struct {
	Kind int
	Msg  string
	Proc string
	PC   int
	Line int
	Col  int
	Off  int
	File string
}

type wireSnap struct {
	S int64
	O *wireObj
}

type wireObj struct {
	Tag int
	E   []wireSnap
}

type reply struct {
	Result  int
	Fault   *wireFault
	Cycles  int64
	Stats   esplang.MachineStats
	Outputs map[string][]wireSnap
	Trace   string
	NS      int64
	Error   string
}

// buildVal rebuilds one serialized value, children before parents —
// the order the in-process harnesses construct nested inputs — so the
// allocation charge and trace sequences match bit-for-bit.
func buildVal(m *esplang.Machine, t *tree) esplang.Value {
	switch t.K {
	case "r":
		elems := make([]esplang.Value, len(t.E))
		for i, c := range t.E {
			elems[i] = buildVal(m, c)
		}
		return m.NewRecordVByID(t.T, elems...)
	case "u":
		return m.NewUnionVByID(t.T, t.G, buildVal(m, t.E[0]))
	case "a":
		return m.NewArrayVByID(t.T, t.N, buildVal(m, t.E[0]))
	}
	return esplang.IntVal(t.I)
}

func snapToWire(s esplang.Snapshot) wireSnap {
	if s.Obj == nil {
		return wireSnap{S: s.Scalar}
	}
	o := &wireObj{Tag: s.Obj.Tag, E: make([]wireSnap, len(s.Obj.Elems))}
	for i, c := range s.Obj.Elems {
		o.E[i] = snapToWire(c)
	}
	return wireSnap{O: o}
}

func runOnce(prog *esplang.Program, req *request) (rep reply) {
	defer func() {
		if r := recover(); r != nil {
			rep.Error = fmt.Sprintf("panic in generated run: %v", r)
		}
	}()
	m := prog.Machine(esplang.MachineConfig{
		MaxLiveObjects: req.MaxLive,
		StepBudget:     req.StepBudget,
		MaxCycles:      req.MaxCycles,
		Engine:         esplang.EngineCompiled,
	})
	if err := m.InstallCompiled(compiledProcs); err != nil {
		rep.Error = err.Error()
		return rep
	}
	if req.Trace {
		m.SetRecorder(esplang.NewEventLog())
	}
	for name, items := range req.Writers {
		q := new(esplang.QueueWriter)
		for _, it := range items {
			it := it
			q.Push(it.Case, func(mm *esplang.Machine) esplang.Value { return buildVal(mm, it.Val) })
		}
		if err := m.BindWriter(name, q); err != nil {
			rep.Error = err.Error()
			return rep
		}
	}
	readers := map[string]*esplang.CollectReader{}
	for name, limit := range req.Readers {
		r := &esplang.CollectReader{Limit: limit}
		if err := m.BindReader(name, r); err != nil {
			rep.Error = err.Error()
			return rep
		}
		readers[name] = r
	}
	res := m.Run()
	rep.Result = int(res)
	rep.Cycles = m.Cycles
	rep.Stats = m.Stats
	rep.Outputs = map[string][]wireSnap{}
	if f := m.Fault(); f != nil {
		rep.Fault = &wireFault{
			Kind: int(f.Kind), Msg: f.Msg, Proc: f.Proc, PC: f.PC,
			Line: f.Pos.Line, Col: f.Pos.Column, Off: f.Pos.Offset, File: f.File,
		}
	}
	for name, r := range readers {
		ws := make([]wireSnap, len(r.Values))
		for i, s := range r.Values {
			ws[i] = snapToWire(s)
		}
		rep.Outputs[name] = ws
	}
	if rec := m.Recorder(); rec != nil {
		// The fuzz oracle's digest: one Event.String() line per event
		// folded into FNV-64a.
		rec.Sync()
		evs := rec.Snapshot(0)
		h := fnv.New64a()
		for _, e := range evs {
			fmt.Fprintln(h, e)
		}
		rep.Trace = fmt.Sprintf("%d events, fnv %x", len(evs), h.Sum64())
	}
	return rep
}

func emitReply(rep reply) {
	out, err := json.Marshal(&rep)
	if err != nil {
		out = []byte("{\"Error\":\"reply marshal failure\"}")
	}
	out = append(out, '\n')
	os.Stdout.Write(out)
}

func main() {
	var req request
	if err := json.NewDecoder(os.Stdin).Decode(&req); err != nil {
		emitReply(reply{Error: "bad request: " + err.Error()})
		return
	}
	prog, err := esplang.Compile(progSource, esplang.CompileOptions{
		Name: progName, File: progFile, NoOptimize: progNoOptimize, VerifyIR: progVerifyIR,
	})
	if err != nil {
		emitReply(reply{Error: "recompile: " + err.Error()})
		return
	}
	if req.Repeat < 1 {
		req.Repeat = 1
	}
	var rep reply
	start := time.Now()
	for i := 0; i < req.Repeat; i++ {
		rep = runOnce(prog, &req)
		if rep.Error != "" {
			break
		}
	}
	rep.NS = time.Since(start).Nanoseconds()
	emitReply(rep)
}
`
