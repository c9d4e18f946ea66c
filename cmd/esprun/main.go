// Command esprun executes an ESP program on the bundled virtual machine,
// binding its external channels to standard input and output:
//
//   - whitespace-separated integers read from stdin are dealt round-robin
//     to the external-writer channels in declaration order (the first
//     integer to the first channel, the second to the second, wrapping
//     around); every writer channel needs a single one-scalar interface
//     case. Programs with no external-writer channel never touch stdin,
//     so they run without blocking at an interactive terminal;
//   - every external-reader channel prints "<channel>: <value>" lines.
//
// This is the quickest way to try a program:
//
//	echo "1 10 37" | esprun add5.esp
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"time"

	esplang "esplang"
	"esplang/internal/ir"
	"esplang/internal/obs"
	"esplang/internal/vm"
)

func main() {
	var (
		maxObjects = flag.Int("max-objects", 4096, "live-object bound (0 = unlimited)")
		maxCycles  = flag.Int64("max-cycles", 0, "total cycle budget; exceeding it is a step-budget fault (0 = unlimited — firmware runs forever)")
		showStats  = flag.Bool("stats", false, "print machine statistics at exit")
		showCycles = flag.Bool("cycles", false, "print consumed cycles at exit")
		tracePath  = flag.String("trace", "", "write a Chrome trace-event JSON file of the run (open in Perfetto or chrome://tracing; timestamps are VM cycles)")
		profile    = flag.Bool("profile", false, "print the hot-line cycle profile and per-event breakdown at exit")
		profileTop = flag.Int("profile-top", 10, "lines shown by -profile")
		engineName = flag.String("engine", "fused", "execution engine: fused (superinstructions and static rendezvous scheduling) or baseline; identical semantics and cycle accounting")
		flight     = flag.Int("flight", obs.DefaultRingSize, fmt.Sprintf("flight-recorder ring size, at most %d; the recorder is always on so a fault prints a postmortem of the last events (0 disables it; -trace keeps every event instead)", obs.MaxRingSize))
		pmPath     = flag.String("postmortem", "", "write the full flight-recorder dump to this file at exit (needs -flight > 0 or -trace; obscheck -postmortem validates the format)")
		telemetry  = flag.String("telemetry", "", "serve live telemetry on this address (e.g. 127.0.0.1:9464): /metrics, /statusz, /trace?last=N")
		linger     = flag.Duration("telemetry-linger", 0, "keep the telemetry server up this long after the run ends, so scrapers can collect final state")
	)
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: esprun [flags] program.esp  (stdin feeds external inputs)")
		flag.PrintDefaults()
		os.Exit(2)
	}
	engine, err := esplang.ParseEngine(*engineName)
	if err != nil {
		fmt.Fprintf(os.Stderr, "esprun: %v\n", err)
		os.Exit(2)
	}
	if err := checkRecorder(*flight, *pmPath, *tracePath); err != nil {
		fmt.Fprintf(os.Stderr, "esprun: %v\n", err)
		os.Exit(2)
	}
	prog, err := esplang.CompileFile(flag.Arg(0), esplang.CompileOptions{})
	if err != nil {
		fmt.Fprintf(os.Stderr, "esprun: %v\n", err)
		os.Exit(1)
	}
	m := prog.Machine(esplang.MachineConfig{MaxLiveObjects: *maxObjects, MaxCycles: *maxCycles, Engine: engine})

	var prof *obs.Profiler
	if *profile {
		prof = obs.NewProfiler(flag.Arg(0))
		m.SetProfiler(prof)
	}
	// One event sink: -trace needs every event, so it attaches a full
	// recorder, which then also serves -postmortem and /trace; otherwise
	// the bounded -flight ring.
	var rec *obs.FlightRecorder
	switch {
	case *tracePath != "":
		rec = obs.NewEventLog()
	case *flight > 0:
		rec = obs.NewFlightRecorder(*flight)
	}
	if rec != nil {
		m.SetRecorder(rec)
	}
	var srv *obs.Server
	if *telemetry != "" {
		reg := obs.NewMetrics()
		m.SetMetrics(reg)
		var err error
		srv, err = obs.NewServer(*telemetry, reg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "esprun: %v\n", err)
			os.Exit(1)
		}
		srv.SetRecorder(rec)
		progName, eng := flag.Arg(0), engine
		srv.SetStatus(func(w io.Writer) {
			fmt.Fprintf(w, "program: %s\nengine: %v\n", progName, eng)
		})
		fmt.Fprintf(os.Stderr, "telemetry: serving on http://%s\n", srv.Addr())
	}

	// Read all stdin integers up front — but only when the program has an
	// external-writer channel to feed. A program with none would otherwise
	// block forever at an interactive terminal waiting for EOF it never
	// needs.
	var inputs []int64
	if hasExtWriter(prog) {
		sc := bufio.NewScanner(os.Stdin)
		sc.Split(bufio.ScanWords)
		for sc.Scan() {
			v, err := strconv.ParseInt(sc.Text(), 10, 64)
			if err != nil {
				fmt.Fprintf(os.Stderr, "esprun: bad input %q\n", sc.Text())
				os.Exit(1)
			}
			inputs = append(inputs, v)
		}
		if err := sc.Err(); err != nil {
			fmt.Fprintf(os.Stderr, "esprun: reading stdin: %v\n", err)
			os.Exit(1)
		}
	}
	if err := bindChannels(prog, m, inputs, func(name string) vm.ExternalReader {
		return printReader{name}
	}); err != nil {
		fmt.Fprintf(os.Stderr, "esprun: %v\n", err)
		os.Exit(1)
	}

	res := m.Run()

	// The trace and profile are written even when the run faulted — a
	// fault is exactly when the timeline is most useful.
	if *tracePath != "" {
		rec.Sync()
		f, err := os.Create(*tracePath)
		if err == nil {
			err = rec.WriteChrome(f, 0) // timestamps are VM cycles
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "esprun: writing trace: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "trace: wrote %d events to %s\n", rec.Total(), *tracePath)
	}
	if prof != nil {
		fmt.Fprint(os.Stderr, prof.Report(prog.Source, *profileTop))
		fmt.Fprint(os.Stderr, prof.KindTable())
	}
	if *pmPath != "" {
		if err := os.WriteFile(*pmPath, []byte(m.Postmortem(0)), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "esprun: writing postmortem: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "postmortem: wrote %d events to %s\n", len(rec.Snapshot(0)), *pmPath)
	}
	if srv != nil {
		if *linger > 0 {
			time.Sleep(*linger)
		}
		srv.Close()
	}
	if res == vm.RunFault {
		fmt.Fprintf(os.Stderr, "esprun: %v\n", m.Fault())
		if rec != nil {
			// The flight recorder was on: show what the machine was doing
			// in the cycles leading up to the fault.
			fmt.Fprint(os.Stderr, m.Postmortem(obs.PostmortemEvents))
		}
		os.Exit(1)
	}
	if *showCycles {
		fmt.Fprintf(os.Stderr, "cycles: %d\n", m.Cycles)
	}
	if *showStats {
		fmt.Fprintf(os.Stderr, "stats: %s\n", m.Stats)
	}
}

// checkRecorder rejects recorder flags that cannot work: a -flight ring
// larger than obs.MaxRingSize, and -postmortem when no event sink would
// feed it (the dump comes from the flight recorder, which -flight 0
// switches off unless -trace attaches the full recorder instead).
func checkRecorder(flight int, pmPath, tracePath string) error {
	if flight > obs.MaxRingSize {
		return fmt.Errorf("-flight %d exceeds the largest ring, %d events", flight, obs.MaxRingSize)
	}
	if pmPath != "" && flight <= 0 && tracePath == "" {
		return fmt.Errorf("-postmortem needs the flight recorder: set -flight > 0 or -trace")
	}
	return nil
}

// hasExtWriter reports whether the program declares any external-writer
// channel, i.e. whether esprun has anything to feed from stdin.
func hasExtWriter(prog *esplang.Program) bool {
	for _, ch := range prog.IR.Channels {
		if ch.Ext == ir.ExtWriter {
			return true
		}
	}
	return false
}

// distributeInputs deals the stdin integers round-robin over n writer
// channels in declaration order: input i goes to channel i mod n.
func distributeInputs(inputs []int64, n int) [][]int64 {
	feeds := make([][]int64, n)
	for i, v := range inputs {
		feeds[i%n] = append(feeds[i%n], v)
	}
	return feeds
}

// bindChannels attaches stdin-fed queue writers (round-robin over the
// writer channels in declaration order) and newReader-built readers to
// every external channel of the program.
func bindChannels(prog *esplang.Program, m *esplang.Machine, inputs []int64, newReader func(name string) vm.ExternalReader) error {
	var writers []*ir.Channel
	for _, ch := range prog.IR.Channels {
		switch ch.Ext {
		case ir.ExtWriter:
			if len(ch.Cases) != 1 || len(ch.Cases[0].ParamTypes) != 1 || !ch.Cases[0].ParamTypes[0].IsScalar() {
				return fmt.Errorf("channel %s needs a single one-scalar interface case to read from stdin", ch.Name)
			}
			writers = append(writers, ch)
		case ir.ExtReader:
			if err := m.BindReader(ch.Name, newReader(ch.Name)); err != nil {
				return err
			}
		}
	}
	if len(writers) == 0 {
		return nil
	}
	for i, feed := range distributeInputs(inputs, len(writers)) {
		q := &esplang.QueueWriter{}
		for _, v := range feed {
			v := v
			q.Push(0, func(*esplang.Machine) esplang.Value { return esplang.IntVal(v) })
		}
		if err := m.BindWriter(writers[i].Name, q); err != nil {
			return err
		}
	}
	return nil
}

// printReader prints every received value.
type printReader struct{ name string }

func (printReader) Ready(*vm.Machine) bool { return true }

func (r printReader) Put(_ *vm.Machine, v vm.Value) {
	fmt.Printf("%s: %s\n", r.name, format(vm.Snap(v)))
}

func format(s vm.Snapshot) string {
	if s.Obj == nil {
		return fmt.Sprintf("%d", s.Scalar)
	}
	out := "{"
	for i := range s.Obj.Elems {
		if i > 0 {
			out += ", "
		}
		out += format(s.Field(i))
	}
	return out + "}"
}
