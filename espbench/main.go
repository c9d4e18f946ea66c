// Command espbench is the repository benchmark: the paper's two
// deliverables measured end to end from outside the program — Fig. 5
// latency and bandwidth of the ESP VMMC firmware on the simulated NIC, and
// exhaustive verification of the firmware model (§5.3) — with a separate
// traced run that splits the host time by layer.
//
// Usage (from the repository root; espbench/run.sh builds and runs it):
//
//	espbench --workload fig5|verify-full|verify-por --seed N --seconds S --trace 0|1
//
// With --trace 0 it measures the end-to-end metrics; with --trace 1 each
// work item runs once untraced and once traced, under a CPU profile, and
// the per-layer metrics are reported instead. Every simulated latency and
// bandwidth, and every verdict, is compared against reference.json; a
// mismatch counts as a failed operation. The last line of standard output
// is the result object; the line before it records the workload's
// identity and the environment.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"runtime/debug"
	"runtime/pprof"
	"time"
)

// item is one unit of work: one Fig. 5 point or one verification job.
type item interface {
	name() string
	// run executes the item with tracing off. It returns the number of
	// messages it moved and an error when its result differs from the
	// reference.
	run() (msgs int64, err error)
	// runTraced executes the same work with the layer instruments on,
	// adding what it measured to l.
	runTraced(l *layers) (msgs int64, err error)
}

// workload is one named benchmark workload.
type workload struct {
	name string
	// params identifies the work; its hash travels with every result.
	params any
	// setup performs one repetition of the workload's set-up: compiling
	// every program it runs from source and building the first cluster or
	// machine. rep 0 goes through the public entry points, which fill
	// their compile caches.
	setup func(rep int) error
	// pass returns one pass over the workload's catalogue (all Fig. 5
	// point types, or the job suite) in an order drawn from rng.
	pass func(rng *rand.Rand) []item
	// beforeItem runs untimed before every item.
	beforeItem func()
}

var workloads = map[string]*workload{
	"fig5":        fig5Workload(),
	"verify-full": verifyFullWorkload(),
	"verify-por":  verifyPORWorkload(),
}

// setupReps is how many times set-up is repeated; setup_s is the median.
const setupReps = 31

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: fig5, verify-full or verify-por")
	seed := flag.Int64("seed", 1, "seed for the order of the work items")
	seconds := flag.Float64("seconds", 10, "measured seconds")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Parse()
	w, ok := workloads[*name]
	if !ok || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		flag.Usage()
		os.Exit(2)
	}
	res, ident, err := measure(w, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "espbench:", err)
		os.Exit(1)
	}
	out := json.NewEncoder(os.Stdout)
	if err := out.Encode(ident); err != nil {
		fmt.Fprintln(os.Stderr, "espbench:", err)
		os.Exit(1)
	}
	if err := out.Encode(res); err != nil {
		fmt.Fprintln(os.Stderr, "espbench:", err)
		os.Exit(1)
	}
}

// measure runs set-up, then whole passes of the workload until the
// measured time is used up, and computes the metrics.
func measure(w *workload, seed int64, window time.Duration, traced bool) (*result, *identity, error) {
	ident := newIdentity(w, seed, traced)
	setups := make([]float64, setupReps)
	for rep := range setups {
		t0 := time.Now()
		if err := w.setup(rep); err != nil {
			return nil, nil, fmt.Errorf("%s set-up: %w", w.name, err)
		}
		setups[rep] = time.Since(t0).Seconds()
	}

	rng := rand.New(rand.NewSource(seed))
	res := &result{Metrics: map[string]metric{}}
	var (
		itemSec, passSec, passRate, passRSS []float64
		l                                   *layers
		prof                                = new(bytes.Buffer)
	)
	if traced {
		l = &layers{}
		if err := pprof.StartCPUProfile(prof); err != nil {
			return nil, nil, fmt.Errorf("cpu profile: %w", err)
		}
		l.window[0] = readGC()
	}
	start := time.Now()
	for time.Since(start) < window {
		var passTime time.Duration
		var passMsgs int64
		rss := startRSSWatch()
		for _, it := range w.pass(rng) {
			w.beforeItem()
			t0 := time.Now()
			n, err := it.run()
			d := time.Since(t0)
			res.Attempted++
			if err != nil {
				res.Failed++
				fmt.Fprintf(os.Stderr, "espbench: %s: %v\n", it.name(), err)
			}
			if traced {
				w.beforeItem()
				t1 := time.Now()
				_, err := it.runTraced(l)
				l.addOverhead(time.Since(t1), d)
				res.Attempted++
				if err != nil {
					res.Failed++
					fmt.Fprintf(os.Stderr, "espbench: %s (traced): %v\n", it.name(), err)
				}
			}
			passTime += d
			passMsgs += n
			itemSec = append(itemSec, d.Seconds())
		}
		passSec = append(passSec, passTime.Seconds())
		passRate = append(passRate, float64(passMsgs)/passTime.Seconds())
		passRSS = append(passRSS, rss.peakMB())
	}
	res.Correct = res.Failed == 0

	if traced {
		l.window[1] = readGC()
		pprof.StopCPUProfile()
		split, err := cpuSplit(prof.Bytes())
		if err != nil {
			return nil, nil, err
		}
		res.Metrics = l.metrics(split)
		return res, ident, nil
	}
	res.Metrics["setup_s"] = metric{median(setups), "s"}
	res.Metrics["msgs_per_s"] = metric{median(passRate), "1/s"}
	res.Metrics["point_ms_p50"] = metric{1e3 * quantile(itemSec, 0.50), "ms"}
	res.Metrics["point_ms_p95"] = metric{1e3 * quantile(itemSec, 0.95), "ms"}
	res.Metrics["verdict_s"] = metric{median(passSec), "s"}
	res.Metrics["peak_rss_mb"] = metric{median(passRSS), "MB"}
	return res, ident, nil
}

// collectGarbage starts a verification job from a clean heap with the
// freed memory returned to the system, as a one-job espverify process
// would.
func collectGarbage() { debug.FreeOSMemory() }
