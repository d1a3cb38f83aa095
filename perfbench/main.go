// Command perfbench is the repository benchmark. It runs one workload of
// the simulator through its public entry points for a fixed host time and
// prints the end-to-end metrics (or, with -trace 1, the per-layer metrics
// of a separately traced iteration) as a JSON object on its last line.
//
//	perfbench -workload micro-grid -seed 1 -seconds 20 -trace 0
//	perfbench -workload all -seed 1 -seconds 20      # every workload
//	perfbench compare old.json new.json               # two result records
//
// Workloads, metrics and the layer map are described in METRICS.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"

	"ffccd/internal/experiments"
)

// endToEnd lists the end-to-end metrics, in BENCHMARK.json order. Every
// workload reports all of them from its untraced iterations.
var endToEnd = []layerMetric{
	{"wall_s", "s"},
	{"cpu_s", "s"},
	{"setup_s", "s"},
	{"peak_live_mb", "MiB"},
}

// setupReps is how many times a run repeats its set-up; setup_s is the
// median.
const setupReps = 5

// minIters is the fewest measured iterations a run makes, even when one
// iteration outlasts the requested seconds.
const minIters = 2

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "compare" {
		return compareMain(args[1:], stdout, stderr)
	}
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: micro-grid, serve, crash-sweep, or all")
	seed := fs.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 20, "host seconds of measured iterations")
	trace := fs.Int("trace", 0, "1 = also run one traced iteration and print per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var ws []workload
	if *name == "all" {
		ws = workloads
	} else if w, ok := workloadByName(*name); ok {
		ws = []workload{w}
	} else {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", *name)
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintf(stderr, "perfbench: -trace must be 0 or 1\n")
		return 2
	}

	// The shared worker pool runs at the host's core count.
	experiments.SetParallelism(runtime.NumCPU())
	mem = startMemWatch()
	defer mem.stop()

	final := result{Correct: true, Metrics: map[string]metric{}}
	for _, w := range ws {
		rec, err := runWorkload(w, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1, stderr)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
			return 1
		}
		if err := writeRecord(rec); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		printHuman(stdout, rec)
		final.Attempted += rec.Result.Attempted
		final.Failed += rec.Result.Failed
		for k, m := range rec.Result.Metrics {
			if len(ws) > 1 {
				k = w.name + "." + k
			}
			final.Metrics[k] = m
		}
	}
	line, err := json.Marshal(final)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's output object, printed as the last line. A run
// whose correctness check fails exits non-zero without printing one, so
// Correct is true whenever a result is printed.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// hostContext is recorded with every result; compare refuses to pair
// results whose nproc or pool width differ.
type hostContext struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	PoolWidth  int    `json:"pool_width"`
	GoVersion  string `json:"go_version"`
	Seed       int64  `json:"seed"`
}

// record is one run's full account, written under the output directory.
type record struct {
	Workload string      `json:"workload"`
	Trace    bool        `json:"trace"`
	Host     hostContext `json:"host"`
	Seconds  float64     `json:"seconds"`
	Walls    []float64   `json:"iteration_wall_s"`
	// AttemptedPerS is attempted / median wall_s: runs, offered requests or
	// scheduled crash trials per host second. attempted is fixed for a
	// seed, so it carries no signal beyond wall_s and is not a metric.
	AttemptedPerS float64   `json:"attempted_per_s"`
	Mems          []float64 `json:"call_peak_live_mb"`
	// PeakRSS is the process's peak resident set over the whole run.
	PeakRSS float64 `json:"peak_rss_mb"`
	Digest  string  `json:"sim_digest"`
	// Sim holds the exact simulated figures of the iterations (identical in
	// every iteration).
	Sim   map[string]float64 `json:"sim"`
	Spans []span             `json:"spans,omitempty"`
	// Layers holds every per-layer reading of the traced iteration,
	// including the collector counters the metrics are derived from.
	Layers map[string]float64 `json:"layers,omitempty"`
	Result result             `json:"result"`
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// cpuSeconds is the process's user+system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// peakRSSMiB is the process's peak resident set size.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// measured is what the untraced iterations of a run gave.
type measured struct {
	walls, cpus []float64
	mems        []float64 // peak live heap of every call into the program
	first       iterResult
}

// iterate runs untraced iterations until d has passed and at least min
// iterations are done, checking that every iteration's simulated digest
// equals the first.
func iterate(w workload, seed int64, d time.Duration, min int) (measured, error) {
	var m measured
	start := time.Now()
	for i := 0; i < min || time.Since(start) < d; i++ {
		runtime.GC()
		c0, t0 := cpuSeconds(), time.Now()
		r, err := w.run(seed, nil)
		wall, cpu := time.Since(t0).Seconds(), cpuSeconds()-c0
		if err != nil {
			return m, err
		}
		if i == 0 {
			m.first = r
		} else if r.digest != m.first.digest {
			return m, fmt.Errorf("iteration %d: simulated digest %016x differs from the first iteration's %016x", i, r.digest, m.first.digest)
		} else if r.attempted != m.first.attempted || r.failed != m.first.failed {
			return m, fmt.Errorf("iteration %d: %d/%d failed, first iteration %d/%d", i, r.failed, r.attempted, m.first.failed, m.first.attempted)
		}
		m.walls = append(m.walls, wall)
		m.cpus = append(m.cpus, cpu)
		for _, sp := range r.spans {
			m.mems = append(m.mems, sp.PeakMiB)
		}
	}
	return m, nil
}

func runWorkload(w workload, seed int64, d time.Duration, traced bool, log io.Writer) (record, error) {
	rec := record{
		Workload: w.name, Trace: traced, Seconds: d.Seconds(),
		Host: hostContext{
			NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
			PoolWidth: experiments.Parallelism(), GoVersion: runtime.Version(), Seed: seed,
		},
	}
	res := result{Correct: true, Metrics: map[string]metric{}}

	var m measured
	var err error
	if !traced {
		var setups []float64
		for i := 0; i < setupReps; i++ {
			runtime.GC()
			t0 := time.Now()
			if err := w.setup(seed); err != nil {
				return rec, fmt.Errorf("set-up: %w", err)
			}
			setups = append(setups, time.Since(t0).Seconds())
		}
		if m, err = iterate(w, seed, d, minIters); err != nil {
			return rec, err
		}
		e2e := map[string]float64{
			"wall_s":       median(m.walls),
			"cpu_s":        median(m.cpus),
			"setup_s":      median(setups),
			"peak_live_mb": median(m.mems),
		}
		for _, em := range endToEnd {
			res.Metrics[em.name] = metric{e2e[em.name], em.unit}
		}
	} else {
		// The untraced half gives the baseline the tracing overhead is
		// measured against, and the digest the traced iteration must match.
		if m, err = iterate(w, seed, d/2, 1); err != nil {
			return rec, err
		}
		lm, tr, err := tracedIteration(w, seed)
		if err != nil {
			return rec, err
		}
		if tr.digest != m.first.digest {
			return rec, fmt.Errorf("traced iteration: simulated digest %016x differs from the untraced %016x", tr.digest, m.first.digest)
		}
		wall := median(m.walls)
		lm["trace.overhead_s"] = lm["trace.wall_s"] - wall
		if m.first.simCycles > 0 {
			lm["sim_mcycles_per_s"] = float64(m.first.simCycles) / 1e6 / wall
		}
		lm["failed_frac"] = float64(m.first.failed) / float64(m.first.attempted)
		// workpool.busy_frac: profiled CPU seconds over the traced wall
		// time times the pool width.
		if tw := lm["trace.wall_s"]; tw > 0 {
			lm["workpool.busy_frac"] = lm["profile.cpu_s"] / (tw * float64(rec.Host.PoolWidth))
		}
		for k, v := range m.first.sim {
			lm[k] = v
		}
		for _, pl := range perLayer {
			res.Metrics[pl.name] = metric{lm[pl.name], pl.unit}
		}
		rec.Spans = tr.spans
		rec.Layers = lm
	}
	res.Attempted, res.Failed = m.first.attempted, m.first.failed
	rec.Walls = m.walls
	rec.AttemptedPerS = float64(m.first.attempted) / median(m.walls)
	rec.Mems = m.mems
	rec.PeakRSS = peakRSSMiB()
	rec.Digest = fmt.Sprintf("%016x", m.first.digest)
	rec.Sim = m.first.sim
	if rec.Spans == nil {
		rec.Spans = m.first.spans
	}
	rec.Result = res
	fmt.Fprintf(log, "perfbench: %s seed %d: %d iterations, digest %s\n", w.name, seed, len(m.walls), rec.Digest)
	return rec, nil
}

// outDir is where records, profiles and spans go.
func outDir() string {
	if d := os.Getenv("PERFBENCH_OUT"); d != "" {
		return d
	}
	return ".bench_build"
}

func writeRecord(rec record) error {
	dir := filepath.Join(outDir(), "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("result record: %w", err)
	}
	b, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return fmt.Errorf("result record: %w", err)
	}
	name := fmt.Sprintf("%s-seed%d-trace%d.json", rec.Workload, rec.Host.Seed, boolInt(rec.Trace))
	return os.WriteFile(filepath.Join(dir, name), append(b, '\n'), 0o644)
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// printHuman prints the run's metrics, one per line, with units.
func printHuman(w io.Writer, rec record) {
	h := rec.Host
	fmt.Fprintf(w, "# %s seed=%d nproc=%d gomaxprocs=%d pool_width=%d go=%s iterations=%d digest=%s attempted_per_s=%.6g\n",
		rec.Workload, h.Seed, h.NProc, h.GOMAXPROCS, h.PoolWidth, h.GoVersion, len(rec.Walls), rec.Digest, rec.AttemptedPerS)
	vals := map[string]float64{}
	for k, m := range rec.Result.Metrics {
		vals[k] = m.Value
	}
	for _, k := range sortedKeys(vals) {
		m := rec.Result.Metrics[k]
		fmt.Fprintf(w, "%-28s %16.6g %s\n", k, m.Value, m.Unit)
	}
	if !rec.Trace {
		for _, k := range sortedKeys(rec.Sim) {
			ref := ""
			if r, ok := paperRef[k]; ok {
				ref = "  (paper: " + r + ")"
			}
			fmt.Fprintf(w, "%-28s %16.6g%s\n", k, rec.Sim[k], ref)
		}
	}
}

// compareMain prints the per-metric change between two result records. It
// refuses records taken at a different nproc or pool width, or of a
// different workload or mode.
func compareMain(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "usage: perfbench compare OLD.json NEW.json")
		return 2
	}
	var recs [2]record
	for i, p := range args {
		b, err := os.ReadFile(p)
		if err == nil {
			err = json.Unmarshal(b, &recs[i])
		}
		if err != nil {
			fmt.Fprintf(stderr, "perfbench compare: %v\n", err)
			return 2
		}
	}
	if err := comparable(recs[0], recs[1]); err != nil {
		fmt.Fprintf(stderr, "perfbench compare: %v\n", err)
		return 1
	}
	a, b := recs[0].Result.Metrics, recs[1].Result.Metrics
	names := make([]string, 0, len(a))
	for k := range a {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		nb, ok := b[k]
		if !ok {
			continue
		}
		change := math.NaN()
		if a[k].Value != 0 {
			change = (nb.Value - a[k].Value) / a[k].Value * 100
		}
		fmt.Fprintf(stdout, "%-28s %14.6g %14.6g %+8.2f%% %s\n", k, a[k].Value, nb.Value, change, a[k].Unit)
	}
	if recs[0].Digest != recs[1].Digest {
		fmt.Fprintf(stdout, "simulated digest changed: %s -> %s\n", recs[0].Digest, recs[1].Digest)
	}
	return 0
}

func comparable(a, b record) error {
	switch {
	case a.Host.NProc != b.Host.NProc:
		return fmt.Errorf("records are not comparable: nproc %d vs %d", a.Host.NProc, b.Host.NProc)
	case a.Host.PoolWidth != b.Host.PoolWidth:
		return fmt.Errorf("records are not comparable: pool width %d vs %d", a.Host.PoolWidth, b.Host.PoolWidth)
	case a.Workload != b.Workload || a.Trace != b.Trace:
		return fmt.Errorf("records are not comparable: %s/trace=%v vs %s/trace=%v", a.Workload, a.Trace, b.Workload, b.Trace)
	}
	return nil
}
