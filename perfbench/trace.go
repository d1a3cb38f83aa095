package main

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"ffccd/internal/experiments"
	"ffccd/internal/obsv"
)

// span is one timing the benchmark records around a call it makes into the
// program, with the call's peak live heap. Spans are kept in memory and
// written with the run's record.
type span struct {
	Name    string  `json:"name"`
	StartNS int64   `json:"start_unix_ns"`
	Seconds float64 `json:"seconds"`
	PeakMiB float64 `json:"peak_live_mb"`
}

// mem watches the process's memory for the spans; nil leaves PeakMiB 0.
var mem *memWatch

func startSpan(name string) span {
	if mem != nil {
		mem.mark()
	}
	return span{Name: name, StartNS: time.Now().UnixNano()}
}

func (s span) end() span {
	s.Seconds = time.Since(time.Unix(0, s.StartNS)).Seconds()
	if mem != nil {
		s.PeakMiB = mem.peakMiB()
	}
	return s
}

// layerMetric is one per-layer metric the traced run reports.
type layerMetric struct{ name, unit string }

// perLayer lists every per-layer metric, in BENCHMARK.json order. A metric
// whose layer does not run in a workload reads 0 there.
var perLayer = []layerMetric{
	// pmem device access path.
	{"pmem.self_share", "fraction"},
	{"pmem.access_s", "s"},
	{"pmem.ns_per_access", "ns"},
	{"device.loads", "count"},
	{"device.stores", "count"},
	{"device.cache_hit_rate", "fraction"},
	{"device.clwbs", "count"},
	{"device.sfences", "count"},
	{"device.media_writes", "count"},
	{"wpq_drain_lines.mean", "lines"},
	// pmem whole-image work.
	{"pmem.image_s", "s"},
	{"runtime.memclr_s", "s"},
	// sim / arch / bloom.
	{"sim.self_share", "fraction"},
	{"tlb.accesses", "count"},
	{"tlb.l1_miss_rate", "fraction"},
	{"tlb.l2_misses", "count"},
	{"cycles.app", "cycles"},
	{"cycles.mark", "cycles"},
	{"cycles.summary", "cycles"},
	{"cycles.copy", "cycles"},
	{"cycles.checklookup", "cycles"},
	{"cycles.gcmisc", "cycles"},
	{"cycles.recovery", "cycles"},
	{"arch.self_share", "fraction"},
	{"bloom.self_share", "fraction"},
	{"checklookup.bfc_hit_rate", "fraction"},
	{"checklookup.pmftlb_hit_rate", "fraction"},
	// alloc / pmop / ds / kv.
	{"alloc.self_share", "fraction"},
	{"alloc.alloc_s", "s"},
	{"alloc.frag_s", "s"},
	{"pmop.self_share", "fraction"},
	{"ds.self_share", "fraction"},
	{"kv.self_share", "fraction"},
	// core.
	{"core.self_share", "fraction"},
	{"core.epoch_s", "s"},
	{"core.recover_s", "s"},
	{"engine.cycles", "count"},
	{"engine.objects_moved", "count"},
	{"engine.frames_released", "count"},
	{"engine.barrier_moves", "count"},
	{"core.frames_per_epoch", "frames"},
	{"stw_pause_cycles.max", "cycles"},
	{"read_barrier_cycles.p99", "cycles"},
	// redisws / obsv / sync.
	{"redisws.self_share", "fraction"},
	{"redisws.serve_s", "s"},
	{"serve.parallel_op_frac", "fraction"},
	{"serve.batches", "count"},
	{"obsv.self_share", "fraction"},
	{"sync.mutex_share", "fraction"},
	// experiments / workpool.
	{"fork.restore_s", "s"},
	{"fork.checkpoint_mb", "MiB"},
	{"fork.runs", "count"},
	{"workpool.busy_frac", "fraction"},
	// faultinject / checker.
	{"faultinject.trials", "count"},
	{"faultinject.sites_total", "count"},
	{"faultinject.crashes", "count"},
	{"faultinject.setting_max_s", "s"},
	{"checker.check_s", "s"},
	// runtime.
	{"runtime.gc_share", "fraction"},
	// The traced run itself.
	{"trace.overhead_s", "s"},
	// Simulated outcomes (exact; identical in every run of a seed).
	{"sim_mcycles_per_s", "Mcycles/s"},
	{"sim_cycles_total", "cycles"},
	{"sim_norm_time", "ratio"},
	{"sim_frag_reduction_pct", "%"},
	{"sim_writes_per_moved", "lines/object"},
	{"sim_requests", "count"},
	{"sim_p50_cycles", "cycles"},
	{"sim_p999_cycles", "cycles"},
	{"sim_max_pause_cycles", "cycles"},
	{"sim_stw_pause_ratio", "ratio"},
	{"sim_backlog_growth", "app-cycles"},
	{"failed_frac", "fraction"},
}

// paperRef is the paper's value for each simulated figure (EXPERIMENTS.md).
// The model is validated for relative ordering only, so these are
// references printed beside the figures, never gated.
var paperRef = map[string]string{
	"sim_norm_time":          "Fig. 14: FFCCD+CL ~4.1% over no-defrag, i.e. ~1.04",
	"sim_frag_reduction_pct": "Table 3: 42.7% avg on microbenchmarks; section 7.4 Redis: 73.4%",
	"sim_writes_per_moved":   "section 3.3.3: fewer GC-caused PM writes than Espresso and SFCCD (qualitative)",
	"sim_stw_pause_ratio":    "section 7.4: ~15x",
	"sim_p999_cycles":        "section 7.4: FFCCD tail well below STW",
	"sim_max_pause_cycles":   "section 7.4: 11-35 ms",
	"sim_backlog_growth":     "a stable queue reads near 0",
}

// cumGroups are the cumulative-time metrics: profile seconds spent under
// any of the named public functions (a sample counts once however many of
// them are on its stack).
var cumGroups = []struct{ name, focus string }{
	{"pmem.access_s", `^ffccd/internal/pmem\.\(\*Device\)\.(Load|Store|Clwb|Sfence)$`},
	{"pmem.image_s", `^ffccd/internal/pmem\.(\(\*Device\)\.(HashMedia|Checkpoint|CheckpointInto|Restore|ReleaseMedia)|NewDevice|NewDeviceForRestore)$`},
	{"runtime.memclr_s", `^runtime\.memclrNoHeapPointers$`},
	{"alloc.alloc_s", `^ffccd/internal/alloc\.\(\*Heap\)\.Alloc$`},
	{"alloc.frag_s", `^ffccd/internal/alloc\.\(\*Heap\)\.Frag$`},
	{"core.epoch_s", `^ffccd/internal/core\.\(\*Engine\)\.(BeginCycle|StepCompaction|FinishCycle|RunCycleSTW)$`},
	{"core.recover_s", `^ffccd/internal/core\.Recover$`},
	{"redisws.serve_s", `^ffccd/internal/redisws\.Serve$`},
	{"checker.check_s", `^ffccd/internal/checker\.(CheckGraph|CheckStore|DurableAcks|DurableAcksShard)$`},
	{"sync.mutex_s", `^sync\.\(\*(RW)?Mutex\)\.`},
}

// selfShareLayers are the packages whose flat profile share is reported as
// <layer>.self_share.
var selfShareLayers = []string{"pmem", "sim", "arch", "bloom", "alloc", "pmop", "ds", "kv", "core", "redisws", "obsv"}

// obsTotals folds obsv metric snapshots the way the collector's summary
// does: counters add, percentiles, maxima and means keep the largest. It
// also keeps each histogram's exact sum and count, so means over many
// machines are exact.
type obsTotals struct {
	mu        sync.Mutex
	flat      map[string]float64
	histSum   map[string]float64
	histCount map[string]float64
	crashes   int
	// lastCrash holds each crash trial bundle's latest reading. A nested
	// trial's bundle is read at the first crash and again at the crash
	// during recovery, and its counters are cumulative, so only the last
	// reading is folded (foldCrashReadings).
	lastCrash []*obsv.Snapshot
}

func newObsTotals() *obsTotals {
	return &obsTotals{flat: map[string]float64{}, histSum: map[string]float64{}, histCount: map[string]float64{}}
}

func (t *obsTotals) add(snap obsv.Snapshot) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for k, v := range snap.Flat() {
		switch k[strings.LastIndexByte(k, '.')+1:] {
		case "p50", "p90", "p95", "p99", "p999", "max", "mean":
			if v > t.flat[k] {
				t.flat[k] = v
			}
		default:
			t.flat[k] += v
		}
	}
	for _, h := range snap.Hists {
		t.histSum[h.Name] += float64(h.Sum)
		t.histCount[h.Name] += float64(h.Count)
	}
}

// mean is a histogram's exact mean over every folded snapshot.
func (t *obsTotals) mean(hist string) float64 {
	return ratio(t.histSum[hist], t.histCount[hist])
}

// addRuns folds the collector's per-run bundles, skipping the fork
// driver's shared prefixes: every fork restores its prefix's device
// counters and clocks, so the forks' bundles already hold the prefix's
// work and the sums are per logical run, as sim_cycles_total is.
func (t *obsTotals) addRuns(names []string, procs []*obsv.Obs) {
	for i, o := range procs {
		if strings.HasSuffix(names[i], "/prefix") {
			continue
		}
		t.add(o.Metrics.Snapshot())
	}
}

// crashFactory returns the crash trials' bundle factory. Each trial's bundle
// is read at every injected power failure (Obs.OnCrash) and then dropped
// with the trial, so no trial's device outlives it; only the readings are
// kept.
func (t *obsTotals) crashFactory() func() *obsv.Obs {
	return func() *obsv.Obs {
		t.mu.Lock()
		slot := len(t.lastCrash)
		t.lastCrash = append(t.lastCrash, nil)
		t.mu.Unlock()
		o := obsv.New(64)
		o.OnCrash = func(o *obsv.Obs) {
			snap := o.Metrics.Snapshot()
			t.mu.Lock()
			t.lastCrash[slot] = &snap
			t.crashes++
			t.mu.Unlock()
		}
		return o
	}
}

// foldCrashReadings folds every crash trial bundle's last reading once.
func (t *obsTotals) foldCrashReadings() {
	t.mu.Lock()
	readings := t.lastCrash
	t.lastCrash = nil
	t.mu.Unlock()
	for _, snap := range readings {
		if snap != nil {
			t.add(*snap)
		}
	}
}

// gcCPU reads the runtime's GC CPU seconds and its total non-idle CPU
// seconds.
func gcCPU() (gc, busy float64) {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
	}
	metrics.Read(s)
	val := func(i int) float64 {
		if s[i].Value.Kind() == metrics.KindFloat64 {
			return s[i].Value.Float64()
		}
		return 0
	}
	return val(0), val(1) - val(2)
}

// tracedIteration runs one iteration with the CPU profile, the obsv
// collector and the benchmark's spans on, and reduces them to per-layer
// metrics.
func tracedIteration(w workload, seed int64) (map[string]float64, iterResult, error) {
	lm := map[string]float64{}
	dir := filepath.Join(outDir(), "profiles")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, iterResult{}, fmt.Errorf("profile: %w", err)
	}
	profPath := filepath.Join(dir, fmt.Sprintf("%s-seed%d.pprof", w.name, seed))
	f, err := os.Create(profPath)
	if err != nil {
		return nil, iterResult{}, fmt.Errorf("profile: %w", err)
	}

	col := obsv.NewCollector(0)
	experiments.SetObsCollector(col)
	totals := newObsTotals()
	experiments.ResetForkCounters()
	runtime.GC()
	gc0, busy0 := gcCPU()
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, iterResult{}, fmt.Errorf("profile: %w", err)
	}
	t0 := time.Now()
	r, runErr := w.run(seed, totals.crashFactory())
	lm["trace.wall_s"] = time.Since(t0).Seconds()
	pprof.StopCPUProfile()
	gc1, busy1 := gcCPU()
	experiments.SetObsCollector(nil)
	if err := f.Close(); err != nil {
		return nil, iterResult{}, fmt.Errorf("profile: %w", err)
	}
	if runErr != nil {
		return nil, iterResult{}, runErr
	}
	if busy1 > busy0 {
		lm["runtime.gc_share"] = (gc1 - gc0) / (busy1 - busy0)
	}

	// Profile: per-package self shares and cumulative groups.
	top, err := pprofTop(profPath, "")
	if err != nil {
		return nil, iterResult{}, err
	}
	lm["profile.cpu_s"] = top.total
	for _, layer := range selfShareLayers {
		lm[layer+".self_share"] = top.selfShare("ffccd/internal/" + layer)
	}
	for _, g := range cumGroups {
		t, err := pprofTop(profPath, g.focus)
		if err != nil {
			return nil, iterResult{}, err
		}
		lm[g.name] = t.shown
	}
	if top.total > 0 {
		lm["sync.mutex_share"] = lm["sync.mutex_s"] / top.total
	}

	// Collector counters: the experiment drivers' runs, plus each crash
	// trial's reading at its last power failure.
	totals.addRuns(col.Processes())
	totals.foldCrashReadings()
	obs := totals.flat
	lm["faultinject.crashes"] = float64(totals.crashes)
	for k, v := range obs {
		lm["obs."+k] = v
	}
	for _, k := range []string{
		"device.loads", "device.stores", "device.clwbs", "device.sfences", "device.media_writes",
		"tlb.accesses", "tlb.l2_misses",
		"cycles.app", "cycles.mark", "cycles.summary", "cycles.copy", "cycles.checklookup", "cycles.gcmisc", "cycles.recovery",
		"engine.cycles", "engine.objects_moved", "engine.frames_released", "engine.barrier_moves",
		"stw_pause_cycles.max", "read_barrier_cycles.p99",
	} {
		lm[k] = obs[k]
	}
	lm["device.cache_hit_rate"] = ratio(obs["device.cache_hits"], obs["device.cache_hits"]+obs["device.cache_misses"])
	lm["tlb.l1_miss_rate"] = ratio(obs["tlb.l1_misses"], obs["tlb.accesses"])
	lm["checklookup.bfc_hit_rate"] = ratio(obs["checklookup.bfc_hits"], obs["checklookup.bfc_hits"]+obs["checklookup.bfc_misses"])
	lm["checklookup.pmftlb_hit_rate"] = ratio(obs["checklookup.pmftlb_hits"], obs["checklookup.pmftlb_hits"]+obs["checklookup.pmftlb_misses"])
	lm["core.frames_per_epoch"] = ratio(obs["engine.frames_released"], obs["engine.cycles"])
	lm["wpq_drain_lines.mean"] = totals.mean("wpq_drain_lines")
	// Host time of the accesses executed per logical access: a forked
	// run's counters include the prefix accesses it restored, not re-ran.
	accesses := obs["device.loads"] + obs["device.stores"] + obs["device.clwbs"] + obs["device.sfences"]
	lm["pmem.ns_per_access"] = ratio(lm["pmem.access_s"]*1e9, accesses)

	// Fork driver counters.
	_, _, forks := experiments.ForkCounters()
	captured, _ := experiments.ForkCheckpointBytes()
	lm["fork.runs"] = float64(forks)
	lm["fork.checkpoint_mb"] = float64(captured) / (1 << 20)
	lm["fork.restore_s"] = experiments.ForkRestoreSeconds()

	// The benchmark's own spans.
	for _, s := range r.spans {
		if strings.HasPrefix(s.Name, "faultinject.ExploreSetting") && s.Seconds > lm["faultinject.setting_max_s"] {
			lm["faultinject.setting_max_s"] = s.Seconds
		}
	}
	return lm, r, nil
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// topListing is a reduced `go tool pprof -top` listing.
type topListing struct {
	total float64            // seconds of samples in the profile
	shown float64            // seconds the listed nodes account for
	flat  map[string]float64 // function → flat seconds
}

// selfShare is the flat share of samples in functions of package pkg.
func (t topListing) selfShare(pkg string) float64 {
	if t.total == 0 {
		return 0
	}
	var s float64
	for fn, v := range t.flat {
		if packageOf(fn) == pkg {
			s += v
		}
	}
	return s / t.total
}

// pprofTop runs the toolchain's pprof over a profile, optionally focused on
// samples whose stack holds a function matching focus, and parses its -top
// listing.
func pprofTop(profile, focus string) (topListing, error) {
	goBin, err := exec.LookPath("go")
	if err != nil {
		goBin = filepath.Join(runtime.GOROOT(), "bin", "go")
	}
	args := []string{"tool", "pprof", "-top", "-nodecount=0", "-nodefraction=0", "-edgefraction=0", "-unit=ms"}
	if focus != "" {
		args = append(args, "-focus="+focus)
	}
	args = append(args, profile)
	out, err := exec.Command(goBin, args...).CombinedOutput()
	if err != nil {
		return topListing{}, fmt.Errorf("go tool pprof: %v: %s", err, out)
	}
	return parseTop(string(out))
}

var (
	showingRe = regexp.MustCompile(`^Showing nodes accounting for ([^,]+), [^ ]+ of ([^ ]+) total`)
	rowRe     = regexp.MustCompile(`^\s*(\S+)\s+\S+%\s+\S+%\s+(\S+)\s+\S+%\s+(.+?)\s*$`)
)

// parseTop parses `go tool pprof -top` text: the "Showing nodes
// accounting for X, P% of T total" header and the flat/cum rows.
func parseTop(text string) (topListing, error) {
	t := topListing{flat: map[string]float64{}}
	header := false
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		if m := showingRe.FindStringSubmatch(line); m != nil {
			shown, err1 := parseDuration(m[1])
			total, err2 := parseDuration(m[2])
			if err1 != nil || err2 != nil {
				return t, fmt.Errorf("pprof header %q: bad duration", line)
			}
			t.shown, t.total, header = shown, total, true
			continue
		}
		if !header {
			continue
		}
		m := rowRe.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		flat, err := parseDuration(m[1])
		if err != nil {
			continue // the column header line
		}
		fn := strings.TrimSuffix(m[3], " (inline)")
		t.flat[fn] += flat
	}
	if !header {
		return t, fmt.Errorf("pprof output has no \"Showing nodes\" header:\n%s", text)
	}
	return t, nil
}

// parseDuration parses a pprof duration such as "1.25s", "80ms", "0" or
// "1.5mins".
func parseDuration(s string) (float64, error) {
	if s == "0" {
		return 0, nil
	}
	units := []struct {
		suffix string
		sec    float64
	}{
		{"mins", 60}, {"min", 60}, {"hrs", 3600}, {"hr", 3600},
		{"ms", 1e-3}, {"us", 1e-6}, {"µs", 1e-6}, {"ns", 1e-9}, {"s", 1},
	}
	for _, u := range units {
		if strings.HasSuffix(s, u.suffix) {
			v, err := strconv.ParseFloat(strings.TrimSuffix(s, u.suffix), 64)
			return v * u.sec, err
		}
	}
	return 0, fmt.Errorf("unknown duration %q", s)
}

// packageOf returns the import path of a profiled function name, e.g.
// "ffccd/internal/pmem" for "ffccd/internal/pmem.(*Device).Load".
func packageOf(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i]
	}
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// sortedKeys returns m's keys in order.
func sortedKeys(m map[string]float64) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
