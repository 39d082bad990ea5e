// Command perfbench is the repository's end-to-end benchmark. It drives one
// named workload through the public entry points (sweep.Grid.RunWithEngines,
// live.Replay) for a fixed time, checks every output outside the timed
// region, and prints the result as one JSON object on its last line of
// standard output. With -trace 1 it also drives the workload through its own
// instrumented loop and reports the per-layer split. README.md explains the
// workloads and metrics.
//
//	perfbench -workload sweep-live|sweep-offline|exec-n32 -seed N -seconds S -trace 0|1 [-out DIR]
//	perfbench -compare OLD.json NEW.json
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"github.com/clockless/zigzag/internal/stats"
)

func main() { os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr)) }

// maxWorkers caps the benchmark's threads and sweep workers, so results
// from hosts with more cores stay comparable with the 2-core reference.
const maxWorkers = 2

// setupRepeats is how many times a run sets its workload up; setup_s is the
// median.
const setupRepeats = 3

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: "+workloadNames())
	seed := fs.Int64("seed", 1, "workload seed: the same seed makes the same inputs")
	seconds := fs.Float64("seconds", 10, "how long to measure")
	trace := fs.Int("trace", 0, "1 adds the traced run and reports the per-layer metrics")
	out := fs.String("out", "", "directory for the result record and the trace spans (none when empty)")
	commit := fs.String("commit", "unknown", "commit (or source digest) of the code measured, recorded with the result")
	compare := fs.Bool("compare", false, "compare two result records: perfbench -compare OLD.json NEW.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "perfbench: -compare needs two result records")
			return 2
		}
		if err := compareRecords(stdout, fs.Arg(0), fs.Arg(1)); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	mk, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need -workload (%s), -seconds > 0 and -trace 0 or 1\n", workloadNames())
		return 2
	}
	runtime.GOMAXPROCS(min(runtime.NumCPU(), maxWorkers))
	rec, tr, err := measure(mk(*seed, fullSize), *seconds, *trace == 1, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	rec.Workload, rec.Seed, rec.Trace, rec.Seconds = *name, *seed, *trace, *seconds
	rec.Host = hostInfo(*commit)
	if *out != "" {
		if err := writeOutputs(*out, rec, tr); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
	}
	if err := printResult(stdout, rec); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	return 0
}

// printResult prints the run's host and input metadata on one line, then
// the result object on the last line.
func printResult(w io.Writer, rec *record) error {
	meta, err := json.Marshal(struct {
		Host     host    `json:"host"`
		Inputs   string  `json:"inputs"`
		FailFrac float64 `json:"fail_frac"`
	}{rec.Host, rec.Inputs, rec.FailFrac})
	if err != nil {
		return err
	}
	last, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{rec.Correct, rec.Attempted, rec.Failed, rec.Metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "meta %s\n%s\n", meta, last)
	return err
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// record is everything one run reports; -out stores it as JSON.
type record struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Trace     int               `json:"trace"`
	Seconds   float64           `json:"seconds"`
	Host      host              `json:"host"`
	Inputs    string            `json:"inputs"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	FailFrac  float64           `json:"fail_frac"`
	Metrics   map[string]metric `json:"metrics"`
	Failures  []string          `json:"failures,omitempty"`
}

// bench is one benchmark workload. Its methods run on the main
// goroutine, one after the other.
type bench interface {
	// setup makes the inputs from the seed, builds whatever the benchmark
	// itself needs and warms up. It is called setupRepeats times; the last
	// call's state is the one measured.
	setup() error
	// iter runs the i-th unit of work through the program's public entry
	// points as one region timed by m. Outputs are kept, or condensed
	// outside the timed region, for check. tb, when non-nil, records spans
	// around the entry-point calls.
	iter(i int, m *meter, tb *spanBuf)
	// check verifies the outputs of every iter call.
	check() checkResult
	// traced runs the i-th unit through the benchmark's own instrumented
	// loop as one region timed by m, recording spans into tr. It keeps
	// counters of the outputs, not the outputs.
	traced(i int, m *meter, tr *tracer)
	// probe re-runs the first traced units, untimed, re-drives each output
	// through the layer probes at once (spans into tr), and returns how many
	// ops the probes' times cover.
	probe(tr *tracer) (int, error)
	// layerCounts returns the per-layer counters gathered by iter, traced
	// and probe, divided by their op counts (probed for the probes').
	layerCounts(probed int) map[string]float64
	// inputs identifies the generated inputs (changes with the seed).
	inputs() string
}

// checkResult is the verdict of a workload's correctness checks.
type checkResult struct {
	attempted int       // ops checked, the timed ops included
	failures  []string  // one line per failed op
	decideUS  []float64 // per-state decision latencies, µs
}

// size scales a workload: fullSize is the benchmark, tinySize its tests.
type size int

const (
	fullSize size = iota
	tinySize
)

var workloads = map[string]func(seed int64, sz size) bench{
	"sweep-live":    newSweepLive,
	"sweep-offline": newSweepOffline,
	"exec-n32":      newExec,
}

func workloadNames() string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return fmt.Sprint(names)
}

// endToEnd lists the end-to-end metrics every untraced run reports.
var endToEnd = []struct{ name, unit string }{
	{"ops_per_s", "1/s"},
	{"decide_us_p50", "us"},
	{"decide_us_p99", "us"},
	{"alloc_mb_per_op", "MB"},
	{"max_rss_mb", "MB"},
	{"setup_s", "s"},
}

// perLayer lists the per-layer metrics every traced run reports; a layer
// that does no work on a workload reports 0. Times and counts are per op
// of the phase that measured them.
var perLayer = []struct{ name, unit string }{
	{"run.absorb_ms", "ms/op"},
	{"run.absorb_calls", "count/op"},
	{"run.deliveries_added", "count/op"},
	{"run.absorb_ns_per_delivery", "ns"},
	{"run.snapshot_ms", "ms/op"},
	{"run.viewof_ms", "ms/op"},
	{"bounds.sync_ms", "ms/op"},
	{"bounds.sync_calls", "count/op"},
	{"bounds.query_fwd_ms", "ms/op"},
	{"bounds.query_rev_ms", "ms/op"},
	{"bounds.relaxations", "count/op"},
	{"bounds.rev_relaxations", "count/op"},
	{"bounds.rev_warm_ratio", "ratio"},
	{"bounds.stamp_ms", "ms/op"},
	{"bounds.prefix_hits", "count/op"},
	{"bounds.prefix_misses", "count/op"},
	{"bounds.prefix_hit_ratio", "ratio"},
	{"bounds.clone_mb", "MB/op"},
	{"bounds.extended_build_ms", "ms/op"},
	{"pattern.witness_ms", "ms/op"},
	{"coord.run_optimal_ms", "ms/op"},
	{"sim.record_ms", "ms/op"},
	{"sim.deliveries", "count/op"},
	{"live.replay_ms", "ms/op"},
	{"live.decide_ms", "ms/op"},
	{"live.states", "count/op"},
	{"live.replay_batches", "count/op"},
	{"live.replay_chunks", "count/op"},
	{"sweep.grid_ms", "ms/op"},
	{"sweep.aggregate_ms", "ms/op"},
	{"sweep.cells", "count"},
	{"sweep.cell_errs", "count/op"},
	{"faults.violations", "count/op"},
	{"faults.degraded", "count/op"},
	{"faults.crashed", "count/op"},
	{"go.gc_cpu_frac", "frac"},
	{"go.gc_cycles", "count/op"},
	{"trace.overhead_frac", "frac"},
	{"self.bench_ms", "ms/op"},
	{"self.sweep_ms", "ms/op"},
	{"self.sim_ms", "ms/op"},
	{"self.run_ms", "ms/op"},
	{"self.bounds_ms", "ms/op"},
	{"self.live_ms", "ms/op"},
	{"self.coord_ms", "ms/op"},
	{"self.pattern_ms", "ms/op"},
	{"self.bench_share", "frac"},
	{"self.sweep_share", "frac"},
	{"self.sim_share", "frac"},
	{"self.run_share", "frac"},
	{"self.bounds_share", "frac"},
	{"self.live_share", "frac"},
	{"self.coord_share", "frac"},
	{"self.pattern_share", "frac"},
}

// traces holds the spans of a traced run: the untraced phase's calls into
// sweep.Grid (phaseA), the instrumented loop (phaseB) and the layer probes.
type traces struct{ phaseA, phaseB, probe *tracer }

// measure runs one workload: setup, the timed loop, the checks and, when
// traced, the instrumented loop and the probes.
func measure(w bench, seconds float64, traced bool, logw io.Writer) (*record, *traces, error) {
	setups := make([]float64, 0, setupRepeats)
	for i := 0; i < setupRepeats; i++ {
		t0, s0 := time.Now(), stealSeconds()
		if err := w.setup(); err != nil {
			return nil, nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, unstolen(time.Since(t0), stealSeconds()-s0).Seconds())
	}
	untracedSecs := seconds
	var tr *traces
	if traced {
		untracedSecs = seconds / 2 // the traced loop takes the other half
		tr = &traces{phaseA: newTracer(), phaseB: newTracer(), probe: newTracer()}
	}

	rss := startRSS()
	defer rss.close()
	runtime.GC()
	gc0 := gcCPU()
	var tbA *spanBuf
	if traced {
		tbA = tr.phaseA.buf()
	}
	mA := meter{rss: rss}
	units := 0
	tA, sA := time.Now(), stealSeconds()
	for ; mA.wall.Seconds() < untracedSecs; units++ {
		w.iter(units, &mA, tbA)
	}
	wallA := time.Since(tA)
	tbA.flush()
	gc1 := gcCPU()
	ops := mA.ops

	rec := &record{Metrics: make(map[string]metric)}
	tC := time.Now()
	chk := w.check()
	wallC := time.Since(tC)
	rec.Attempted = chk.attempted
	rec.Failed = len(chk.failures)
	rec.Failures = chk.failures
	if rec.Attempted < 1 {
		rec.Attempted = 1
		rec.Failed = max(rec.Failed, 1)
	}
	rec.Correct = rec.Failed == 0
	rec.FailFrac = float64(rec.Failed) / float64(rec.Attempted)
	rec.Inputs = w.inputs()
	if ops == 0 {
		return nil, nil, errors.New("no op completed")
	}
	untracedRate := stats.Summarize(mA.rates).P50
	phases := fmt.Sprintf("perfbench: setup %.2fs x%d, timed %.2fs less steal %.2fs (loop %.2fs, steal %.2fs per CPU, cpu %.2fs), check %.2fs; region rates %.4g",
		stats.Summarize(setups).P50, setupRepeats, mA.wall.Seconds(), mA.elapsed.Seconds(), wallA.Seconds(),
		stealSeconds()-sA, mA.cpu.Seconds(), wallC.Seconds(), mA.rates)

	if !traced {
		dec := stats.Summarize(chk.decideUS)
		vals := map[string]float64{
			"ops_per_s":       untracedRate,
			"decide_us_p50":   dec.P50,
			"decide_us_p99":   dec.P99,
			"alloc_mb_per_op": float64(mA.alloc) / 1e6 / float64(ops),
			"max_rss_mb":      rss.peak(),
			"setup_s":         stats.Summarize(setups).P50,
		}
		for _, m := range endToEnd {
			rec.Metrics[m.name] = metric{vals[m.name], m.unit}
		}
		rs := rss.summary()
		fmt.Fprintf(logw, "%s, %d decisions, rss p50 %.1f p90 %.1f p99 %.1f max %.1f MB\n",
			phases, dec.N, rs.P50, rs.P90, rs.P99, rs.Max)
		return rec, nil, nil
	}

	// The traced loop runs the same units as the untraced one, so the two
	// rates compare the same work.
	mB := meter{rss: rss}
	tB := time.Now()
	for i := 0; i < units; i++ {
		w.traced(i, &mB, tr.phaseB)
	}
	wallB := time.Since(tB)
	tracedOps := mB.ops
	if tracedOps == 0 {
		return nil, nil, errors.New("no traced op completed")
	}
	tP := time.Now()
	probed, err := w.probe(tr.probe)
	if err != nil {
		return nil, nil, err
	}
	fmt.Fprintf(logw, "%s, traced %.2fs (wall %.2fs), probe %.2fs\n", phases,
		mB.elapsed.Seconds(), wallB.Seconds(), time.Since(tP).Seconds())
	lm := w.layerCounts(probed)
	lm["go.gc_cycles"] = float64(mA.gcs) / float64(ops)
	if gc1.total > gc0.total {
		lm["go.gc_cpu_frac"] = (gc1.gc - gc0.gc) / (gc1.total - gc0.total)
	}
	if n, _ := sumBy(tr.phaseA.spans); n["sweep.grid"] > 0 {
		lm["sweep.grid_ms"] = float64(n["sweep.grid"]) / 1e6 / float64(ops)
	}
	lm["trace.overhead_frac"] = 1 - float64(tracedOps)/mB.elapsed.Seconds()/(float64(ops)/mA.elapsed.Seconds())
	layerSplit(lm, tr, tracedOps, probed)
	for _, m := range perLayer {
		rec.Metrics[m.name] = metric{lm[m.name], m.unit}
	}
	return rec, tr, nil
}

// layerSplit derives the span-timed per-layer metrics and the self time per
// layer. Self time comes from the instrumented loop's span trees; three
// kinds of call hide layers the benchmark cannot trace without going inside
// the program, and the probes' per-op times are moved out of them: view
// absorption and snapshots out of live.replay (into run), engine sync and
// queries out of live.decide (into bounds), and view extraction, graph
// builds and witnesses out of coord.run_optimal (into run, bounds and
// pattern). Each move is capped at what the hiding layer has left.
func layerSplit(lm map[string]float64, tr *traces, tracedOps, probed int) {
	perOp := func(ns int64, ops int) float64 {
		if ops == 0 {
			return 0
		}
		return float64(ns) / 1e6 / float64(ops)
	}
	bNS, bCalls := sumBy(tr.phaseB.spans)
	for _, n := range []string{"sim.record", "bounds.stamp", "live.replay", "live.decide", "coord.run_optimal", "sweep.aggregate"} {
		lm[n+"_ms"] = perOp(bNS[n], tracedOps)
	}
	lm["live.states"] = float64(bCalls["live.decide"]) / float64(tracedOps)
	pNS, pCalls := sumBy(tr.probe.spans)
	for _, n := range []string{"run.absorb", "run.snapshot", "run.viewof", "bounds.extended_build", "pattern.witness", "bounds.sync", "bounds.query_fwd", "bounds.query_rev"} {
		lm[n+"_ms"] = perOp(pNS[n], probed)
	}
	if probed > 0 {
		lm["run.absorb_calls"] = float64(pCalls["run.absorb"]) / float64(probed)
		lm["bounds.sync_calls"] = float64(pCalls["bounds.sync"]) / float64(probed)
	}
	if d := lm["run.deliveries_added"]; d > 0 {
		lm["run.absorb_ns_per_delivery"] = lm["run.absorb_ms"] * 1e6 / d
	}

	self := make(map[string]float64)
	for layer, ns := range selfByLayer(tr.phaseB.spans) {
		self[layer] = perOp(ns, tracedOps)
	}
	move := func(from, to string, ms float64) {
		ms = min(ms, self[from])
		self[from] -= ms
		self[to] += ms
	}
	move("live", "run", lm["run.absorb_ms"]+lm["run.snapshot_ms"])
	move("live", "bounds", lm["bounds.sync_ms"]+lm["bounds.query_fwd_ms"]+lm["bounds.query_rev_ms"])
	move("coord", "run", lm["run.viewof_ms"])
	move("coord", "bounds", lm["bounds.extended_build_ms"])
	move("coord", "pattern", lm["pattern.witness_ms"])
	total := 0.0
	for _, ms := range self {
		total += ms
	}
	for _, layer := range []string{"bench", "sweep", "sim", "run", "bounds", "live", "coord", "pattern"} {
		lm["self."+layer+"_ms"] = self[layer]
		if total > 0 {
			lm["self."+layer+"_share"] = self[layer] / total
		}
	}
}

// meter accumulates the timed regions of a run: one region per grid or
// execution. A region's time is its wall time minus the host's steal time
// over it (stealSeconds): on a virtual machine whose host runs other
// guests, the hypervisor deschedules this guest's CPUs for bursts, and that
// time is no work of the program's. Other noise on a shared machine still
// comes in bursts that slow a whole region, so the rate is reported as the
// median over regions. The resident set size is sampled during regions.
type meter struct {
	rss     *rssSampler
	ops     int
	wall    time.Duration // wall time, steal included
	elapsed time.Duration // wall time less steal
	alloc   uint64
	gcs     uint32
	cpu     time.Duration // process CPU time (user + system)
	rates   []float64     // ops per second, per region
}

// timed runs f, which returns the ops it attempted, as one timed region.
func (m *meter) timed(f func() int) {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	c0 := cpuTime()
	m.rss.region(true)
	t0, s0 := time.Now(), stealSeconds()
	ops := f()
	wall := time.Since(t0)
	d := unstolen(wall, stealSeconds()-s0)
	m.wall += wall
	m.rss.region(false)
	m.cpu += cpuTime() - c0
	runtime.ReadMemStats(&b)
	m.ops += ops
	m.elapsed += d
	m.rates = append(m.rates, float64(ops)/d.Seconds())
	m.alloc += b.TotalAlloc - a.TotalAlloc
	m.gcs += b.NumGC - a.NumGC
}

// clockTicks is the unit of /proc/stat's times (USER_HZ, 100 on Linux).
const clockTicks = 100

// stealSeconds returns the host's cumulative steal time per CPU in seconds:
// the time the hypervisor ran something else while a CPU of this guest had
// work (the eighth value of /proc/stat's "cpu" line), divided by the CPU
// count. It is 0 where /proc/stat has no such value.
func stealSeconds() float64 {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseFloat(fields[8], 64)
	if err != nil {
		return 0
	}
	return ticks / clockTicks / float64(runtime.NumCPU())
}

// unstolen returns a wall time less the steal time over it, never less
// than half the wall time (steal is counted in whole ticks).
func unstolen(wall time.Duration, steal float64) time.Duration {
	return max(wall-time.Duration(steal*float64(time.Second)), wall/2)
}

// rssPeriod is how often the sampler reads the resident set size.
const rssPeriod = 5 * time.Millisecond

// rssSampler polls the process's resident set size from /proc/self/statm
// while a timed region runs.
type rssSampler struct {
	f       *os.File
	buf     []byte
	mu      sync.Mutex
	active  bool
	samples []float64 // MB
	stop    chan struct{}
	done    chan struct{}
}

// startRSS starts the sampler; it samples nothing where /proc is missing.
func startRSS() *rssSampler {
	s := &rssSampler{buf: make([]byte, 128), stop: make(chan struct{}), done: make(chan struct{})}
	f, err := os.Open("/proc/self/statm")
	if err != nil {
		close(s.done)
		return s
	}
	s.f = f
	go func() {
		defer close(s.done)
		t := time.NewTicker(rssPeriod)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-t.C:
				s.sample()
			}
		}
	}()
	return s
}

// sample records the resident set size once, while a region is active.
func (s *rssSampler) sample() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.active {
		return
	}
	n, err := s.f.ReadAt(s.buf, 0)
	if n == 0 && err != nil {
		return
	}
	fields := strings.Fields(string(s.buf[:n]))
	if len(fields) < 2 {
		return
	}
	pages, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return
	}
	s.samples = append(s.samples, float64(pages*int64(os.Getpagesize()))/1e6)
}

// region starts (on) or ends a timed region, sampling at its edge.
func (s *rssSampler) region(on bool) {
	if s.f == nil {
		return
	}
	if !on {
		s.sample()
	}
	s.mu.Lock()
	s.active = on
	s.mu.Unlock()
	if on {
		s.sample()
	}
}

// peak returns the 90th percentile of the samples taken in timed regions,
// in MB: the resident size the workload holds for more than a brief spike.
// Higher percentiles depend on whether two large cells of a sweep meet at a
// collection, and moved by half between runs of sweep-offline.
func (s *rssSampler) peak() float64 { return s.summary().P90 }

// summary summarizes the samples taken in timed regions, in MB.
func (s *rssSampler) summary() stats.Summary {
	s.mu.Lock()
	defer s.mu.Unlock()
	return stats.Summarize(s.samples)
}

// close stops the sampler and waits for it.
func (s *rssSampler) close() {
	if s.f != nil {
		close(s.stop)
	}
	<-s.done
	if s.f != nil {
		s.f.Close()
	}
}

// gcCPU reads the process's cumulative GC and total CPU seconds.
type cpuSecs struct{ gc, total float64 }

func gcCPU() cpuSecs {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	var c cpuSecs
	if s[0].Value.Kind() == metrics.KindFloat64 {
		c.gc = s[0].Value.Float64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		c.total = s[1].Value.Float64()
	}
	return c
}

// cpuTime returns the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// writeOutputs stores the result record and, for traced runs, the spans.
func writeOutputs(dir string, rec *record, tr *traces) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	base := filepath.Join(dir, fmt.Sprintf("%s-s%d-t%d", rec.Workload, rec.Seed, rec.Trace))
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(base+".json", append(data, '\n'), 0o644); err != nil {
		return err
	}
	if tr == nil {
		return nil
	}
	for phase, t := range map[string]*tracer{"a": tr.phaseA, "b": tr.phaseB, "probe": tr.probe} {
		if err := t.write(base + ".spans-" + phase + ".jsonl"); err != nil {
			return err
		}
	}
	return nil
}
