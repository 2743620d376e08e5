// Command perfbench is the repository's benchmark: it runs one
// workload against an in-process compile service (servers and workers
// on httptest listeners, a seeded load generator in the same process),
// checks every record the service returns, and prints its metrics.
//
//	bash perfbench/run.sh --workload sync-fresh --seed 1 --seconds 15 --trace 0
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it
// prints the per-layer split, taken from spans around the HTTP
// handler, the clients and a one-at-a-time replay of the run's job
// list through each layer's public functions, and writes the spans to
// .bench_build/trace/. The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"

	api "repro/api/v1"
)

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload to run")
	seed := flag.Int64("seed", 1, "seed of the generated inputs")
	seconds := flag.Float64("seconds", 10, "length of the measured window")
	traceFlag := flag.Int("trace", 0, "1 reports the per-layer split instead of the end-to-end metrics")
	record := flag.String("record-digests", "", "write the canary record hashes to this file instead of checking them")
	flag.Parse()
	if *name == "" || (*traceFlag != 0 && *traceFlag != 1) || *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>")
		os.Exit(2)
	}
	w, err := findWorkload(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	cfg := config{
		seed:          *seed,
		seconds:       *seconds,
		trace:         *traceFlag == 1,
		workDir:       ".bench_build",
		out:           os.Stdout,
		log:           os.Stderr,
		recordDigests: *record,
	}
	ctx, cancel := context.WithTimeout(context.Background(), 170*time.Second)
	defer cancel()
	res, err := execute(ctx, cfg, w)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, _ := json.Marshal(res)
	fmt.Println(string(line))
}

// window is what the measured interval left behind.
type window struct {
	start, end time.Time
	samples    []sample // requests the window's metrics cover
	completed  []sample // every request, for counting completions in the window
	before     api.ServerMetrics
	after      api.ServerMetrics
	procBefore procSample
	procAfter  procSample
	refused    int64
	rss        []float64     // VmRSS sampled every 100 ms
	peakMB     float64       // VmHWM at the window's end
	slice      time.Duration // traced runs alternate untraced/traced slices of this length
}

// jobsIn counts jobs whose request completed within [from, to).
func jobsIn(samples []sample, from, to time.Time) int {
	n := 0
	for _, s := range samples {
		if !s.done.Before(from) && s.done.Before(to) {
			n += s.jobs
		}
	}
	return n
}

// traceSlices is how many alternating untraced/traced slices a traced
// window is cut into.
func (c config) traceSlices() int {
	if c.tiny {
		return 2
	}
	return 6
}

// hooks runs at the window's start: it snapshots the counters, then in
// traced runs switches tracing on for every odd slice; at the window's
// end it snapshots again. The returned wait blocks until both ends are
// recorded.
func (r *run) hooks(win *window) (wait func()) {
	done := make(chan struct{})
	go func() {
		defer close(done)
		time.Sleep(time.Until(win.start))
		win.before = r.svc.Snapshot()
		win.procBefore = readProc()
		refused0 := r.load.refused.Load()
		if r.cfg.trace {
			r.tr.count.Store(true)
			for k := 1; k < r.cfg.traceSlices(); k++ {
				time.Sleep(time.Until(win.start.Add(time.Duration(k) * win.slice)))
				r.tr.on.Store(k%2 == 1)
			}
		}
		for time.Now().Before(win.end) {
			win.rss = append(win.rss, rssMB())
			time.Sleep(min(100*time.Millisecond, time.Until(win.end)))
		}
		r.tr.on.Store(false)
		r.tr.count.Store(false)
		win.after = r.svc.Snapshot()
		win.procAfter = readProc()
		win.refused = r.load.refused.Load() - refused0
		win.peakMB = peakRSSMB()
	}()
	return func() { <-done }
}

func seconds(f float64) time.Duration { return time.Duration(f * float64(time.Second)) }

// measure runs warm-up and the measured window.
func (r *run) measure(ctx context.Context) *window {
	win := &window{}
	warm, length := seconds(r.cfg.warmSeconds()), seconds(r.cfg.seconds)
	win.slice = length / time.Duration(r.cfg.traceSlices())
	next := r.nextBatch()
	// Fill the cache with the whole hot set before anything is timed.
	for lo := 0; lo < len(r.hot); lo += r.w.batch {
		hi := min(lo+r.w.batch, len(r.hot))
		recs, _, err := r.batch(ctx, r.hot[lo:hi])
		r.check(idRange(idHot, lo, hi), recs, err, false)
	}
	warmStart := time.Now()
	warmS := r.closedLoop(ctx, warmStart.Add(warm), next)
	if r.w.hot == 0 {
		// Draw enough never-seen loops for 1.5× the warm-up rate before
		// the window opens, so generation does not compete with it.
		rate := float64(jobsIn(warmS, warmStart, time.Now())) / time.Since(warmStart).Seconds()
		if err := r.fresh.reserve(int(rate*length.Seconds()*1.5) + 4*r.w.batch*r.w.clients); err != nil {
			r.invalidate("drawing loops: %v", err)
		}
	}
	win.start = time.Now().Add(10 * time.Millisecond)
	win.end = win.start.Add(length)
	wait := r.hooks(win)
	time.Sleep(time.Until(win.start))
	all := r.closedLoop(ctx, win.end, next)
	wait()
	win.completed = all
	for _, s := range all {
		if s.done.Before(win.end) {
			win.samples = append(win.samples, s)
		}
	}
	return win
}

// execute runs one workload end to end and assembles its result.
func execute(ctx context.Context, cfg config, w *workload) (*result, error) {
	r, err := newRun(cfg, w, filepath.Join(cfg.workDir, "work", fmt.Sprintf("%s-%d", w.name, os.Getpid())))
	if err != nil {
		return nil, err
	}
	defer r.close()
	t := time.Now()
	phase := func(name string) {
		if cfg.log != nil {
			fmt.Fprintf(cfg.log, "perfbench: %s %s took %v (VmHWM %.1f MB)\n", w.name, name, time.Since(t).Round(time.Millisecond), peakRSSMB())
		}
		t = time.Now()
	}
	if err := r.setup(ctx); err != nil {
		return nil, err
	}
	phase("set-up")
	if err := r.runCanary(ctx); err != nil {
		return nil, err
	}
	phase("canary")
	win := r.measure(ctx)
	phase("warm-up and window")
	if err := r.chk.verify(ctx, r.textsOf); err != nil {
		return nil, err
	}
	phase("reference check")
	r.validate(win)

	res := &result{Metrics: make(map[string]metricValue)}
	var vals map[string]float64
	if cfg.trace {
		if vals, err = r.layers(ctx, win); err != nil {
			return nil, err
		}
		phase("layer replay")
	} else {
		vals = r.endToEnd(win)
	}
	res.Attempted, res.Failed = r.chk.counts()
	res.Correct = res.Failed == 0 && len(r.invalid) == 0 && res.Attempted > 0
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not computed", d.name)
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	r.report(cfg.out, res, win)
	return res, nil
}

// validate records why a run's numbers cannot be trusted.
func (r *run) validate(win *window) {
	if len(win.samples) == 0 {
		r.invalidate("no request completed inside the measured window")
	}
	if r.chk.repeats > 0 {
		r.invalidate("%d never-seen loops were sent twice", r.chk.repeats)
	}
	hits := float64(win.after.Cache.Hits - win.before.Cache.Hits)
	misses := float64(win.after.Cache.Misses - win.before.Cache.Misses)
	switch {
	case r.w.hot > 0 && ratio(hits, hits+misses) < 0.95:
		r.invalidate("hot-set cache hit share %.3f is below 0.95", ratio(hits, hits+misses))
	case r.w.hot == 0 && hits > 0:
		r.invalidate("%v cache hits on a never-seen workload", hits)
	}
}

func latencies(samples []sample) []float64 {
	out := make([]float64, len(samples))
	for i, s := range samples {
		out[i] = s.latMS
	}
	return sortedCopy(out)
}

// endToEnd computes the metrics a caller of the service sees.
func (r *run) endToEnd(win *window) map[string]float64 {
	lat := latencies(win.samples)
	tailV, _ := tail(lat)
	iiRatio, cycles := r.quality()
	attempted, failed := r.chk.counts()
	return map[string]float64{
		"setup_s":          quantile(sortedCopy(r.setupS), 0.5),
		"latency_p50_ms":   quantile(lat, 0.5),
		"latency_tail_ms":  tailV,
		"jobs_per_s":       float64(jobsIn(win.completed, win.start, win.end)) / win.end.Sub(win.start).Seconds(),
		"ok_frac":          1 - ratio(float64(failed), float64(attempted)),
		"rss_mb_p50":       quantile(sortedCopy(win.rss), 0.5),
		"mean_ii_over_mii": iiRatio,
		"cycles_per_job":   cycles,
	}
}

// report prints every metric by name with its unit, the tail's
// percentile and sample count, the failure share and any reason the
// run is invalid.
func (r *run) report(out io.Writer, res *result, win *window) {
	fmt.Fprintf(out, "workload %s seed %d: %d jobs attempted, %d failed (failed_frac %.6f)\n",
		r.w.name, r.cfg.seed, res.Attempted, res.Failed, ratio(float64(res.Failed), float64(res.Attempted)))
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Fprintf(out, "  %-28s %14.6g %s\n", n, m.Value, m.Unit)
	}
	if !r.cfg.trace {
		lat := latencies(win.samples)
		_, pct := tail(lat)
		fmt.Fprintf(out, "  latency_tail_ms is p%g over %d requests; setup_s is the median of %d set-ups; VmHWM %.1f MB\n",
			pct, len(lat), len(r.setupS), win.peakMB)
	}
	for _, why := range r.chk.reasons() {
		fmt.Fprintln(out, "  failed:", why)
	}
	for _, why := range r.invalid {
		fmt.Fprintln(out, "  INVALID:", why)
	}
}
