package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	api "repro/api/v1"
)

// TestTinyRunEveryWorkload runs every workload at test size, untraced
// and traced, and requires a correct result that prints every declared
// metric with its unit.
func TestTinyRunEveryWorkload(t *testing.T) {
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			name := w.name + "/untraced"
			defs := endToEnd
			if traced {
				name, defs = w.name+"/traced", perLayer
			}
			t.Run(name, func(t *testing.T) {
				var out bytes.Buffer
				cfg := config{seed: 7, seconds: 1.5, trace: traced, tiny: true, workDir: t.TempDir(), out: &out}
				ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
				defer cancel()
				res, err := execute(ctx, cfg, w)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("result %+v not correct:\n%s", res, out.String())
				}
				if len(res.Metrics) != len(defs) {
					t.Errorf("%d metrics, want %d", len(res.Metrics), len(defs))
				}
				for _, d := range defs {
					m, ok := res.Metrics[d.name]
					if !ok || m.Unit != d.unit {
						t.Errorf("metric %s = %+v, want unit %s", d.name, m, d.unit)
					}
					if !strings.Contains(out.String(), d.name) {
						t.Errorf("report does not print %s", d.name)
					}
				}
				if traced {
					checkShape(t, w, res.Metrics)
					if _, err := os.Stat(filepath.Join(cfg.workDir, "trace", w.name+"-seed7.jsonl")); err != nil {
						t.Errorf("trace file: %v", err)
					}
				}
			})
		}
	}
}

// checkShape checks the traced split follows the path each workload's
// jobs took: sync-hot is served from the cache, so the replay must not
// charge it for compiling; sync-fresh misses every time.
func checkShape(t *testing.T, w *workload, m map[string]metricValue) {
	t.Helper()
	hit, sched := m["server.cache_hit_frac"].Value, m["core.schedule_us_per_job"].Value
	switch w.name {
	case "sync-hot":
		if hit < 0.95 || sched != 0 || m["driver.prepare_us_per_job"].Value != 0 {
			t.Errorf("sync-hot: cache_hit_frac %v, schedule %v us, prepare %v us; want >= 0.95, 0, 0",
				hit, sched, m["driver.prepare_us_per_job"].Value)
		}
	case "sync-fresh":
		if hit != 0 || sched <= 0 {
			t.Errorf("sync-fresh: cache_hit_frac %v, schedule %v us; want 0 and > 0", hit, sched)
		}
	}
}

// TestCheckerFlagsCorruptRecord feeds the checker a record that
// matches the reference and then corrupted ones.
func TestCheckerFlagsCorruptRecord(t *testing.T) {
	ctx := context.Background()
	w, err := findWorkload("sync-fresh")
	if err != nil {
		t.Fatal(err)
	}
	texts := loops(fixedSeed, streamCanary, 2)
	good := compileRecords(t, w, texts)

	textsOf := func(ids []jobID) ([]string, error) {
		out := make([]string, len(ids))
		for i, id := range ids {
			out[i] = texts[id.index()]
		}
		return out, nil
	}
	c := newChecker(w)
	c.record(makeID(idCanary, 0), good[0], true)
	if err := c.verify(ctx, textsOf); err != nil {
		t.Fatal(err)
	}
	if _, failed := c.counts(); failed != 0 {
		t.Fatalf("a correct record failed: %v", c.reasons())
	}

	// A schedule line moved to another cycle still looks like a schedule,
	// so only the byte comparison against driver.CompileAll catches it.
	bad := good[1]
	bad.Schedule = strings.Replace(bad.Schedule, "t=0 ", "t=1 ", 1)
	if bad.Schedule == good[1].Schedule {
		t.Fatal("corruption did not change the record")
	}
	c = newChecker(w)
	c.record(makeID(idCanary, 1), bad, true)
	if _, failed := c.counts(); failed != 0 {
		t.Fatalf("record rejected before the reference check: %v", c.reasons())
	}
	if err := c.verify(ctx, textsOf); err != nil {
		t.Fatal(err)
	}
	if _, failed := c.counts(); failed != 1 {
		t.Fatalf("corrupt record not flagged: %v", c.reasons())
	}

	// A record that fails on its own and also differs from the reference
	// is one failed job, not two.
	twice := good[1]
	twice.II = twice.MII - 1
	c = newChecker(w)
	c.record(makeID(idCanary, 1), twice, true)
	if err := c.verify(ctx, textsOf); err != nil {
		t.Fatal(err)
	}
	if attempted, failed := c.counts(); attempted != 1 || failed != 1 {
		t.Fatalf("attempted %d failed %d, want 1 and 1: %v", attempted, failed, c.reasons())
	}

	for name, mutate := range map[string]func(*api.JobResult){
		"error":     func(r *api.JobResult) { r.Error, r.ErrorCode = "boom", api.CodeInternal },
		"II<MII":    func(r *api.JobResult) { r.II = r.MII - 1 },
		"no sched":  func(r *api.JobResult) { r.Schedule = "" },
		"differing": func(r *api.JobResult) { r.Metrics = &api.ScheduleMetrics{} },
	} {
		c := newChecker(w)
		c.record(makeID(idCanary, 0), good[0], false)
		rec := good[0]
		mutate(&rec)
		c.record(makeID(idCanary, 0), rec, false)
		if attempted, failed := c.counts(); attempted != 2 || failed != 1 {
			t.Errorf("%s: attempted %d failed %d, want 2 and 1", name, attempted, failed)
		}
	}

	exact, err := findWorkload("exact-async")
	if err != nil {
		t.Fatal(err)
	}
	rec := compileRecords(t, exact, texts[:1])[0]
	rec.Stats.ProvedOptimal = false
	if p := newChecker(exact).problem(rec); p == "" {
		t.Error("exact record without a proof accepted")
	}
}

// compileRecords returns the service's records for texts, compiled
// through an in-process server.
func compileRecords(t *testing.T, w *workload, texts []string) []api.JobResult {
	t.Helper()
	r, err := newRun(config{seed: 1, tiny: true}, w, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer r.close()
	if _, err := r.openOnce(context.Background(), 0); err != nil {
		t.Fatal(err)
	}
	recs, _, err := r.batch(context.Background(), texts)
	if err != nil {
		t.Fatal(err)
	}
	return recs
}

// TestSelfTimes checks self time on a hand-built span tree with
// overlapping and overhanging children, after a round trip through the
// trace file.
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 60},  // overlaps a
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120}, // runs past root
		{ID: 5, Parent: 2, Name: "a1", Start: 15, End: 20},
		{ID: 6, Name: "lone", Start: 5, End: 8},
	}
	path := filepath.Join(t.TempDir(), "spans.jsonl")
	if err := writeSpans(path, spans); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var back []span
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatal(err)
		}
		back = append(back, s)
	}
	want := map[int64]time.Duration{1: 40, 2: 25, 3: 30, 4: 30, 5: 5, 6: 3}
	got := selfTimes(back)
	for id, w := range want {
		if got[id] != w {
			t.Errorf("span %d self = %v, want %v", id, got[id], w)
		}
	}
	rows := selfTable(back)
	if rows[0].name != "root" || rows[0].self != 40 || rows[0].total != 100 {
		t.Errorf("top self-time row = %+v, want root 40/100", rows[0])
	}
}

// TestTail checks the tail percentile keeps ten samples beyond it.
func TestTail(t *testing.T) {
	for n, want := range map[int]float64{15: 50, 100: 90, 999: 90, 1000: 99, 10000: 99.9} {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		v, pct := tail(xs)
		if pct != want {
			t.Errorf("n=%d: p%g, want p%g", n, pct, want)
		}
		if beyond := n - int(v); pct != 50 && beyond < 10 {
			t.Errorf("n=%d: only %d samples beyond p%g", n, beyond, pct)
		}
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json in step with the workloads and
// metrics this program defines.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct{ Name, Unit string }
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		if _, err := findWorkload(w.Name); err != nil {
			t.Error(err)
		}
	}
	for _, c := range []struct {
		declared []metric
		defined  []metricDef
	}{{spec.EndToEnd, endToEnd}, {spec.PerLayer, perLayer}} {
		if len(c.declared) != len(c.defined) {
			t.Errorf("%d metrics declared, %d defined", len(c.declared), len(c.defined))
			continue
		}
		for i, d := range c.defined {
			if c.declared[i].Name != d.name || c.declared[i].Unit != d.unit {
				t.Errorf("metric %d: declared %+v, defined %+v", i, c.declared[i], d)
			}
		}
	}
}
