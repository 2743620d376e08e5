package main

import (
	"bufio"
	"math"
	"os"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
)

// metricDef names one reported metric and its unit. BENCHMARK.json
// declares the same names; the package tests keep the two in step.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a caller of the compile service sees,
// reported by untraced runs.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"latency_p50_ms", "ms"},
	{"latency_tail_ms", "ms"},
	{"jobs_per_s", "1/s"},
	{"ok_frac", "ratio"},
	{"rss_mb_p50", "MB"},
	{"mean_ii_over_mii", "ratio"},
	{"cycles_per_job", "cycles"},
}

// perLayer are the metrics of single layers, reported by traced runs.
var perLayer = []metricDef{
	{"http.server_ms_p50", "ms"},
	{"http.requests", "count"},
	{"http.lease_rpcs", "count"},
	{"http.result_posts", "count"},
	{"http.lease_wait_ms_p50", "ms"},
	{"api.decode_us_per_req", "us"},
	{"api.encode_us_per_job", "us"},
	{"loop.parse_us_per_job", "us"},
	{"loop.parse_kb_per_job", "KB"},
	{"server.key_us_per_job", "us"},
	{"server.cache_hits", "count"},
	{"server.cache_misses", "count"},
	{"server.cache_hit_frac", "ratio"},
	{"server.cache_lookup_us", "us"},
	{"server.record_us_per_job", "us"},
	{"server.dispatched", "count"},
	{"server.resolved", "count"},
	{"server.requeued", "count"},
	{"server.units_per_lease", "count"},
	{"server.units_per_post", "count"},
	{"jobs.admitted", "count"},
	{"jobs.rejected", "count"},
	{"jobs.queue_wait_ms_p50", "ms"},
	{"jobs.queue_wait_ms_tail", "ms"},
	{"jobs.service_ms_p50", "ms"},
	{"jobs.wal_bytes_per_unit", "B"},
	{"jobs.wal_ack_us", "us"},
	{"worker.busy_frac", "ratio"},
	{"worker.chunk_mean", "count"},
	{"worker.cache_hit_frac", "ratio"},
	{"driver.prepare_us_per_job", "us"},
	{"driver.verify_us_per_job", "us"},
	{"driver.copies_per_job", "count"},
	{"core.schedule_us_per_job", "us"},
	{"core.iis_tried_per_job", "count"},
	{"core.ii_success_frac", "ratio"},
	{"core.placements_per_job", "count"},
	{"core.evict_frac", "ratio"},
	{"exact.schedule_ms_per_job", "ms"},
	{"exact.iis_tried_per_job", "count"},
	{"sat.solves_per_job", "count"},
	{"sat.conflicts_per_job", "count"},
	{"sat.decisions_per_job", "count"},
	{"sat.propagations_per_job", "count"},
	{"dmsclient.decode_us_per_job", "us"},
	{"dmsclient.retries", "count"},
	{"proc.alloc_kb_per_job", "KB"},
	{"proc.gc_cpu_frac", "ratio"},
	{"trace.overhead_frac", "ratio"},
}

// rank is the 1-based nearest rank of quantile q among n samples,
// with a tolerance so that 0.999 of 10000 is 9990, not 9991.
func rank(q float64, n int) int {
	return min(max(int(math.Ceil(q*float64(n)-1e-9)), 1), n)
}

// quantile is the nearest-rank q-quantile of an ascending sample.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(q, len(sorted))-1]
}

// tailLadder lists the percentiles a tail is read at, highest first.
var tailLadder = []float64{99.99, 99.9, 99, 90, 50}

// tail returns the highest ladder percentile that leaves at least ten
// samples beyond it, and its value. Below twenty samples no percentile
// qualifies and the median is returned.
func tail(sorted []float64) (value, pct float64) {
	for _, p := range tailLadder {
		if len(sorted)-rank(p/100, len(sorted)) >= 10 {
			return quantile(sorted, p/100), p
		}
	}
	return quantile(sorted, 0.5), 50
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

// ratio is a/b, or 0 when b is 0 (a layer the workload never reaches).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// peakRSSMB reads the process's high-water resident set (VmHWM).
func peakRSSMB() float64 { return statusMB("VmHWM:") }

// rssMB reads the process's current resident set (VmRSS).
func rssMB() float64 { return statusMB("VmRSS:") }

// statusMB reads one kB field of /proc/self/status in MB.
func statusMB(field string) float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), field); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// procSample is a runtime/metrics reading: bytes allocated, GC CPU and
// total CPU seconds.
type procSample struct{ allocBytes, gcCPU, totalCPU float64 }

var procNames = []string{"/gc/heap/allocs:bytes", "/cpu/classes/gc/total:cpu-seconds", "/cpu/classes/total:cpu-seconds"}

func readProc() procSample {
	s := make([]metrics.Sample, len(procNames))
	for i, n := range procNames {
		s[i].Name = n
	}
	metrics.Read(s)
	val := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	return procSample{val(0), val(1), val(2)}
}

// allocBytes is the heap bytes allocated so far by the process.
func allocBytes() float64 {
	s := []metrics.Sample{{Name: procNames[0]}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64())
}
