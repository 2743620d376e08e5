package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"path/filepath"
	"strings"
	"time"

	api "repro/api/v1"
	"repro/internal/driver"
	"repro/internal/jobs"
	"repro/internal/loop"
	"repro/internal/server"
)

// replayCap bounds the jobs replayed one at a time through the layer
// functions: enough for stable per-job means, few enough that the
// replay of a heavy-tailed exact list stays within seconds.
func (r *run) replayCap() int {
	switch {
	case r.cfg.tiny:
		return 8
	case r.w.scheduler == "exact":
		return 64
	}
	return 2048
}

// replayed sums what the one-at-a-time replay measured, per layer.
// Times are summed over every replayed job; the scheduler's counts
// over the compiled ones (cache misses) only.
type replayed struct {
	jobs, requests, hits, compiled       int
	decodeReq                            time.Duration
	parse, key, lookup, prepare, sched   time.Duration
	verify, record, encode, clientDecode time.Duration
	parseBytes                           float64
	copies, iis, placements, evictions   float64
	solves, conflicts, decisions, props  float64
}

// since closes a span and returns the time since start.
func since(start time.Time, end func()) time.Duration {
	end()
	return time.Since(start)
}

// replay sends the run's job list, one job at a time, through each
// layer's public function, with a span around every call under a
// per-job root span.
func (r *run) replay(ctx context.Context, texts []string, cached []bool) (*replayed, error) {
	out := &replayed{}
	r.tr.on.Store(true)
	defer r.tr.on.Store(false)
	sched, err := driver.Get(r.w.scheduler)
	if err != nil {
		return nil, err
	}
	m := r.w.machineFor()

	// The request body as the handler decodes it, once per batch.
	for lo := 0; lo < len(texts); lo += r.w.batch {
		body, err := json.Marshal(r.w.request(texts[lo:min(lo+r.w.batch, len(texts))]))
		if err != nil {
			return nil, err
		}
		_, end := r.tr.begin("api.decode_request", 0, 0)
		t := time.Now()
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		var req api.CompileRequest
		err = dec.Decode(&req)
		out.decodeReq += since(t, end)
		if err != nil {
			return nil, err
		}
		out.requests++
	}

	// Parsing on its own pass, so its allocations can be read off the
	// heap counters.
	parsed := make([]*loop.Loop, len(texts))
	root, endRoot := r.tr.begin("replay.parse", 0, 0)
	alloc0 := allocBytes()
	for i, text := range texts {
		_, end := r.tr.begin("loop.parse", root, root)
		t := time.Now()
		parsed[i], err = loop.ParseString(text)
		out.parse += since(t, end)
		if err != nil {
			return nil, err
		}
	}
	out.parseBytes = allocBytes() - alloc0
	endRoot()

	// The service resolves each job through Cache.Do (server.CompileRecord),
	// compiling only on a miss. A job the window answered from the
	// service's cache replays against that cache and takes the hit path;
	// any other job missed in the window and replays against an empty
	// cache, so it runs Prepare, Schedule, Verify and Record and is
	// inserted, as it was then.
	missCache := server.NewCache(0)
	for i, l := range parsed {
		job := driver.Job{Loop: l, Machine: m, Scheduler: r.w.scheduler}
		root, endRoot := r.tr.begin("replay.job", 0, 0)
		layer := func(name string, parent int64) (int64, time.Time, func()) {
			id, end := r.tr.begin(name, parent, root)
			return id, time.Now(), end
		}

		_, t, end := layer("server.key", root)
		key := server.JobKey(job)
		out.key += since(t, end)

		cache := missCache
		if cached[i] {
			cache = r.svc.Cache()
		}
		var st driver.Stats
		var copies int
		var inner time.Duration // compile time spent inside Cache.Do
		cacheSpan, tc, endCache := layer("server.cache", root)
		val, hit, err := cache.Do(ctx, key, func() (any, error) {
			_, t, end := layer("driver.prepare", cacheSpan)
			g, n := driver.Prepare(sched, l, m, m.Lat)
			d := since(t, end)
			out.prepare, inner, copies = out.prepare+d, inner+d, n

			_, t, end = layer(r.w.scheduler+".schedule", cacheSpan)
			s, stats, err := sched.Schedule(ctx, g, m, driver.Options{})
			d = since(t, end)
			out.sched, inner, st = out.sched+d, inner+d, stats
			if err != nil {
				return nil, err
			}

			_, t, end = layer("driver.verify", cacheSpan)
			err = driver.Verify(s)
			d = since(t, end)
			out.verify, inner = out.verify+d, inner+d
			if err != nil {
				return nil, err
			}

			_, t, end = layer("server.record", cacheSpan)
			rec := server.Record(driver.Result{Job: job, Schedule: s, Stats: st, Metrics: s.Measure(l.Trip)})
			d = since(t, end)
			out.record, inner = out.record+d, inner+d
			return rec, nil
		})
		out.lookup += since(tc, endCache) - inner
		if err != nil {
			endRoot()
			return nil, fmt.Errorf("replay %s: %w", job, err)
		}
		rec := val.(api.JobResult)
		rec.Cached = hit

		var buf bytes.Buffer
		_, t, end = layer("api.encode", root)
		err = json.NewEncoder(&buf).Encode(rec)
		out.encode += since(t, end)
		if err != nil {
			endRoot()
			return nil, err
		}

		_, t, end = layer("dmsclient.decode", root)
		_, _, err = api.DecodeStreamLine(bytes.TrimSpace(buf.Bytes()))
		out.clientDecode += since(t, end)
		endRoot()
		if err != nil {
			return nil, err
		}

		out.jobs++
		if hit {
			out.hits++
			continue
		}
		out.compiled++
		out.copies += float64(copies)
		out.iis += float64(st.IIsTried)
		out.placements += float64(st.Placements)
		out.evictions += float64(st.Evictions)
		out.solves += float64(st.Extra["sat_solves"])
		out.conflicts += float64(st.Extra["sat_conflicts"])
		out.decisions += float64(st.Extra["sat_decisions"])
		out.props += float64(st.Extra["sat_propagations"])
	}
	return out, nil
}

// walReplay logs units for the first jobs through a synced WAL queue,
// leases them and acknowledges them in posts of eight, as a worker's
// batched result post would. It returns the bytes logged per unit and
// the mean time of one AckBatch.
func (r *run) walReplay(texts []string) (bytesPerUnit, ackUS float64, err error) {
	n := min(len(texts), 64)
	q, err := jobs.NewWALQueue(jobs.NewMemQueue(0), filepath.Join(r.dataDir, "walreplay"), jobs.WALOptions{Sync: true})
	if err != nil {
		return 0, 0, err
	}
	defer q.Close()
	b0 := q.WALBytes()
	for i := 0; i < n; i++ {
		u := api.WorkUnit{ID: fmt.Sprintf("replay/%d", i), Loop: texts[i], Machine: r.w.machine, Scheduler: r.w.scheduler}
		if err := q.Enqueue(jobs.Task{ID: u.ID, Payload: u}); err != nil {
			return 0, 0, err
		}
	}
	bytesPerUnit = float64(q.WALBytes()-b0) / float64(n)
	lease, tasks := q.Lease("replay", n, time.Minute)
	var acks []float64
	for lo := 0; lo < len(tasks); lo += 8 {
		ids := make([]string, 0, 8)
		for _, t := range tasks[lo:min(lo+8, len(tasks))] {
			ids = append(ids, t.ID)
		}
		t := time.Now()
		q.AckBatch(lease, ids)
		acks = append(acks, float64(time.Since(t).Microseconds()))
	}
	return bytesPerUnit, mean(acks), nil
}

// jobTimes returns queue wait and service time, in ms, of the async
// batches read in traced slices. A synchronous job's ID is never
// revealed and its job is released as soon as it ends, so on the sync
// surface both go unmeasured and read 0.
func jobTimes(win *window) (wait, service []float64) {
	for _, s := range win.samples {
		if s.timed {
			wait = append(wait, s.waitMS)
			service = append(service, s.serviceMS)
		}
	}
	return sortedCopy(wait), sortedCopy(service)
}

// layers computes the per-layer split of a traced run and writes its
// spans out.
func (r *run) layers(ctx context.Context, win *window) (map[string]float64, error) {
	var ids []jobID
	var cached []bool
	for _, s := range win.samples {
		if len(ids) >= r.replayCap() {
			break
		}
		ids = append(ids, s.ids...)
		cached = append(cached, s.cached...)
	}
	n := min(len(ids), r.replayCap())
	texts, err := r.textsOf(ids[:n])
	if err != nil {
		return nil, err
	}
	if len(texts) == 0 {
		return nil, fmt.Errorf("no jobs to replay")
	}
	live := r.tr.snapshot()
	rep, err := r.replay(ctx, texts, cached[:n])
	if err != nil {
		return nil, err
	}
	walBytes, walAck, err := r.walReplay(texts)
	if err != nil {
		return nil, err
	}
	wait, service := jobTimes(win)
	waitTail, _ := tail(wait)

	// Traced against untraced throughput, slice by slice.
	var tracedJobs, plainJobs int
	var tracedDur, plainDur time.Duration
	for k := 0; k < r.cfg.traceSlices(); k++ {
		from := win.start.Add(time.Duration(k) * win.slice)
		n := jobsIn(win.completed, from, from.Add(win.slice))
		if k%2 == 1 {
			tracedJobs, tracedDur = tracedJobs+n, tracedDur+win.slice
		} else {
			plainJobs, plainDur = plainJobs+n, plainDur+win.slice
		}
	}
	overhead := 1 - ratio(float64(tracedJobs)/tracedDur.Seconds(), float64(plainJobs)/plainDur.Seconds())

	var serverMS, leaseMS []float64
	for _, s := range live {
		switch {
		case s.Name == "worker.lease":
			leaseMS = append(leaseMS, ms(s.dur()))
		case strings.HasPrefix(s.Name, "http.server.") && s.Name != "http.server.lease":
			serverMS = append(serverMS, ms(s.dur()))
		}
	}
	routes := r.tr.routeCounts()
	var requests int64
	for _, n := range routes {
		requests += n
	}

	b, a := win.before, win.after
	hits := float64(a.Cache.Hits - b.Cache.Hits)
	misses := float64(a.Cache.Misses - b.Cache.Misses)
	dispatched := float64(a.Dispatch.Dispatched - b.Dispatch.Dispatched)
	resolved := float64(a.Dispatch.Resolved - b.Dispatch.Resolved)
	windowMS := ms(win.end.Sub(win.start))
	var busy, chunk, workerHit float64
	for id, wm := range a.Dispatch.Workers {
		done := float64(wm.ResolvedUnits - b.Dispatch.Workers[id].ResolvedUnits)
		busy += done * wm.EWMAUnitMS / windowMS
		chunk += float64(wm.CurrentChunk)
		workerHit += wm.CacheHitRate
	}
	if nw := float64(len(a.Dispatch.Workers)); nw > 0 {
		busy, chunk, workerHit = busy/nw, chunk/nw, workerHit/nw
	}
	windowJobs := float64(jobsIn(win.completed, win.start, win.end))

	// Times are per replayed job, so on a cached workload the compile
	// layers read what the service spent on them: next to nothing.
	// Scheduler counts are per compiled job.
	jobsN, compiled := float64(rep.jobs), float64(rep.compiled)
	perJob := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 / jobsN }
	v := map[string]float64{
		"http.server_ms_p50":          quantile(sortedCopy(serverMS), 0.5),
		"http.requests":               float64(requests),
		"http.lease_rpcs":             float64(routes["lease"]),
		"http.result_posts":           float64(routes["post"]),
		"http.lease_wait_ms_p50":      quantile(sortedCopy(leaseMS), 0.5),
		"api.decode_us_per_req":       float64(rep.decodeReq.Microseconds()) / float64(rep.requests),
		"api.encode_us_per_job":       perJob(rep.encode),
		"loop.parse_us_per_job":       perJob(rep.parse),
		"loop.parse_kb_per_job":       rep.parseBytes / 1024 / jobsN,
		"server.key_us_per_job":       perJob(rep.key),
		"server.cache_hits":           hits,
		"server.cache_misses":         misses,
		"server.cache_hit_frac":       ratio(hits, hits+misses),
		"server.cache_lookup_us":      perJob(rep.lookup),
		"server.record_us_per_job":    perJob(rep.record),
		"server.dispatched":           dispatched,
		"server.resolved":             resolved,
		"server.requeued":             float64(a.Dispatch.Requeued - b.Dispatch.Requeued),
		"server.units_per_lease":      ratio(dispatched, float64(routes["lease"])),
		"server.units_per_post":       ratio(resolved, float64(routes["post"])),
		"jobs.admitted":               float64(a.Queue.Admitted - b.Queue.Admitted),
		"jobs.rejected":               float64(a.Queue.Rejected - b.Queue.Rejected),
		"jobs.queue_wait_ms_p50":      quantile(wait, 0.5),
		"jobs.queue_wait_ms_tail":     waitTail,
		"jobs.service_ms_p50":         quantile(service, 0.5),
		"jobs.wal_bytes_per_unit":     walBytes,
		"jobs.wal_ack_us":             walAck,
		"worker.busy_frac":            busy,
		"worker.chunk_mean":           chunk,
		"worker.cache_hit_frac":       workerHit,
		"driver.prepare_us_per_job":   perJob(rep.prepare),
		"driver.verify_us_per_job":    perJob(rep.verify),
		"driver.copies_per_job":       ratio(rep.copies, compiled),
		"core.schedule_us_per_job":    0,
		"core.iis_tried_per_job":      0,
		"core.ii_success_frac":        0,
		"core.placements_per_job":     0,
		"core.evict_frac":             0,
		"exact.schedule_ms_per_job":   0,
		"exact.iis_tried_per_job":     0,
		"sat.solves_per_job":          ratio(rep.solves, compiled),
		"sat.conflicts_per_job":       ratio(rep.conflicts, compiled),
		"sat.decisions_per_job":       ratio(rep.decisions, compiled),
		"sat.propagations_per_job":    ratio(rep.props, compiled),
		"dmsclient.decode_us_per_job": perJob(rep.clientDecode),
		"dmsclient.retries":           float64(win.refused),
		"proc.alloc_kb_per_job":       ratio((win.procAfter.allocBytes-win.procBefore.allocBytes)/1024, windowJobs),
		"proc.gc_cpu_frac":            ratio(win.procAfter.gcCPU-win.procBefore.gcCPU, win.procAfter.totalCPU-win.procBefore.totalCPU),
		"trace.overhead_frac":         overhead,
	}
	if r.w.scheduler == "exact" {
		v["exact.schedule_ms_per_job"] = perJob(rep.sched) / 1000
		v["exact.iis_tried_per_job"] = ratio(rep.iis, compiled)
	} else {
		v["core.schedule_us_per_job"] = perJob(rep.sched)
		v["core.iis_tried_per_job"] = ratio(rep.iis, compiled)
		v["core.ii_success_frac"] = ratio(compiled, rep.iis)
		v["core.placements_per_job"] = ratio(rep.placements, compiled)
		v["core.evict_frac"] = ratio(rep.evictions, rep.placements)
	}

	spans := r.tr.snapshot()
	path := filepath.Join(r.cfg.workDir, "trace", fmt.Sprintf("%s-seed%d.jsonl", r.w.name, r.cfg.seed))
	if err := writeSpans(path, spans); err != nil {
		return nil, err
	}
	fmt.Fprintf(r.cfg.out, "trace: %d spans written to %s; replayed %d jobs (%d cache hits, %d compiled); window %d jobs, %d traced in %v, %d untraced in %v\n",
		len(spans), path, rep.jobs, rep.hits, rep.compiled, int(windowJobs), tracedJobs, tracedDur, plainJobs, plainDur)
	if !r.w.async {
		fmt.Fprintln(r.cfg.out, "jobs.queue_wait_ms_* and jobs.service_ms_p50 are not measured on the synchronous surface and read 0")
	}
	fmt.Fprintf(r.cfg.out, "bases: lease_rpcs %d, result_posts %d, dispatched %v, resolved %v, cache lookups %v\n",
		routes["lease"], routes["post"], dispatched, resolved, hits+misses)
	printSelfTable(r.cfg.out, spans)
	return v, nil
}
