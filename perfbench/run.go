package main

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	api "repro/api/v1"
	"repro/internal/loop"
	"repro/internal/perfect"
	"repro/internal/server"
	"repro/internal/worker"
	"repro/pkg/dmsclient"
)

// config is one invocation's settings.
type config struct {
	seed    int64
	seconds float64
	trace   bool
	// tiny shrinks every fixed phase (set-up repeats, canary list,
	// warm-up, replay) so tests can run every workload in seconds.
	tiny    bool
	workDir string    // durable state and trace files live under it
	out     io.Writer // human-readable report
	log     io.Writer // phase timings (nil = none)
	// recordDigests, when set, writes the canary hashes there instead
	// of comparing them with the recorded ones.
	recordDigests string
}

// setups is how many times a run brings the service up. A standalone
// set-up takes about a millisecond and a durable one about ten, so
// each is repeated often enough for its median to hold still; a
// durable one also drains the batch it recovers.
func (c config) setups(w *workload) int {
	switch {
	case c.tiny:
		return 1
	case w.distribute:
		return 40
	}
	return 200
}

func (c config) warmSeconds() float64 {
	if c.tiny {
		return 0.3
	}
	return 2
}

// run is one workload run: the service under test, its clients and
// the checker every record passes through.
type run struct {
	cfg config
	w   *workload
	tr  *tracer
	chk *checker

	fresh *pool      // never-seen loops
	probe []string   // the loops every set-up compiles
	hot   []string   // the hot set, when the workload has one
	load  *transport // the load generator's client transport
	svc   *server.Server
	ts    *httptest.Server
	cli   *dmsclient.Client
	fleet *fleet

	dataDir   string
	recoverID string // durable workloads: the interrupted job every set-up resumes
	setupS    []float64
	canary    []api.JobResult
	invalidMu sync.Mutex
	invalid   []string // reasons the run measured nothing trustworthy
}

// newRun prepares a run whose durable state and loop pool live in dir.
func newRun(cfg config, w *workload, dir string) (*run, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	poolSeed := cfg.seed
	if w.sameLoops {
		poolSeed = fixedSeed
	}
	fresh, err := newPool(poolSeed, filepath.Join(dir, "pool.loops"))
	if err != nil {
		return nil, err
	}
	probe := loops(fixedSeed, streamProbe, w.batch)
	if !w.distribute {
		// Every standalone set-up compiles the same small kernel, so the
		// set-up time measures bringing the service up, not the scheduler
		// on a loop that differs from one set-up to the next.
		probe = []string{loop.Format(perfect.KernelDot())}
	}
	base := http.DefaultTransport.(*http.Transport).Clone()
	// All load comes over at most nproc (2) connections.
	base.MaxConnsPerHost = 2
	base.MaxIdleConnsPerHost = 2
	tr := newTracer()
	return &run{
		cfg:     cfg,
		w:       w,
		tr:      tr,
		chk:     newChecker(w),
		dataDir: dir,
		fresh:   fresh,
		probe:   probe,
		hot:     loops(cfg.seed, streamHot, w.hot),
		load:    &transport{t: tr, prefix: "client.", base: base},
	}, nil
}

// close stops everything the run started and removes its files.
func (r *run) close() {
	r.shutdown()
	r.fresh.close()
	os.RemoveAll(r.dataDir)
}

// canaryTexts is the fixed canary list, shortened in tiny runs.
func (r *run) canaryTexts() []string {
	n := r.w.canary
	if r.cfg.tiny {
		n = min(n, 8)
	}
	return loops(fixedSeed, streamCanary, n)
}

// textsOf returns the loop texts of job ids.
func (r *run) textsOf(ids []jobID) ([]string, error) {
	var canary []string
	out := make([]string, len(ids))
	for i, id := range ids {
		switch id.stream() {
		case idProbe:
			out[i] = r.probe[id.index()]
		case idCanary:
			if canary == nil {
				canary = r.canaryTexts()
			}
			out[i] = canary[id.index()]
		case idHot:
			out[i] = r.hot[id.index()]
		default:
			t, err := r.fresh.text(id.index())
			if err != nil {
				return nil, err
			}
			out[i] = t
		}
	}
	return out, nil
}

func (r *run) invalidate(format string, args ...any) {
	r.invalidMu.Lock()
	defer r.invalidMu.Unlock()
	r.invalid = append(r.invalid, fmt.Sprintf(format, args...))
}

// options are the server options of the workload's deployment.
func (r *run) options(dir string) server.Options {
	if !r.w.distribute {
		return server.Options{}
	}
	return server.Options{Distribute: true, DataDir: dir, Fsync: true}
}

func (r *run) handler(svc *server.Server) http.Handler {
	if r.cfg.trace {
		return r.tr.handler(svc.Handler())
	}
	return svc.Handler()
}

func (r *run) client(url string) *dmsclient.Client {
	return dmsclient.New(url, dmsclient.WithHTTPClient(&http.Client{Transport: r.load}), dmsclient.WithRetries(0))
}

// fleet is the in-process worker pool of a distributing coordinator.
type fleet struct {
	cancel context.CancelFunc
	wg     sync.WaitGroup
	first  chan struct{} // closed when any worker's first lease returns
	once   sync.Once
}

func (r *run) startFleet(url string) *fleet {
	f := &fleet{first: make(chan struct{})}
	base := http.DefaultTransport.(*http.Transport).Clone()
	wt := &transport{t: r.tr, prefix: "worker.", base: base, onLease: func() {
		f.once.Do(func() { close(f.first) })
	}}
	ctx, cancel := context.WithCancel(context.Background())
	f.cancel = cancel
	for i := 0; i < 2; i++ {
		cli := dmsclient.New(url, dmsclient.WithHTTPClient(&http.Client{Transport: wt}))
		opt := worker.Options{Client: cli, Coordinator: url, ID: fmt.Sprintf("w%d", i), Parallelism: 1}
		f.wg.Add(1)
		go func() {
			defer f.wg.Done()
			worker.Run(ctx, opt)
		}()
	}
	return f
}

func (f *fleet) stop() {
	f.cancel()
	f.wg.Wait()
}

// shutdown stops the fleet, the listener and the server, in that
// order, so no request is left in flight.
func (r *run) shutdown() {
	if r.fleet != nil {
		r.fleet.stop()
		r.fleet = nil
	}
	if r.ts != nil {
		r.ts.Close()
		r.ts = nil
	}
	if r.svc != nil {
		r.svc.Close()
		r.svc = nil
	}
	r.load.base.(*http.Transport).CloseIdleConnections()
}

// setup brings the service up several times and keeps the last; each
// time is measured from server.Open until the fleet has taken its first
// lease: for a standalone server, until a one-loop probe request has
// been answered; for the durable coordinator, which first recovers an
// interrupted batch from its WAL, until a worker's first lease returns.
func (r *run) setup(ctx context.Context) error {
	if r.w.distribute {
		if err := r.buildTemplate(ctx); err != nil {
			return fmt.Errorf("durable template: %w", err)
		}
	}
	for i := 0; i < r.cfg.setups(r.w); i++ {
		if i > 0 {
			r.shutdown()
		}
		// Every set-up starts from a collected heap, so a collection the
		// previous one left due does not land inside the next.
		runtime.GC()
		d, err := r.openOnce(ctx, i)
		if err != nil {
			return err
		}
		r.setupS = append(r.setupS, d.Seconds())
	}
	return nil
}

func (r *run) openOnce(ctx context.Context, i int) (time.Duration, error) {
	var dir string
	if r.w.distribute {
		dir = filepath.Join(r.dataDir, fmt.Sprintf("setup%d", i))
		if err := copyDir(filepath.Join(r.dataDir, "template"), dir); err != nil {
			return 0, err
		}
	}
	start := time.Now()
	svc, err := server.Open(r.options(dir))
	if err != nil {
		return 0, err
	}
	r.svc = svc
	r.ts = httptest.NewServer(r.handler(svc))
	r.cli = r.client(r.ts.URL)
	if !r.w.distribute {
		recs, _, err := r.batch(ctx, r.probe)
		d := time.Since(start)
		if err != nil {
			return 0, fmt.Errorf("set-up probe: %w", err)
		}
		r.chk.record(makeID(idProbe, 0), recs[0], false)
		return d, nil
	}
	r.fleet = r.startFleet(r.ts.URL)
	select {
	case <-r.fleet.first:
	case <-time.After(30 * time.Second):
		return 0, errors.New("set-up: no worker took a lease within 30s")
	}
	d := time.Since(start)
	// The resumed batch must finish with correct records.
	recs, _, err := r.cli.ResultsAll(ctx, r.recoverID, r.w.batch)
	if err != nil {
		return 0, fmt.Errorf("set-up: resumed batch: %w", err)
	}
	r.check(idRange(idProbe, 0, r.w.batch), recs, nil, false)
	return d, nil
}

// buildTemplate leaves a durable state directory holding one
// interrupted batch: admitted, its units in the WAL, none compiled.
// Every set-up opens a copy of it, so each recovers the same state.
func (r *run) buildTemplate(ctx context.Context) error {
	dir := filepath.Join(r.dataDir, "template")
	svc, err := server.Open(r.options(dir))
	if err != nil {
		return err
	}
	ts := httptest.NewServer(svc.Handler())
	defer svc.Close()
	defer ts.Close()
	job, err := r.client(ts.URL).Submit(ctx, r.w.request(r.probe[:r.w.batch]))
	if err != nil {
		return err
	}
	r.recoverID = job.ID
	deadline := time.Now().Add(10 * time.Second)
	for svc.Snapshot().Dispatch.PendingUnits < r.w.batch {
		if time.Now().After(deadline) {
			return errors.New("units never reached the queue")
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}

func copyDir(src, dst string) error {
	return filepath.WalkDir(src, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, data, 0o644)
	})
}

// batch sends one request over the workload's surface and returns its
// records in job order, with the job ID on the async surface.
func (r *run) batch(ctx context.Context, texts []string) ([]api.JobResult, string, error) {
	req := r.w.request(texts)
	if !r.w.async {
		recs, _, err := r.cli.CompileAll(ctx, req)
		return recs, "", err
	}
	job, err := r.cli.Submit(ctx, req)
	if err != nil {
		return nil, "", err
	}
	recs, _, err := r.cli.ResultsAll(ctx, job.ID, len(texts))
	return recs, job.ID, err
}

// check passes a batch's records (or its failure) to the checker.
func (r *run) check(ids []jobID, recs []api.JobResult, err error, fresh bool) {
	if err != nil {
		r.chk.refuse(len(ids), "request failed: "+err.Error())
		return
	}
	for i, rec := range recs {
		r.chk.record(ids[i], rec, fresh)
	}
}

// runCanary sends the workload's fixed canary list. Its records are
// compared with the hashes recorded when the benchmark was defined and
// give the deterministic quality metrics.
func (r *run) runCanary(ctx context.Context) error {
	texts := r.canaryTexts()
	for lo := 0; lo < len(texts); lo += r.w.batch {
		hi := min(lo+r.w.batch, len(texts))
		recs, _, err := r.batch(ctx, texts[lo:hi])
		r.check(idRange(idCanary, lo, hi), recs, err, true)
		if err != nil {
			return fmt.Errorf("canary: %w", err)
		}
		r.canary = append(r.canary, recs...)
	}
	got := canaryHashes(r.canary)
	if r.cfg.recordDigests != "" {
		return recordDigest(r.cfg.recordDigests, r.w.name, got)
	}
	want, err := expectedDigests()
	if err != nil {
		return err
	}
	for _, i := range compareCanary(got, want[r.w.name]) {
		r.chk.failJob(makeID(idCanary, i), "canary record differs from the recorded digest")
	}
	return nil
}

// quality returns the canary list's mean II/MII and mean cycles of the
// generated code at each loop's trip count.
func (r *run) quality() (iiOverMII, cycles float64) {
	var a, b []float64
	for _, rec := range r.canary {
		if rec.Error != "" || rec.Metrics == nil || rec.MII == 0 {
			continue
		}
		a = append(a, float64(rec.II)/float64(rec.MII))
		b = append(b, float64(rec.Metrics.Cycles))
	}
	return mean(a), mean(b)
}

// sample is one measured request.
type sample struct {
	done  time.Time
	latMS float64
	jobs  int
	job   string // the async job's ID
	ids   []jobID
	// cached marks the jobs the service answered from its cache, so the
	// layer replay can follow the path each job took.
	cached []bool
	// timed marks an async job whose status was read in a traced slice:
	// its queue wait and service time from the job's own timestamps.
	timed             bool
	waitMS, serviceMS float64
}

// closedLoop runs the workload's clients until the deadline, each
// sending its next batch as soon as the previous one completed.
func (r *run) closedLoop(ctx context.Context, until time.Time, next func(client int) ([]jobID, []string, error)) []sample {
	var (
		mu  sync.Mutex
		out []sample
		wg  sync.WaitGroup
	)
	for c := 0; c < r.w.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(until) {
				ids, texts, err := next(c)
				if err != nil {
					r.chk.refuse(r.w.batch, "drawing loops: "+err.Error())
					return
				}
				start := time.Now()
				recs, id, err := r.batch(ctx, texts)
				done := time.Now()
				r.check(ids, recs, err, r.w.hot == 0)
				if err != nil {
					continue
				}
				s := sample{done: done, latMS: ms(done.Sub(start)), jobs: len(ids), job: id, ids: ids, cached: make([]bool, len(recs))}
				for i, rec := range recs {
					s.cached[i] = rec.Cached
				}
				// The service keeps finished jobs for a bounded while, so a
				// traced slice reads each job's timestamps as it completes.
				if r.w.async && r.tr.on.Load() {
					j, err := r.cli.Job(ctx, id)
					if err != nil {
						r.invalidate("reading job %s: %v", id, err)
					} else {
						s.timed = true
						s.waitMS = float64(j.StartedUnixMS - j.CreatedUnixMS)
						s.serviceMS = float64(j.FinishedUnixMS - j.StartedUnixMS)
					}
				}
				mu.Lock()
				out = append(out, s)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return out
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// seeded returns a generator for one named purpose of the run.
func (r *run) seeded(purpose string, i int) *rand.Rand {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s/%d", r.cfg.seed, purpose, i)
	return rand.New(rand.NewSource(int64(h.Sum64())))
}

// nextBatch returns the closed-loop batch source: never-seen loops from
// the pool, or random draws (without replacement within a batch) from
// the hot set.
func (r *run) nextBatch() func(client int) ([]jobID, []string, error) {
	if r.w.hot == 0 {
		return func(int) ([]jobID, []string, error) { return r.fresh.take(r.w.batch) }
	}
	rngs := make([]*rand.Rand, r.w.clients)
	for c := range rngs {
		rngs[c] = r.seeded("hot", c)
	}
	return func(c int) ([]jobID, []string, error) {
		ids := make([]jobID, r.w.batch)
		texts := make([]string, r.w.batch)
		for i, k := range rngs[c].Perm(len(r.hot))[:r.w.batch] {
			ids[i], texts[i] = makeID(idHot, k), r.hot[k]
		}
		return ids, texts, nil
	}
}
