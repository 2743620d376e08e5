package main

import (
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"sort"
	"sync"

	api "repro/api/v1"
	"repro/internal/driver"
	"repro/internal/loop"
	"repro/internal/machine"
	"repro/internal/server"
)

// expectedJSON holds, per workload, the hash of every canary record
// (normalized, in job order) as recorded when the benchmark was
// defined. Regenerate with -record-digests after an intended change to
// scheduler output.
//
//go:embed digests.json
var expectedJSON []byte

func expectedDigests() (map[string][]string, error) {
	var d map[string][]string
	if err := json.Unmarshal(expectedJSON, &d); err != nil {
		return nil, fmt.Errorf("digests.json: %w", err)
	}
	return d, nil
}

// normalize renders a record the way the reference path would: Index
// and Cached depend on where and when the job ran, not on its result.
func normalize(rec api.JobResult) []byte {
	rec.Index = 0
	rec.Cached = false
	b, err := json.Marshal(rec)
	if err != nil {
		panic(fmt.Sprintf("marshal record: %v", err)) // a JobResult always marshals
	}
	return b
}

type digest [sha256.Size]byte

// entry is what the checker keeps per distinct job.
type entry struct {
	sum    digest
	recs   int // records received for the job
	failed int // of those, already counted as failed
}

// checker validates every record the service returns. Each record
// must be an error-free schedule with II >= MII (and, for exact, a
// proof that II is optimal); repeats of one job must be identical; and
// after the run each distinct job is recompiled through
// driver.CompileAll and server.Record, whose normalized bytes the
// service's record must equal.
type checker struct {
	w *workload

	mu        sync.Mutex
	jobs      map[jobID]*entry
	attempted int
	failed    int
	repeats   int // never-seen loops that were sent twice
	why       map[string]int
}

func newChecker(w *workload) *checker {
	return &checker{w: w, jobs: make(map[jobID]*entry), why: make(map[string]int)}
}

// fail counts n failed jobs for a reason (caller holds mu).
func (c *checker) failLocked(n int, why string) {
	c.failed += n
	c.why[why] += n
}

// failJobLocked counts every record of job e not yet counted as
// failed (caller holds mu), so a record fails at most once whichever
// checks it breaks.
func (c *checker) failJobLocked(e *entry, why string) {
	if n := e.recs - e.failed; n > 0 {
		e.failed += n
		c.failLocked(n, why)
	}
}

// failJob counts the records of an already-checked job as failed.
func (c *checker) failJob(id jobID, why string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e := c.jobs[id]; e != nil {
		c.failJobLocked(e, why)
	}
}

// refuse counts a whole batch that produced no records: a transport
// error, a 429 or a truncated stream.
func (c *checker) refuse(n int, why string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.attempted += n
	c.failLocked(n, why)
}

// record checks one record of the job compiling loop id. fresh marks
// a loop the run promised never to repeat.
func (c *checker) record(id jobID, rec api.JobResult, fresh bool) {
	problem := c.problem(rec)
	sum := digest(sha256.Sum256(normalize(rec)))
	c.mu.Lock()
	defer c.mu.Unlock()
	c.attempted++
	e := c.jobs[id]
	if e == nil {
		e = &entry{sum: sum}
		c.jobs[id] = e
	} else if fresh {
		c.repeats++
	}
	e.recs++
	switch {
	case problem != "":
		e.failed++
		c.failLocked(1, problem)
	case e.sum != sum:
		e.failed++
		c.failLocked(1, "record differs from an earlier one for the same job")
	}
}

// problem returns why a record is unacceptable on its own, or "".
func (c *checker) problem(rec api.JobResult) string {
	switch {
	case rec.Error != "":
		return "error record: " + string(rec.ErrorCode)
	case rec.Stats == nil || rec.Metrics == nil || rec.Schedule == "":
		return "record without a schedule"
	case rec.II < rec.MII || rec.MII < 1:
		return "II below MII"
	case c.w.scheduler == "exact" && (!rec.Stats.ProvedOptimal || rec.Stats.OptimalII != rec.II):
		return "exact record without an optimality proof"
	}
	return ""
}

// machine resolves the workload's machine spec like the service does.
func (w *workload) machineFor() *machine.Machine {
	if w.machine.Unclustered {
		return machine.Unclustered(w.machine.Clusters)
	}
	return machine.Clustered(w.machine.Clusters)
}

// reference compiles loop texts through the direct driver path and
// returns each normalized record's digest.
func (w *workload) reference(ctx context.Context, texts []string) ([]digest, error) {
	m := w.machineFor()
	jobList := make([]driver.Job, len(texts))
	err := driver.ForEachFirstErr(len(texts), 0, func(i int) error {
		l, err := loop.ParseString(texts[i])
		if err != nil {
			return fmt.Errorf("reference parse: %w", err)
		}
		jobList[i] = driver.Job{Loop: l, Machine: m, Scheduler: w.scheduler}
		return nil
	})
	if err != nil {
		return nil, err
	}
	res := driver.CompileAll(ctx, jobList, driver.BatchOptions{})
	out := make([]digest, len(res))
	driver.ForEach(len(res), 0, func(i int) {
		out[i] = sha256.Sum256(normalize(server.Record(res[i])))
	})
	return out, nil
}

// verify recompiles every distinct job, reading loop texts through
// textsOf a chunk at a time, and fails each record whose bytes differ
// from the reference.
func (c *checker) verify(ctx context.Context, textsOf func([]jobID) ([]string, error)) error {
	c.mu.Lock()
	ids := make([]jobID, 0, len(c.jobs))
	for id := range c.jobs {
		ids = append(ids, id)
	}
	c.mu.Unlock()
	slices.Sort(ids)
	const chunk = 1024
	for lo := 0; lo < len(ids); lo += chunk {
		part := ids[lo:min(lo+chunk, len(ids))]
		texts, err := textsOf(part)
		if err != nil {
			return err
		}
		want, err := c.w.reference(ctx, texts)
		if err != nil {
			return err
		}
		c.mu.Lock()
		for i, id := range part {
			if e := c.jobs[id]; e.sum != want[i] {
				c.failJobLocked(e, "record differs from driver.CompileAll")
			}
		}
		c.mu.Unlock()
	}
	return nil
}

// counts returns attempted and failed jobs so far.
func (c *checker) counts() (attempted, failed int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.attempted, c.failed
}

// reasons lists failure reasons with their counts.
func (c *checker) reasons() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []string
	for why, n := range c.why {
		out = append(out, fmt.Sprintf("%d × %s", n, why))
	}
	sort.Strings(out)
	return out
}

// canaryHashes renders records (in job order) as the short hex hashes
// digests.json stores.
func canaryHashes(recs []api.JobResult) []string {
	out := make([]string, len(recs))
	for i, r := range recs {
		s := sha256.Sum256(normalize(r))
		out[i] = hex.EncodeToString(s[:8])
	}
	return out
}

// compareCanary returns the positions whose records differ from the
// recorded hashes; a list shorter than recorded compares its prefix.
func compareCanary(got, want []string) []int {
	var bad []int
	for i := range got {
		if i >= len(want) || got[i] != want[i] {
			bad = append(bad, i)
		}
	}
	return bad
}

// recordDigest stores one workload's canary hashes in the digest file,
// keeping the other workloads' entries.
func recordDigest(path, name string, hashes []string) error {
	d := make(map[string][]string)
	if b, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(b, &d); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	}
	d[name] = hashes
	b, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
