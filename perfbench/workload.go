package main

import (
	"bufio"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"os"
	"sync"

	api "repro/api/v1"
	"repro/internal/loop"
	"repro/internal/perfect"
)

// workload is one traffic mix over the compile service. The service
// only ever sees the generated loop texts.
type workload struct {
	name      string
	machine   api.MachineSpec
	scheduler string
	batch     int  // loops per request
	clients   int  // closed-loop clients
	async     bool // POST /v1/jobs + results stream instead of POST /v1/compile
	// hot > 0 draws every batch from a hot set of that many loops;
	// 0 sends never-seen loops only.
	hot int
	// distribute runs a durable, fsyncing coordinator with two
	// in-process single-slot workers instead of a standalone server.
	distribute bool
	// sameLoops draws the never-seen loops from one list for every
	// seed instead of from the seed's own stream.
	sameLoops bool
	canary    int // loops in the fixed quality/digest list
}

var workloads = []*workload{
	// The service-tax measurement. Every job is a cache miss, so parse,
	// key, cache insert, Prepare, the DMS search, render and encode all
	// carry real weight, and two closed-loop clients over two executors
	// never build a queue.
	{name: "sync-fresh", machine: api.MachineSpec{Clusters: 4}, scheduler: "dms",
		batch: 32, clients: 2, canary: 256},
	// A build re-sending unchanged loops: batches come from a 64-loop
	// hot set, so after warm-up at least 95% of jobs hit the cache and
	// the scheduler drops out, leaving decode, parse, key, the cache
	// read path and encode. It uses the cache the opposite way to
	// sync-fresh (reads, not inserts), so a gain on one that costs the
	// other shows.
	{name: "sync-hot", machine: api.MachineSpec{Clusters: 4}, scheduler: "dms",
		batch: 32, clients: 2, hot: 64, canary: 256},
	// Exact scheduling: the SAT search is over 90% of the time (solve
	// times run from a few ms median to hundreds of ms, against well
	// under a ms of service tax per loop), so incremental SAT moves
	// this workload and the service-tax fixes do not. A batch waits for
	// its slowest solve, so the few heavy-tailed loops a seed happens to
	// draw set the pace: throughput repeated to 2% for one seed but
	// differed by 17% between two. Every seed therefore sends the same
	// loop list, and a run's figures move only with the code.
	{name: "exact-async", machine: api.MachineSpec{Clusters: 1, Unclustered: true}, scheduler: "exact",
		batch: 8, clients: 1, async: true, sameLoops: true, canary: 32},
	// The admission queue, dispatcher, lease/ack protocol, WAL fsync and
	// worker chunking under load: a durable, fsyncing coordinator, two
	// single-slot workers and two closed-loop clients. An open loop
	// (independent users arriving on a Poisson schedule) was tried and
	// dropped: with the CPUs half idle its latency followed the host's
	// CPU steal (median latency 56 to 159 ms over ten seeds on a shared
	// 2-vCPU VM), while with the fleet busy the figures hold still.
	{name: "drain-closed", machine: api.MachineSpec{Clusters: 4}, scheduler: "dms",
		batch: 64, clients: 2, async: true, distribute: true, canary: 256},
}

func findWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// request builds the workload's compile request over loop texts.
func (w *workload) request(texts []string) api.CompileRequest {
	return api.CompileRequest{
		Protocol:   api.Version,
		Loops:      texts,
		Machines:   []api.MachineSpec{w.machine},
		Schedulers: []string{w.scheduler},
	}
}

// Streams of generated loops. The canary and probe streams are fixed
// (seed-independent); the others derive from the run's seed.
const (
	streamFresh  = "f"
	streamHot    = "hot"
	streamCanary = "canary"
	streamProbe  = "probe"
	fixedSeed    = perfect.DefaultSeed
	chunkLoops   = 256
)

// loopChunk draws chunk c of a seeded stream of perfect.Generate
// loops. Each chunk has its own generator, so chunks can be drawn in
// parallel and the stream's prefix does not depend on how much of it a
// run consumes. Loop names carry the stream and position, so no two
// loops of a run share a text.
func loopChunk(seed int64, stream string, c int) []string {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s/%d", seed, stream, c)
	rng := rand.New(rand.NewSource(int64(h.Sum64())))
	out := make([]string, chunkLoops)
	for i := range out {
		out[i] = loop.Format(perfect.Generate(rng, fmt.Sprintf("%s%d", stream, c*chunkLoops+i)))
	}
	return out
}

// loops returns the first n loops of a stream.
func loops(seed int64, stream string, n int) []string {
	var out []string
	for c := 0; len(out) < n; c++ {
		out = append(out, loopChunk(seed, stream, c)...)
	}
	return out[:n]
}

// jobID names one loop of a run: its stream in the top byte and its
// position in the stream below. The checker and the samples keep ids,
// not texts, so the benchmark's own memory does not grow with the
// number of jobs a run completes.
type jobID int64

const (
	idProbe jobID = iota + 1
	idCanary
	idHot
	idFresh
)

func makeID(stream jobID, i int) jobID { return stream<<40 | jobID(i) }
func (id jobID) stream() jobID         { return id >> 40 }
func (id jobID) index() int            { return int(id & (1<<40 - 1)) }

func idRange(stream jobID, lo, hi int) []jobID {
	ids := make([]jobID, hi-lo)
	for i := range ids {
		ids[i] = makeID(stream, lo+i)
	}
	return ids
}

// pool hands out a seeded stream of never-seen loops in order. The
// texts are drawn before they are needed and kept in a file, not on
// the heap, so peak RSS measures the service, not the pool.
type pool struct {
	seed int64

	mu   sync.Mutex
	f    *os.File
	offs []int64 // offs[i] is where loop i starts; one entry past the last loop
	next int
}

func newPool(seed int64, path string) (*pool, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	return &pool{seed: seed, f: f, offs: []int64{0}}, nil
}

func (p *pool) close() {
	p.f.Close()
	os.Remove(p.f.Name())
}

// growLocked extends the pool to at least n loops, drawing chunks on
// two goroutines a few at a time and writing each group out before
// drawing the next, so drawing never holds many texts on the heap.
func (p *pool) growLocked(n int) error {
	const group = 8
	for have := (len(p.offs) - 1) / chunkLoops; have*chunkLoops < n; have += group {
		chunks := make([][]string, group)
		var wg sync.WaitGroup
		for g := 0; g < 2; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := g; i < group; i += 2 {
					chunks[i] = loopChunk(p.seed, streamFresh, have+i)
				}
			}(g)
		}
		wg.Wait()
		w := bufio.NewWriter(io.NewOffsetWriter(p.f, p.offs[len(p.offs)-1]))
		for _, c := range chunks {
			for _, text := range c {
				if _, err := w.WriteString(text); err != nil {
					return err
				}
				p.offs = append(p.offs, p.offs[len(p.offs)-1]+int64(len(text)))
			}
		}
		if err := w.Flush(); err != nil {
			return err
		}
	}
	return nil
}

// readLocked returns loops [lo, hi).
func (p *pool) readLocked(lo, hi int) ([]string, error) {
	buf := make([]byte, p.offs[hi]-p.offs[lo])
	if _, err := p.f.ReadAt(buf, p.offs[lo]); err != nil {
		return nil, err
	}
	all := string(buf)
	out := make([]string, hi-lo)
	for i := range out {
		out[i] = all[p.offs[lo+i]-p.offs[lo] : p.offs[lo+i+1]-p.offs[lo]]
	}
	return out, nil
}

// take returns the ids and texts of the next n loops, drawing more if
// the pool is short.
func (p *pool) take(n int) ([]jobID, []string, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if err := p.growLocked(p.next + n); err != nil {
		return nil, nil, err
	}
	texts, err := p.readLocked(p.next, p.next+n)
	if err != nil {
		return nil, nil, err
	}
	ids := idRange(idFresh, p.next, p.next+n)
	p.next += n
	return ids, texts, nil
}

// reserve makes sure the next n loops are already drawn.
func (p *pool) reserve(n int) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.growLocked(p.next + n)
}

// text returns loop i, which must already have been handed out.
func (p *pool) text(i int) (string, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	t, err := p.readLocked(i, i+1)
	if err != nil {
		return "", err
	}
	return t[0], nil
}
