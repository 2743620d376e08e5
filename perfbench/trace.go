package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	api "repro/api/v1"
)

// Headers the benchmark's client wrapper sets so the handler wrapper
// can link its server span to the client call that caused it.
const (
	spanHeader = "Bench-Span"
	reqHeader  = "Bench-Req"
)

// span is one timed interval at a layer boundary. Times are
// nanoseconds since the tracer's epoch; Parent 0 marks a root.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory while on; it also counts requests per
// route at all times once counting is enabled, so ratios taken against
// /v1/metrics deltas share the window those deltas cover.
type tracer struct {
	epoch  time.Time
	on     atomic.Bool
	count  atomic.Bool
	nextID atomic.Int64

	mu     sync.Mutex
	spans  []span
	routes map[string]int64
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), routes: make(map[string]int64)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// begin opens a span when tracing is on; the returned closer records
// it. With tracing off both are no-ops and the id is 0.
func (t *tracer) begin(name string, parent, req int64) (id int64, end func()) {
	if !t.on.Load() {
		return 0, func() {}
	}
	id = t.nextID.Add(1)
	if req == 0 {
		req = id
	}
	start := t.now()
	return id, func() {
		s := span{ID: id, Parent: parent, Req: req, Name: name, Start: start, End: t.now()}
		t.mu.Lock()
		t.spans = append(t.spans, s)
		t.mu.Unlock()
	}
}

func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

func (t *tracer) routeCounts() map[string]int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[string]int64, len(t.routes))
	for k, v := range t.routes {
		out[k] = v
	}
	return out
}

// routeOf collapses a request path to its route pattern.
func routeOf(method, path string) string {
	switch {
	case path == api.PathWorkersLease:
		return "lease"
	case strings.HasPrefix(path, api.PathWorkers+"/"):
		return "post"
	case path == api.PathCompile:
		return "compile"
	case path == api.PathJobs && method == http.MethodPost:
		return "submit"
	case strings.HasPrefix(path, api.PathJobs+"/") && strings.HasSuffix(path, "/results"):
		return "results"
	case strings.HasPrefix(path, api.PathJobs+"/"):
		return "job"
	case path == api.PathMetrics:
		return "metrics"
	}
	return "other"
}

// handler wraps the service's HTTP handler with a server span per
// request, parented to the client span named in the request headers.
func (t *tracer) handler(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		route := routeOf(r.Method, r.URL.Path)
		if t.count.Load() {
			t.mu.Lock()
			t.routes[route]++
			t.mu.Unlock()
		}
		parent, _ := strconv.ParseInt(r.Header.Get(spanHeader), 10, 64)
		req, _ := strconv.ParseInt(r.Header.Get(reqHeader), 10, 64)
		_, end := t.begin("http.server."+route, parent, req)
		defer end()
		h.ServeHTTP(w, r)
	})
}

// transport wraps the client side: a client span per round trip that
// ends when the response body is closed (streams included), the ids
// forwarded in headers, and a count of 429 refusals. onLease, when
// set, is called after every successful lease round trip.
type transport struct {
	t       *tracer
	prefix  string
	base    http.RoundTripper
	refused atomic.Int64
	onLease func()
}

func (tp *transport) RoundTrip(r *http.Request) (*http.Response, error) {
	route := routeOf(r.Method, r.URL.Path)
	id, end := tp.t.begin(tp.prefix+route, 0, 0)
	if id != 0 {
		r = r.Clone(r.Context())
		r.Header.Set(spanHeader, strconv.FormatInt(id, 10))
		r.Header.Set(reqHeader, strconv.FormatInt(id, 10))
	}
	resp, err := tp.base.RoundTrip(r)
	if err != nil {
		end()
		return nil, err
	}
	if resp.StatusCode == http.StatusTooManyRequests {
		tp.refused.Add(1)
	}
	if route == "lease" && resp.StatusCode == http.StatusOK && tp.onLease != nil {
		tp.onLease()
	}
	resp.Body = &endOnClose{ReadCloser: resp.Body, end: end}
	return resp, nil
}

type endOnClose struct {
	io.ReadCloser
	once sync.Once
	end  func()
}

func (b *endOnClose) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(b.end)
	return err
}

// selfTimes returns each span's duration minus the part of its
// interval that its children cover (overlapping children count once).
func selfTimes(spans []span) map[int64]time.Duration {
	children := make(map[int64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[int64]time.Duration, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		var covered int64
		cur := s.Start // end of the covered prefix so far
		for _, k := range kids {
			lo, hi := max(k.Start, cur), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				cur = hi
			}
		}
		out[s.ID] = s.dur() - time.Duration(covered)
	}
	return out
}

// layerRow is one line of the self-time table.
type layerRow struct {
	name        string
	n           int
	total, self time.Duration
}

// selfTable totals duration and self time per span name.
func selfTable(spans []span) []layerRow {
	self := selfTimes(spans)
	rows := make(map[string]*layerRow)
	for _, s := range spans {
		r := rows[s.Name]
		if r == nil {
			r = &layerRow{name: s.Name}
			rows[s.Name] = r
		}
		r.n++
		r.total += s.dur()
		r.self += self[s.ID]
	}
	out := make([]layerRow, 0, len(rows))
	for _, r := range rows {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].self > out[j].self })
	return out
}

// writeSpans writes the spans as JSON lines to path.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// printSelfTable writes the per-layer self-time table.
func printSelfTable(w io.Writer, spans []span) {
	fmt.Fprintf(w, "%-28s %8s %12s %12s\n", "span", "count", "total_ms", "self_ms")
	for _, r := range selfTable(spans) {
		fmt.Fprintf(w, "%-28s %8d %12.3f %12.3f\n", r.name, r.n,
			float64(r.total)/1e6, float64(r.self)/1e6)
	}
}
