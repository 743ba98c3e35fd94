package main

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"xmlac"
)

// The traced run's instrumentation. Every span is recorded from the
// benchmark's own files, around calls into a layer's public surface: the
// view call (public API), each HTTP request of the remote client (a
// RoundTripper passed through RemoteOptions.HTTPClient), and each server
// handler invocation (middleware around server.Handler()). Phase self-times
// inside the SOE come from ViewOptions.Trace; server-side counters from
// /metrics.prom scrapes. Timed runs install none of it.

// span is one recorded interval. Spans of one view or request share Trace.
type span struct {
	Trace   string         `json:"trace"`
	ID      uint64         `json:"id"`
	Parent  uint64         `json:"parent,omitempty"`
	Name    string         `json:"name"`
	StartNs int64          `json:"start_ns"`
	DurNs   int64          `json:"dur_ns"`
	Attrs   map[string]any `json:"attrs,omitempty"`
}

// recorder keeps spans in memory until the run ends.
type recorder struct {
	epoch time.Time
	ids   atomic.Uint64
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) newID() uint64 { return r.ids.Add(1) }

// add records a span that started at start and ends now.
func (r *recorder) add(trace string, id, parent uint64, name string, start time.Time, attrs map[string]any) time.Duration {
	d := time.Since(start)
	r.mu.Lock()
	r.spans = append(r.spans, span{
		Trace: trace, ID: id, Parent: parent, Name: name,
		StartNs: start.Sub(r.epoch).Nanoseconds(), DurNs: d.Nanoseconds(), Attrs: attrs,
	})
	r.mu.Unlock()
	return d
}

// write stores the benchmark's spans, then the program's own spans as
// program writes them, one JSON object per line.
func (r *recorder) write(path string, program func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	r.mu.Lock()
	for _, s := range r.spans {
		if err = enc.Encode(s); err != nil {
			break
		}
	}
	r.mu.Unlock()
	if err == nil {
		err = program(bw)
	}
	if err == nil {
		err = bw.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// programTrace writes every span of the program's trace ring.
func programTrace(tr *xmlac.Trace) func(io.Writer) error {
	return func(w io.Writer) error { return tr.WriteJSONL(w, 0) }
}

// serverTrace copies the spans of the server's own trace ring
// (GET /debug/trace), read in process.
func serverTrace(h http.Handler) func(io.Writer) error {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/trace", nil))
	return func(w io.Writer) error {
		_, err := w.Write(rec.Body.Bytes())
		return err
	}
}

// spanRef names the span an HTTP request is made on behalf of.
type spanRef struct {
	trace string
	id    uint64
}

type spanRefKey struct{}

func withSpanRef(ctx context.Context, ref *spanRef) context.Context {
	return context.WithValue(ctx, spanRefKey{}, ref)
}

// parentHeader carries the client span ID of a request to the server-side
// middleware, so server spans link to the request that caused them.
const parentHeader = "X-Perfbench-Parent"

// requestKind classifies a request by route.
func requestKind(method, path string) string {
	if method == http.MethodPatch {
		return "patch"
	}
	for _, k := range []string{"manifest", "blob", "hashes", "delta", "view"} {
		if strings.HasSuffix(path, "/"+k) {
			return k
		}
	}
	return "other"
}

// kindSamples collects per-kind durations in milliseconds.
type kindSamples struct {
	mu sync.Mutex
	ms map[string][]float64
}

func (k *kindSamples) add(kind string, d time.Duration) {
	k.mu.Lock()
	if k.ms == nil {
		k.ms = map[string][]float64{}
	}
	k.ms[kind] = append(k.ms[kind], ms(d))
	k.mu.Unlock()
}

// take returns and clears the samples.
func (k *kindSamples) take() map[string][]float64 {
	k.mu.Lock()
	defer k.mu.Unlock()
	out := k.ms
	k.ms = nil
	return out
}

// tracingTransport records one span per HTTP request, from the call to the
// end of the response body.
type tracingTransport struct {
	base http.RoundTripper
	rec  *recorder
	// cur is the view the single remote_soe client is serving, for requests
	// whose context carries no spanRef (those OpenRemote issues).
	cur     atomic.Pointer[spanRef]
	samples kindSamples
}

func (t *tracingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	ref, _ := req.Context().Value(spanRefKey{}).(*spanRef)
	if ref == nil {
		ref = t.cur.Load()
	}
	if ref == nil {
		return t.base.RoundTrip(req)
	}
	id := t.rec.newID()
	req = req.Clone(req.Context())
	req.Header.Set(parentHeader, strconv.FormatUint(id, 10))
	if req.Header.Get("X-Request-Id") == "" {
		req.Header.Set("X-Request-Id", ref.trace)
	}
	kind := requestKind(req.Method, req.URL.Path)
	start := time.Now()
	finish := func(status int) {
		d := t.rec.add(ref.trace, id, ref.id, "http."+kind, start, map[string]any{"status": status})
		t.samples.add(kind, d)
	}
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		finish(0)
		return nil, err
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, done: func() { finish(resp.StatusCode) }}
	return resp, nil
}

// spanBody ends its request span at EOF, on a read error or at Close,
// whichever comes first.
type spanBody struct {
	io.ReadCloser
	once sync.Once
	done func()
}

func (b *spanBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	if err != nil {
		b.once.Do(b.done)
	}
	return n, err
}

func (b *spanBody) Close() error {
	b.once.Do(b.done)
	return b.ReadCloser.Close()
}

// tracingHandler records one span per server handler invocation while on.
type tracingHandler struct {
	next    http.Handler
	rec     *recorder
	on      atomic.Bool
	samples kindSamples
}

func (h *tracingHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !h.on.Load() {
		h.next.ServeHTTP(w, r)
		return
	}
	parent, _ := strconv.ParseUint(r.Header.Get(parentHeader), 10, 64)
	kind := requestKind(r.Method, r.URL.Path)
	start := time.Now()
	h.next.ServeHTTP(w, r)
	d := h.rec.add(r.Header.Get("X-Request-Id"), h.rec.newID(), parent, "server."+kind, start, nil)
	h.samples.add(kind, d)
}

// promSample is one scrape of /metrics.prom: every series by its full name
// (labels included).
type promSample map[string]float64

// scrapeProm reads /metrics.prom straight from the handler, in process, so a
// scrape opens no connection.
func scrapeProm(h http.Handler) promSample {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics.prom", nil))
	out := promSample{}
	for _, line := range strings.Split(rec.Body.String(), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out
}

// sum adds every series of the metric name whose labels contain every
// given label fragment (such as `phase="decrypt"`).
func (p promSample) sum(name string, labels ...string) float64 {
	total := 0.0
series:
	for k, v := range p {
		base, lbl, _ := strings.Cut(k, "{")
		if base != name {
			continue
		}
		for _, l := range labels {
			if !strings.Contains(lbl, l) {
				continue series
			}
		}
		total += v
	}
	return total
}

// promDelta returns after.sum - before.sum for one metric.
func promDelta(before, after promSample, name string, labels ...string) float64 {
	return after.sum(name, labels...) - before.sum(name, labels...)
}

// metricsTotals reads the lifetime evaluation totals from GET /metrics.
func metricsTotals(h http.Handler) xmlac.Metrics {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	var body struct {
		Totals xmlac.Metrics `json:"totals"`
	}
	_ = json.Unmarshal(rec.Body.Bytes(), &body) // a failed decode leaves zeros, reported as such
	return body.Totals
}
