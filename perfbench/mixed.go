package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"xmlac"
	"xmlac/internal/dataset"
	"xmlac/internal/server"
	"xmlac/internal/xmlstream"
)

const (
	mixedDocs    = 3
	mixedFolders = 200
	// mixedRate is the fixed arrival rate in requests per second, sized
	// once to a quarter of the 40 requests/s this mix reaches at saturation
	// over two connections on a 2-core machine. At half, the median view met
	// a busy CPU about half the time, and its latency swung between the busy
	// and the idle case from run to run.
	mixedRate  = 10.0
	patchShare = 0.2
	clerks     = 8
	// mixedClients is the number of client goroutines, each with one
	// connection.
	mixedClients = 2
	// lateLimit is the 99th-percentile generator lateness beyond which the
	// run is invalid: the generator, not the server, set the latencies.
	lateLimit = 50 * time.Millisecond
)

// Subject classes of server_mixed: every clerk has the same rules, so all
// clerks share one reference view.
const (
	classSecretary = iota
	classDoctor
	classResearcher
	classClerk
	numClasses
)

type mixedSubject struct {
	name   string
	class  int
	policy xmlac.Policy
}

func mixedSubjects() []mixedSubject {
	subs := []mixedSubject{
		{"secretary", classSecretary, xmlac.SecretaryPolicy()},
		{"DrA", classDoctor, xmlac.DoctorPolicy("DrA")},
		{"researcher", classResearcher, xmlac.ResearcherPolicy("G3")},
	}
	for i := 0; i < clerks; i++ {
		name := fmt.Sprintf("clerk-%02d", i)
		subs = append(subs, mixedSubject{name, classClerk, xmlac.Policy{
			Subject: name, Rules: []xmlac.Rule{{ID: "C1", Sign: "+", Object: "//Folder/Admin"}},
		}})
	}
	return subs
}

func docID(d int) string { return fmt.Sprintf("ward%d", d) }

// docSeed derives each document's generator seed from the run's seed.
func docSeed(seed uint64, d int) uint64 { return seed*1000 + uint64(d) }

// op is one scheduled request.
type op struct {
	due     time.Duration // offset from the start of the load
	doc     int
	patch   bool
	subject int // index into mixedSubjects (views)
	folder  int // 1-based folder of a patch
	sameLen bool
	text    string
}

func (o op) path() string {
	field := "Address"
	if o.sameLen {
		field = "Phone"
	}
	return fmt.Sprintf("/Hospital/Folder[%d]/Admin/%s", o.folder, field)
}

// schedule draws the run's requests: a Poisson arrival process of rate
// mixedRate conditioned on its count (sorted uniform arrival times). The
// mix is exact and only its order is drawn, so seeds differ in arrivals,
// documents and edits but not in proportions: patchShare of the requests
// are patches, half of them keeping the text length (a 10-digit Phone) and
// half changing it (an Address of 45 or more letters, where generated
// addresses have at most 39), at uniformly drawn folders; secretary, doctor
// and researcher each make a tenth of the views and the clerk fleet the
// rest; requests spread evenly over the documents.
func schedule(seed uint64, seconds float64, subjects int) []op {
	rng := rand.New(rand.NewSource(int64(seed)))
	n := int(mixedRate*seconds + 0.5)
	ops := make([]op, n)
	for i := range ops {
		ops[i].due = time.Duration(rng.Float64() * seconds * float64(time.Second))
	}
	sort.Slice(ops, func(i, j int) bool { return ops[i].due < ops[j].due })
	for _, i := range rng.Perm(n)[:int(float64(n)*patchShare+0.5)] {
		ops[i].patch = true
	}
	var views, patches []*op
	for i := range ops {
		if ops[i].patch {
			patches = append(patches, &ops[i])
		} else {
			views = append(views, &ops[i])
		}
	}
	for _, group := range [][]*op{views, patches} {
		for k, i := range rng.Perm(len(group)) {
			group[i].doc = k % mixedDocs
		}
	}
	for k, i := range rng.Perm(len(views)) {
		o := views[i]
		switch c := k % 10; {
		case c < 3:
			o.subject = c // secretary, doctor, researcher
		default:
			o.subject = 3 + rng.Intn(subjects-3)
		}
	}
	lastLen := map[[2]int]int{}
	for k, i := range rng.Perm(len(patches)) {
		o := patches[i]
		o.folder = 1 + rng.Intn(mixedFolders)
		o.sameLen = k%2 == 0
	}
	// Texts are drawn in schedule order, so a folder's next Address always
	// differs in length from the one before it.
	for _, o := range patches {
		if o.sameLen {
			o.text = digits(rng, 10)
			continue
		}
		key := [2]int{o.doc, o.folder}
		for {
			o.text = letters(rng, 45+rng.Intn(40))
			if len(o.text) != lastLen[key] {
				break
			}
		}
		lastLen[key] = len(o.text)
	}
	return ops
}

func digits(rng *rand.Rand, n int) string {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte('0' + rng.Intn(10))
	}
	return string(b)
}

func letters(rng *rand.Rand, n int) string {
	b := make([]byte, n)
	for i := range b {
		if i%7 == 6 {
			b[i] = ' '
		} else {
			b[i] = byte('a' + rng.Intn(26))
		}
	}
	return string(b)
}

// outcome is what one scheduled request observed.
type outcome struct {
	err       error
	late      time.Duration // dispatch time minus due time
	queueWait time.Duration // send time minus due time
	latency   time.Duration // completion minus due time
	ttfb      time.Duration // first view byte minus due time
	done      time.Time
	// views: what arrived, and the versions it may show
	digest string
	bytes  int64
	lo, hi uint64
	// patches: the acknowledged version
	version uint64
}

// mixedState is one served server_mixed deployment.
type mixedState struct {
	srv *server.Server
	lb  *loopback
	mw  *tracingHandler // traced runs only
	h   http.Handler    // the server's own handler, for in-process scrapes
	dir string
}

func (s mixedState) close() error {
	err := s.lb.close()
	if cerr := s.srv.Close(); err == nil {
		err = cerr
	}
	return err
}

// openMixed opens (or recovers) the durable server on dir and serves it.
func openMixed(dir string, rec *recorder, traced bool) (mixedState, error) {
	srv, err := server.Open(server.Options{DataDir: dir})
	if err != nil {
		return mixedState{}, err
	}
	st := mixedState{srv: srv, h: srv.Handler(), dir: dir}
	h := st.h
	if traced {
		st.mw = &tracingHandler{next: h, rec: rec}
		h = st.mw
	}
	if st.lb, err = serve(h); err != nil {
		srv.Close()
		return mixedState{}, err
	}
	return st, nil
}

func runServerMixed(cfg config) (*result, error) {
	res := newResult("server_mixed")
	subjects := mixedSubjects()
	dataRoot := filepath.Join(cfg.outDir, fmt.Sprintf("data-server_mixed-%d", os.Getpid()))
	defer os.RemoveAll(dataRoot)
	rec := newRecorder()
	var roots []*xmlstream.Node
	var initial []uint64
	reps := 0
	st, setupS, err := timedSetup(func() (mixedState, error) {
		reps++
		roots, initial = nil, nil
		st, err := openMixed(filepath.Join(dataRoot, fmt.Sprint(reps)), rec, cfg.trace)
		if err != nil {
			return st, err
		}
		for d := 0; d < mixedDocs; d++ {
			root := dataset.HospitalFolders(mixedFolders, docSeed(cfg.seed, d))
			entry, err := st.srv.RegisterDocument(docID(d), xmlstream.SerializeTree(root, false), passphrase, xmlac.SchemeECBMHT)
			if err != nil {
				st.close()
				return st, err
			}
			roots, initial = append(roots, root), append(initial, entry.Version())
			for _, s := range subjects {
				if _, err := st.srv.InstallPolicy(docID(d), s.name, s.policy); err != nil {
					st.close()
					return st, err
				}
			}
		}
		return st, nil
	}, func(s mixedState) { s.close() })
	if err != nil {
		return nil, err
	}
	res.e2e["setup_s"] = setupS

	l := &mixedLoad{cfg: cfg, res: res, ops: schedule(cfg.seed, cfg.seconds, len(subjects)),
		subjects: subjects, rec: rec, initial: initial}
	l.run(st)
	if cfg.trace {
		if err := rec.write(spanFile(cfg, res.workload), serverTrace(st.h)); err != nil {
			return nil, err
		}
	}
	served := l.finalViews(st)
	if err := st.close(); err != nil {
		return nil, err
	}
	start := time.Now()
	st, err = openMixed(st.dir, rec, false)
	if err != nil {
		return nil, fmt.Errorf("reopening the data dir: %w", err)
	}
	res.layer["storage.recovery_ms"] = msSince(start)
	recovered := l.finalViews(st)
	versions := make([]uint64, mixedDocs)
	for d := range versions {
		if e, err := st.srv.Store().Entry(docID(d)); err == nil {
			versions[d] = e.Version()
		}
	}
	if err := st.close(); err != nil {
		return nil, err
	}
	return res, l.verify(roots, served, recovered, versions)
}

// mixedLoad drives one server_mixed run.
type mixedLoad struct {
	cfg      config
	res      *result
	ops      []op
	subjects []mixedSubject
	rec      *recorder
	wal      *walMeter // traced runs only
	initial  []uint64  // version of each document after registration
	base     string    // server URL
	out      []outcome

	mu    sync.Mutex
	acked []uint64 // highest acknowledged version per document
	sent  []uint64 // patches sent per document
}

func (l *mixedLoad) run(st mixedState) {
	cfg, res := l.cfg, l.res
	l.base = st.lb.url
	l.out = make([]outcome, len(l.ops))
	l.acked = append([]uint64(nil), l.initial...)
	l.sent = make([]uint64, mixedDocs)
	clients := make([]*http.Client, mixedClients)
	for c := range clients {
		t := clientTransport()
		defer t.CloseIdleConnections()
		clients[c] = &http.Client{Transport: t}
		if cfg.trace {
			clients[c].Transport = &tracingTransport{base: t, rec: l.rec}
		}
	}
	// A traced run traces the second half of the schedule; the first half
	// runs uninstrumented, and the two halves give the tracing overhead.
	half := len(l.ops)
	if cfg.trace {
		half = len(l.ops) / 2
		l.wal = &walMeter{h: st.h}
	}
	// queue is buffered to the number of sends, so the generator never
	// blocks on busy clients: waiting requests queue here, and their
	// latency counts from their due time.
	queue := make(chan int, len(l.ops))
	promBefore, totalsBefore := scrapeProm(st.h), metricsTotals(st.h)
	before := sampleRuntime()
	start := time.Now()
	var wg sync.WaitGroup
	for _, c := range clients {
		wg.Add(1)
		go func(c *http.Client) {
			defer wg.Done()
			for i := range queue {
				l.do(i, start, c, i >= half)
			}
		}(c)
	}
	for i, o := range l.ops {
		if i == half {
			l.wal.start()
			st.mw.on.Store(true)
		}
		due := start.Add(o.due)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		l.out[i].late = time.Since(due)
		queue <- i
	}
	close(queue)
	wg.Wait()
	after := sampleRuntime()

	var views, patches, late, queueWait, ttfb, work []float64
	var halves [2][]float64
	var viewBytes, ok int64
	end := start
	for i, o := range l.out {
		kind := "view"
		if l.ops[i].patch {
			kind = "patch"
		}
		res.attempted++
		late = append(late, ms(o.late))
		if o.err != nil {
			res.fail("%s %d: %v", kind, i, o.err)
			continue
		}
		ok++
		if o.done.After(end) {
			end = o.done
		}
		queueWait = append(queueWait, ms(o.queueWait))
		if l.ops[i].patch {
			patches = append(patches, ms(o.latency))
			continue
		}
		views = append(views, ms(o.latency))
		ttfb = append(ttfb, ms(o.ttfb))
		work = append(work, ms(o.latency-o.queueWait))
		viewBytes += o.bytes
		if i < len(l.ops)/2 {
			halves[0] = append(halves[0], ms(o.latency))
		} else {
			halves[1] = append(halves[1], ms(o.latency))
		}
	}
	runtimeDelta(res, before, after, ok)
	vt, vpct := tail(views)
	pt, ppct := tail(patches)
	res.extra["views_per_s"] = metric{float64(len(views)) / end.Sub(start).Seconds(), "1/s"}
	res.extra["view_p50_ms"] = metric{percentile(views, 50), "ms"}
	res.extra["view_tail_ms"] = metric{vt, "ms"}
	res.extra["ttfb_p50_ms"] = metric{percentile(ttfb, 50), "ms"}
	res.extra["patch_p50_ms"] = metric{percentile(patches, 50), "ms"}
	res.extra["patch_tail_ms"] = metric{pt, "ms"}
	res.info["view_tail_percentile"] = vpct
	res.info["view_samples"] = len(views)
	res.info["patch_tail_percentile"] = ppct
	res.info["patch_samples"] = len(patches)
	res.info["offered_rate_per_s"] = mixedRate
	latP99 := percentile(late, 99)
	res.layer["loadgen.late_p99_ms"] = latP99
	res.layer["loadgen.queue_wait_p50_ms"] = percentile(queueWait, 50)
	res.layer["xmlstream.view_kb_per_view"] = float64(viewBytes) / 1e3 / float64(max(len(views), 1))
	res.info["late_p99_ms"] = latP99
	res.info["late_limit_ms"] = ms(lateLimit)
	valid := latP99 <= ms(lateLimit)
	res.info["valid"] = valid
	res.check(valid, "load generator ran %.1f ms late at p99 (limit %.0f ms): run invalid", latP99, ms(lateLimit))
	if !cfg.trace {
		return
	}
	st.mw.on.Store(false)
	p0, p1 := percentile(halves[0], 50), percentile(halves[1], 50)
	if p0 > 0 {
		res.layer["trace.overhead_frac"] = p1/p0 - 1
	}
	promAfter, totalsAfter := scrapeProm(st.h), metricsTotals(st.h)
	l.layers(st, promBefore, promAfter, totalsBefore, totalsAfter, mean(work))
}

// layers fills the per-layer metrics of a traced server_mixed run from the
// scrapes around the load, the handler spans and the WAL samples.
func (l *mixedLoad) layers(st mixedState, before, after promSample, tb, ta xmlac.Metrics, workMs float64) {
	r := l.res
	d := func(name string, labels ...string) float64 { return promDelta(before, after, name, labels...) }
	frac := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	views := d("xmlac_views_served_total")
	phase := func(p string) float64 {
		return frac(d("xmlac_subject_phase_seconds_total", `phase="`+p+`"`)*1e3, views)
	}
	phases := map[string]string{
		"decrypt": "secure.decrypt_ms_per_view", "verify": "secure.verify_ms_per_view",
		"hash_fetch": "secure.hash_fetch_ms_per_view", "decode": "skipindex.decode_ms_per_view",
		"skip": "skipindex.skip_ms_per_view", "eval": "core.eval_ms_per_view",
		"emit": "xmlstream.emit_ms_per_view", "fetch": "remote.fetch_ms_per_view",
	}
	attributed := 0.0
	for p, name := range phases {
		r.layer[name] = phase(p)
		attributed += r.layer[name]
	}
	attributed += phase("resync")
	r.layer["trace.unattributed_ms_per_view"] = workMs - attributed
	r.layer["secure.bytes_decrypted_per_view"] = frac(d("xmlac_bytes_decrypted_total"), views)
	r.layer["skipindex.bytes_skipped_per_view"] = frac(d("xmlac_bytes_skipped_total"), views)
	decided := (ta.NodesPermitted + ta.NodesDenied + ta.NodesPending) - (tb.NodesPermitted + tb.NodesDenied + tb.NodesPending)
	r.layer["core.nodes_decided_per_view"] = frac(float64(decided), views)
	r.layer["core.subjects_per_shared_scan"] = frac(d("xmlac_coalesce_batch_subjects_sum"), d("xmlac_coalesce_batch_subjects_count"))
	hits, misses := d("xmlac_policy_cache_hits_total"), d("xmlac_policy_cache_misses_total")
	r.layer["server.policy_cache_hit_frac"] = frac(hits, hits+misses)
	r.layer["server.coalesced_view_frac"] = frac(d("xmlac_coalesce_views_total"), views)
	handlers := st.mw.samples.take()
	r.layer["server.view_handler_p50_ms"] = percentile(handlers["view"], 50)
	r.layer["server.patch_handler_p50_ms"] = percentile(handlers["patch"], 50)
	patches := d("xmlac_updates_applied_total")
	r.layer["storage.wal_kb_per_patch"] = l.wal.kbPerAppend()
	for kind, kbs := range l.wal.kindKB {
		r.info["wal_kb_per_"+kind+"_patch"] = mean(kbs)
		r.info["wal_"+kind+"_patches_measured"] = len(kbs)
	}
	r.layer["storage.fsyncs_per_patch"] = frac(d("xmlac_storage_fsyncs_total"), patches)
	r.layer["storage.group_commit_frac"] = frac(d("xmlac_storage_group_commits_total"), d("xmlac_storage_wal_appends_total"))
	r.layer["storage.checkpoints"] = d("xmlac_storage_checkpoints_total")
	r.info["policy_cache_hits"], r.info["policy_cache_misses"] = hits, misses
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}

// do sends request i and records its outcome.
func (l *mixedLoad) do(i int, start time.Time, client *http.Client, traced bool) {
	o, out := l.ops[i], &l.out[i]
	due := start.Add(o.due)
	ctx := context.Background()
	var ref *spanRef
	if traced {
		ref = &spanRef{trace: fmt.Sprintf("s%d-r%d", l.cfg.seed, i), id: l.rec.newID()}
		ctx = withSpanRef(ctx, ref)
	}
	sent := time.Now()
	out.queueWait = sent.Sub(due)
	var first time.Time
	if o.patch {
		if l.wal != nil {
			l.wal.sending()
		}
		out.err = l.patch(ctx, client, o, out)
		if l.wal != nil {
			l.wal.acked(patchKind(o), out.err == nil)
		}
	} else {
		first, out.err = l.view(ctx, client, o, out)
	}
	out.done = time.Now()
	out.latency = out.done.Sub(due)
	out.ttfb = out.latency
	if !first.IsZero() {
		out.ttfb = first.Sub(due)
	}
	if traced {
		name := "request.view"
		if o.patch {
			name = "request.patch"
		}
		l.rec.add(ref.trace, ref.id, 0, name, sent, map[string]any{"queue_wait_ns": out.queueWait.Nanoseconds()})
	}
}

func (l *mixedLoad) view(ctx context.Context, client *http.Client, o op, out *outcome) (time.Time, error) {
	l.mu.Lock()
	out.lo = l.acked[o.doc]
	l.mu.Unlock()
	w, err := getView(ctx, client, l.base, docID(o.doc), l.subjects[o.subject].name)
	if err != nil {
		return time.Time{}, err
	}
	l.mu.Lock()
	out.hi = l.initial[o.doc] + l.sent[o.doc]
	l.mu.Unlock()
	out.digest, out.bytes = w.digest(), w.n
	return w.first, nil
}

// getView fetches one view and checks that the response is complete: a
// streamed view that aborts after its first byte misses its trailers.
func getView(ctx context.Context, client *http.Client, base, doc, subject string) (*viewWriter, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		base+"/docs/"+doc+"/view?subject="+url.QueryEscape(subject), nil)
	if err != nil {
		return nil, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	w := newViewWriter()
	if _, err := io.Copy(w, resp.Body); err != nil {
		return nil, fmt.Errorf("view %s/%s: reading body: %w", doc, subject, err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("view %s/%s: status %d", doc, subject, resp.StatusCode)
	}
	if resp.Trailer.Get("X-Xmlac-Nodes-Permitted") == "" {
		return nil, fmt.Errorf("view %s/%s: response truncated (no metric trailers)", doc, subject)
	}
	return w, nil
}

func (l *mixedLoad) patch(ctx context.Context, client *http.Client, o op, out *outcome) error {
	body, err := json.Marshal(map[string][]xmlac.Edit{
		"edits": {{Op: xmlac.EditSetText, Path: o.path(), Text: o.text}},
	})
	if err != nil {
		return err
	}
	l.mu.Lock()
	l.sent[o.doc]++
	l.mu.Unlock()
	req, err := http.NewRequestWithContext(ctx, http.MethodPatch, l.base+"/docs/"+docID(o.doc), bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return fmt.Errorf("patch %s: reading body: %w", docID(o.doc), err)
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("patch %s: status %d: %s", docID(o.doc), resp.StatusCode, strings.TrimSpace(string(data)))
	}
	var ack struct {
		Version uint64 `json:"version"`
	}
	if err := json.Unmarshal(data, &ack); err != nil {
		return fmt.Errorf("patch %s: decoding acknowledgement: %w", docID(o.doc), err)
	}
	out.version = ack.Version
	l.mu.Lock()
	if ack.Version > l.acked[o.doc] {
		l.acked[o.doc] = ack.Version
	}
	l.mu.Unlock()
	return nil
}

// finalViews fetches every subject's view of every document, keyed by
// (document, subject index); a failed fetch is a failed operation.
func (l *mixedLoad) finalViews(st mixedState) map[[2]int]string {
	t := clientTransport()
	defer t.CloseIdleConnections()
	client := &http.Client{Transport: t}
	out := map[[2]int]string{}
	for d := 0; d < mixedDocs; d++ {
		for s, sub := range l.subjects {
			l.res.attempted++
			w, err := getView(context.Background(), client, st.lb.url, docID(d), sub.name)
			if err != nil {
				l.res.fail("final view: %v", err)
				continue
			}
			out[[2]int{d, s}] = w.digest()
		}
	}
	return out
}

// walMeter attributes WAL growth to acknowledged patches from a scrape
// taken after each acknowledgement once it is on. An interval that holds a
// checkpoint is left out (the checkpoint truncated the log). An interval
// with exactly one append and no other patch in flight measures that
// patch's own record, by kind.
type walMeter struct {
	h        http.Handler
	on       atomic.Bool
	mu       sync.Mutex
	inflight int
	prev     promSample
	// bytes and appends sum every measured interval; kindKB holds the
	// single-patch records by kind.
	bytes, appends float64
	kindKB         map[string][]float64
}

func (m *walMeter) start() {
	m.mu.Lock()
	m.prev = scrapeProm(m.h)
	m.kindKB = map[string][]float64{}
	m.on.Store(true)
	m.mu.Unlock()
}

func (m *walMeter) sending() {
	m.mu.Lock()
	m.inflight++
	m.mu.Unlock()
}

// acked ends one patch (acknowledged or failed) of the given kind.
func (m *walMeter) acked(kind string, ok bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.inflight--
	if !m.on.Load() {
		return
	}
	cur := scrapeProm(m.h)
	if promDelta(m.prev, cur, "xmlac_storage_checkpoints_total") == 0 {
		b, a := promDelta(m.prev, cur, "xmlac_storage_wal_bytes"), promDelta(m.prev, cur, "xmlac_storage_wal_appends_total")
		m.bytes += b
		m.appends += a
		if ok && a == 1 && m.inflight == 0 {
			m.kindKB[kind] = append(m.kindKB[kind], b/1e3)
		}
	}
	m.prev = cur
}

// kbPerAppend is the mean WAL record size of the measured intervals.
func (m *walMeter) kbPerAppend() float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.appends == 0 {
		return 0
	}
	return m.bytes / 1e3 / m.appends
}

func patchKind(o op) string {
	if o.sameLen {
		return "in_place"
	}
	return "reencode"
}
