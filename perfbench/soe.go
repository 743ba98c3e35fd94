package main

import (
	"errors"
	"fmt"
	"net"
	"net/http"
	"path/filepath"
	"time"

	"xmlac"
	"xmlac/internal/dataset"
	"xmlac/internal/server"
	"xmlac/internal/xmlstream"
)

const (
	// soeFolders sizes the closed-loop document like the paper's: about
	// 3.6 MB of XML, 2.3 MB of ECB-MHT ciphertext.
	soeFolders = 800
	// setupReps is how many times a run sets up; setup_s is the median (an
	// odd count makes it one of the timings).
	setupReps  = 5
	passphrase = "perfbench"
	// traceCapacity bounds the program's span ring in traced runs; a remote
	// view records one span per fetch.
	traceCapacity = 1 << 16
)

// subject is one policy of a workload with its reference view.
type subject struct {
	policy xmlac.Policy
	cp     *xmlac.CompiledPolicy
	ref    string // digest of the reference view
	refLen int64
}

// soeCycle is the fixed subject cycle of the closed-loop workloads.
func soeCycle() []xmlac.Policy {
	return []xmlac.Policy{xmlac.SecretaryPolicy(), xmlac.DoctorPolicy("DrA"), xmlac.ResearcherPolicy("G3")}
}

func hospitalXML(folders int, seed uint64) string {
	return xmlstream.SerializeTree(dataset.HospitalFolders(folders, seed), false)
}

func compileSubjects(policies []xmlac.Policy) ([]*subject, error) {
	subs := make([]*subject, len(policies))
	for i, p := range policies {
		cp, err := p.Compile()
		if err != nil {
			return nil, fmt.Errorf("compiling %s: %w", p.Subject, err)
		}
		subs[i] = &subject{policy: p, cp: cp}
	}
	return subs, nil
}

// setReferences computes each subject's reference view with
// xmlac.EvaluateDocument on the plaintext: no crypto, no Skip index.
func setReferences(xmlText string, subs []*subject) error {
	doc, err := xmlac.ParseDocumentString(xmlText)
	if err != nil {
		return err
	}
	for _, s := range subs {
		v, err := xmlac.EvaluateDocument(doc, s.policy, xmlac.ViewOptions{})
		if err != nil {
			return fmt.Errorf("reference view of %s: %w", s.policy.Subject, err)
		}
		x := v.XML()
		s.ref, s.refLen = digestString(x), int64(len(x))
	}
	return nil
}

// timedSetup runs setup setupReps times, releasing all but the last state,
// and returns that state with the median set-up time in seconds.
func timedSetup[T any](setup func() (T, error), release func(T)) (T, float64, error) {
	var st T
	var times []float64
	for i := 0; i < setupReps; i++ {
		if i > 0 && release != nil {
			release(st)
		}
		start := time.Now()
		var err error
		if st, err = setup(); err != nil {
			return st, 0, err
		}
		times = append(times, time.Since(start).Seconds())
	}
	return st, percentile(times, 50), nil
}

// viewSample is what one closed-loop view measured.
type viewSample struct {
	latency time.Duration
	ttfb    time.Duration
	m       *xmlac.Metrics
	bytes   int64
	digest  string
	// wire and trips are the remote session's totals (OpenRemote
	// included); 0 for local views.
	wire, trips int64
	// openFetch is the HTTP time of OpenRemote (traced remote views only).
	openFetch time.Duration
}

// viewFunc runs view number i of the cycle with the given options.
type viewFunc func(i int, opts xmlac.ViewOptions) (viewSample, error)

// counts are the deterministic quantities of one view.
type counts struct {
	decrypted, skipped, transferred, decided, viewBytes, wire, trips int64
	cardSeconds                                                      float64
}

func countsOf(s viewSample) counts {
	m := s.m
	return counts{
		decrypted: m.BytesDecrypted, skipped: m.BytesSkipped, transferred: m.BytesTransferred,
		decided:   m.NodesPermitted + m.NodesDenied + m.NodesPending,
		viewBytes: s.bytes, wire: s.wire, trips: s.trips, cardSeconds: m.EstimatedSmartCardSeconds,
	}
}

// soeLoop is the closed loop shared by local_soe and remote_soe.
type soeLoop struct {
	cfg  config
	res  *result
	subs []*subject
	view viewFunc
	// startTrace, when set, turns on instrumentation outside the view call
	// before the traced half of a traced run.
	startTrace func()
	// first holds each subject's counts from its first view; every later
	// view of the subject must repeat them exactly.
	first []*counts
}

// one runs and checks view i; ok is false when it failed.
func (l *soeLoop) one(i int, opts xmlac.ViewOptions) (viewSample, bool) {
	l.res.attempted++
	s := l.subs[i%len(l.subs)]
	v, err := l.view(i, opts)
	if err != nil {
		l.res.fail("view %d (%s): %v", i, s.policy.Subject, err)
		return v, false
	}
	if v.digest != s.ref || v.bytes != s.refLen {
		l.res.fail("view %d (%s): %d bytes, digest %.12s; reference %d bytes, digest %.12s",
			i, s.policy.Subject, v.bytes, v.digest, s.refLen, s.ref)
		return v, false
	}
	c := countsOf(v)
	k := i % len(l.subs)
	if l.first[k] == nil {
		l.first[k] = &c
	} else if *l.first[k] != c {
		l.res.fail("view %d (%s): counts %+v differ from the subject's first view %+v",
			i, s.policy.Subject, c, *l.first[k])
		return v, false
	}
	return v, true
}

// minCycles is the fewest cycles a phase measures. With one view per
// subject per cycle, tailBeyond+1 cycles keep the tail (the view with
// tailBeyond views beyond it) among the views of the slowest subject, so a
// slow run does not report another subject's latency as its tail.
const minCycles = tailBeyond + 1

// phase runs whole cycles until seconds have passed and at least the given
// number of cycles are done, and returns the successful samples and the
// elapsed time.
func (l *soeLoop) phase(seconds float64, cycles int, opts func(i int) xmlac.ViewOptions) ([]viewSample, time.Duration) {
	var out []viewSample
	start := time.Now()
	for i := 0; ; i++ {
		if i%len(l.subs) == 0 && i >= cycles*len(l.subs) && time.Since(start).Seconds() >= seconds {
			return out, time.Since(start)
		}
		if v, ok := l.one(i, opts(i)); ok {
			out = append(out, v)
		}
	}
}

func plain(int) xmlac.ViewOptions { return xmlac.ViewOptions{} }

// run warms up with one cycle, then measures. The traced run measures half
// the time untraced and half traced, so the two halves give the tracing
// overhead.
func (l *soeLoop) run(traced func(i int) xmlac.ViewOptions) (samples []viewSample, err error) {
	l.first = make([]*counts, len(l.subs))
	for i := range l.subs {
		l.one(i, xmlac.ViewOptions{})
	}
	if !l.cfg.trace {
		before := sampleRuntime()
		samples, elapsed := l.phase(l.cfg.seconds, l.cfg.minCycles, plain)
		runtimeDelta(l.res, before, sampleRuntime(), int64(len(samples)))
		l.endToEnd(samples, elapsed)
		return samples, l.deterministic()
	}
	untraced, elapsed := l.phase(l.cfg.seconds/2, 1, plain)
	l.endToEnd(untraced, elapsed)
	vpsUntraced := l.res.extra["views_per_s"].Value
	if l.startTrace != nil {
		l.startTrace()
	}
	before := sampleRuntime()
	samples, elapsed = l.phase(l.cfg.seconds/2, 1, traced)
	runtimeDelta(l.res, before, sampleRuntime(), int64(len(samples)))
	l.endToEnd(samples, elapsed)
	if vpsUntraced > 0 {
		l.res.layer["trace.overhead_frac"] = 1 - l.res.extra["views_per_s"].Value/vpsUntraced
	}
	l.res.info["views_per_s_untraced"] = vpsUntraced
	l.res.info["views_per_s_traced"] = l.res.extra["views_per_s"].Value
	return samples, l.deterministic()
}

// endToEnd fills the latency and throughput metrics of one phase.
func (l *soeLoop) endToEnd(samples []viewSample, elapsed time.Duration) {
	if len(samples) == 0 {
		return
	}
	lat := make([]float64, len(samples))
	ttfb := make([]float64, len(samples))
	for i, s := range samples {
		lat[i], ttfb[i] = ms(s.latency), ms(s.ttfb)
	}
	t, pct := tail(lat)
	l.res.extra["views_per_s"] = metric{float64(len(samples)) / elapsed.Seconds(), "1/s"}
	l.res.extra["view_p50_ms"] = metric{percentile(lat, 50), "ms"}
	l.res.extra["view_tail_ms"] = metric{t, "ms"}
	l.res.extra["ttfb_p50_ms"] = metric{percentile(ttfb, 50), "ms"}
	l.res.info["view_tail_percentile"] = pct
	l.res.info["view_samples"] = len(samples)
}

// deterministic reports the per-view counts, averaged over one cycle (each
// later cycle repeats them exactly, which one checked).
func (l *soeLoop) deterministic() error {
	var sum counts
	for k, c := range l.first {
		if c == nil {
			return fmt.Errorf("subject %s never completed a view", l.subs[k].policy.Subject)
		}
		sum.decrypted += c.decrypted
		sum.skipped += c.skipped
		sum.transferred += c.transferred
		sum.decided += c.decided
		sum.viewBytes += c.viewBytes
		sum.wire += c.wire
		sum.trips += c.trips
		sum.cardSeconds += c.cardSeconds
	}
	n := float64(len(l.first))
	r := l.res
	r.extra["soe_cost_s_per_view"] = metric{sum.cardSeconds / n, "s"}
	r.layer["secure.bytes_decrypted_per_view"] = float64(sum.decrypted) / n
	r.layer["skipindex.bytes_skipped_per_view"] = float64(sum.skipped) / n
	r.layer["core.nodes_decided_per_view"] = float64(sum.decided) / n
	r.layer["core.subjects_per_shared_scan"] = 1
	r.layer["xmlstream.view_kb_per_view"] = float64(sum.viewBytes) / 1e3 / n
	if sum.trips > 0 {
		r.extra["wire_kb_per_view"] = metric{float64(sum.wire) / 1e3 / n, "kB"}
		r.extra["round_trips_per_view"] = metric{float64(sum.trips) / n, "count"}
		r.layer["remote.wire_amplification"] = float64(sum.wire) / float64(sum.transferred)
		var trips []int64
		for _, c := range l.first {
			trips = append(trips, c.trips)
		}
		r.info["round_trips_by_subject"] = trips
	}
	return nil
}

// phaseLayers fills the per-layer times of traced views from their phase
// breakdowns; unattributed time is the view latency no layer accounts for.
func phaseLayers(res *result, samples []viewSample) {
	var b xmlac.PhaseBreakdown
	var unattributed, open time.Duration
	for _, s := range samples {
		b.Add(&s.m.PhaseBreakdown)
		unattributed += s.latency - s.openFetch - s.m.PhaseBreakdown.Sum()
		open += s.openFetch
	}
	n := float64(len(samples))
	if n == 0 {
		return
	}
	per := func(ns int64) float64 { return float64(ns) / 1e6 / n }
	res.layer["secure.decrypt_ms_per_view"] = per(b.DecryptNs)
	res.layer["secure.verify_ms_per_view"] = per(b.VerifyNs)
	res.layer["secure.hash_fetch_ms_per_view"] = per(b.HashFetchNs)
	res.layer["skipindex.decode_ms_per_view"] = per(b.DecodeNs)
	res.layer["skipindex.skip_ms_per_view"] = per(b.SkipNs)
	res.layer["core.eval_ms_per_view"] = per(b.EvalNs)
	res.layer["xmlstream.emit_ms_per_view"] = per(b.EmitNs)
	res.layer["remote.fetch_ms_per_view"] = per(b.FetchNs + open.Nanoseconds())
	res.layer["trace.unattributed_ms_per_view"] = per(unattributed.Nanoseconds())
}

// tracedOptions returns the options of traced view i: the program's trace
// ring plus a view ID shared by every span of the view.
func tracedOptions(tr *xmlac.Trace, seed uint64) func(i int) xmlac.ViewOptions {
	return func(i int) xmlac.ViewOptions {
		return xmlac.ViewOptions{Trace: tr, TraceID: fmt.Sprintf("s%d-v%d", seed, i)}
	}
}

func spanFile(cfg config, workload string) string {
	return filepath.Join(cfg.outDir, fmt.Sprintf("spans-%s-seed%d.jsonl", workload, cfg.seed))
}

func runLocalSOE(cfg config) (*result, error) {
	res := newResult("local_soe")
	key := xmlac.DeriveKey(passphrase)
	type state struct {
		xml  string
		prot *xmlac.Protected
		subs []*subject
	}
	st, setupS, err := timedSetup(func() (state, error) {
		x := hospitalXML(soeFolders, cfg.seed)
		doc, err := xmlac.ParseDocumentString(x)
		if err != nil {
			return state{}, err
		}
		prot, err := xmlac.Protect(doc, key, xmlac.SchemeECBMHT)
		if err != nil {
			return state{}, err
		}
		subs, err := compileSubjects(soeCycle())
		return state{x, prot, subs}, err
	}, nil)
	if err != nil {
		return nil, err
	}
	res.e2e["setup_s"] = setupS
	if err := setReferences(st.xml, st.subs); err != nil {
		return nil, err
	}
	rec := newRecorder()
	view := func(i int, opts xmlac.ViewOptions) (viewSample, error) {
		s := st.subs[i%len(st.subs)]
		w := newViewWriter()
		var id uint64
		if opts.Trace != nil {
			id = rec.newID()
		}
		start := time.Now()
		m, err := st.prot.StreamAuthorizedViewCompiled(key, s.cp, opts, w)
		lat := time.Since(start)
		if err != nil {
			return viewSample{}, err
		}
		if opts.Trace != nil {
			rec.add(opts.TraceID, id, 0, "view."+s.policy.Subject, start, map[string]any{"phases": m.PhaseBreakdown})
		}
		return viewSample{latency: lat, ttfb: w.ttfb(start, lat), m: m, bytes: w.n, digest: w.digest()}, nil
	}
	l := &soeLoop{cfg: cfg, res: res, subs: st.subs, view: view}
	tr := xmlac.NewTrace(traceCapacity)
	samples, err := l.run(tracedOptions(tr, cfg.seed))
	if err != nil {
		return nil, err
	}
	if cfg.trace {
		phaseLayers(res, samples)
		if err := rec.write(spanFile(cfg, res.workload), programTrace(tr)); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// loopback is an in-process HTTP server on a loopback port.
type loopback struct {
	srv  *http.Server
	url  string
	done chan error
}

func serve(h http.Handler) (*loopback, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	lb := &loopback{srv: &http.Server{Handler: h}, url: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	go func() { lb.done <- lb.srv.Serve(ln) }()
	return lb, nil
}

// close stops the server and waits until Serve has returned.
func (lb *loopback) close() error {
	err := lb.srv.Close()
	if serr := <-lb.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}

// clientTransport opens at most one connection: each client goroutine of
// the load owns one.
func clientTransport() *http.Transport {
	return &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
}

func runRemoteSOE(cfg config) (*result, error) {
	res := newResult("remote_soe")
	key := xmlac.DeriveKey(passphrase)
	type state struct {
		xml  string
		lb   *loopback
		mw   *tracingHandler
		subs []*subject
	}
	rec := newRecorder()
	st, setupS, err := timedSetup(func() (state, error) {
		x := hospitalXML(soeFolders, cfg.seed)
		srv := server.New(server.Options{})
		if _, err := srv.RegisterDocument("hospital", x, passphrase, xmlac.SchemeECBMHT); err != nil {
			return state{}, err
		}
		var h http.Handler = srv.Handler()
		var mw *tracingHandler
		if cfg.trace {
			mw = &tracingHandler{next: h, rec: rec}
			h = mw
		}
		lb, err := serve(h)
		if err != nil {
			return state{}, err
		}
		subs, err := compileSubjects(soeCycle())
		return state{x, lb, mw, subs}, err
	}, func(s state) { s.lb.close() })
	if err != nil {
		return nil, err
	}
	defer st.lb.close()
	res.e2e["setup_s"] = setupS
	if err := setReferences(st.xml, st.subs); err != nil {
		return nil, err
	}
	transport := clientTransport()
	defer transport.CloseIdleConnections()
	tt := &tracingTransport{base: transport, rec: rec}
	client := &http.Client{Transport: transport}
	tracedClient := &http.Client{Transport: tt}
	url := st.lb.url + "/docs/hospital"
	reqs := map[string][]float64{} // traced request durations by kind
	view := func(i int, opts xmlac.ViewOptions) (viewSample, error) {
		s := st.subs[i%len(st.subs)]
		c := client
		var root uint64
		if opts.Trace != nil {
			c = tracedClient
			root = rec.newID()
			tt.cur.Store(&spanRef{trace: opts.TraceID, id: root})
			defer tt.cur.Store(nil)
		}
		w := newViewWriter()
		start := time.Now()
		d, err := xmlac.OpenRemoteOptions(url, key, xmlac.RemoteOptions{HTTPClient: c})
		if err != nil {
			return viewSample{}, err
		}
		var open time.Duration
		if opts.Trace != nil {
			for kind, ds := range tt.samples.take() {
				open += time.Duration(sum(ds) * float64(time.Millisecond))
				reqs[kind] = append(reqs[kind], ds...)
			}
		}
		m, err := d.StreamAuthorizedViewCompiled(s.cp, opts, w)
		lat := time.Since(start)
		if err != nil {
			return viewSample{}, err
		}
		wire, trips := d.WireStats()
		if opts.Trace != nil {
			for kind, ds := range tt.samples.take() {
				reqs[kind] = append(reqs[kind], ds...)
			}
			rec.add(opts.TraceID, root, 0, "view."+s.policy.Subject, start, map[string]any{"phases": m.PhaseBreakdown})
		}
		return viewSample{latency: lat, ttfb: w.ttfb(start, lat), m: m, bytes: w.n, digest: w.digest(),
			wire: wire, trips: trips, openFetch: open}, nil
	}
	l := &soeLoop{cfg: cfg, res: res, subs: st.subs, view: view}
	if cfg.trace {
		l.startTrace = func() { st.mw.on.Store(true) }
	}
	tr := xmlac.NewTrace(traceCapacity)
	samples, err := l.run(tracedOptions(tr, cfg.seed))
	if err != nil || !cfg.trace {
		return res, err
	}
	st.mw.on.Store(false)
	phaseLayers(res, samples)
	n := float64(len(samples))
	var all []float64
	for _, ds := range reqs {
		all = append(all, ds...)
	}
	res.layer["remote.req_p50_ms"] = percentile(all, 50)
	res.layer["remote.manifest_requests_per_view"] = float64(len(reqs["manifest"])) / n
	res.layer["remote.blob_requests_per_view"] = float64(len(reqs["blob"])) / n
	res.layer["remote.hashes_requests_per_view"] = float64(len(reqs["hashes"])) / n
	res.layer["server.blob_handler_ms_per_view"] = sum(st.mw.samples.take()["blob"]) / n
	return res, rec.write(spanFile(cfg, res.workload), programTrace(tr))
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}
