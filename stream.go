package xmlac

import (
	"errors"
	"fmt"
	"io"
	"time"

	"xmlac/internal/core"
	"xmlac/internal/remote"
	"xmlac/internal/secure"
	itrace "xmlac/internal/trace"
	"xmlac/internal/xmlstream"
)

// Streaming view delivery: the paper's SOE evaluates access control in
// streaming with bounded memory, delivering the authorized view as it is
// produced. These entry points expose that property: instead of
// materializing a *Document tree and serializing it afterwards, the
// evaluator writes textual XML to w while it is still scanning the encrypted
// document, so peak memory and time-to-first-byte track the evaluator's
// working set (open path plus pending predicates), not the view size.
//
// The output is byte-identical to AuthorizedView(...).XML() (or
// IndentedXML() with ViewOptions.Indent) and the SOE metrics are identical;
// Metrics.TimeToFirstByte additionally reports when the first byte reached
// w. A write error from w aborts the evaluation mid-document — a server
// streaming to a disconnected client stops paying for the rest of the scan.

// StreamAuthorizedView evaluates the policy (and optional query) over the
// protected document and streams the authorized view to w as it is produced.
// It compiles the policy on every call; callers evaluating the same policy
// repeatedly should compile it once and use StreamAuthorizedViewCompiled.
func (p *Protected) StreamAuthorizedView(key Key, policy Policy, opts ViewOptions, w io.Writer) (*Metrics, error) {
	compiled, err := policy.Compile()
	if err != nil {
		return nil, err
	}
	return p.StreamAuthorizedViewCompiled(key, compiled, opts, w)
}

// StreamAuthorizedViewCompiled is StreamAuthorizedView for a pre-compiled
// policy: the compile-once / evaluate-many streaming fast path.
func (p *Protected) StreamAuthorizedViewCompiled(key Key, cp *CompiledPolicy, opts ViewOptions, w io.Writer) (*Metrics, error) {
	return streamViewOverSource(p.snapshot(), key, cp, opts, w)
}

// StreamAuthorizedView evaluates the policy over the remote document and
// streams the authorized view to w: ciphertext is pulled through HTTP range
// requests on one side while authorized XML flows out on the other, so the
// client never holds the view (nor, thanks to the Skip index, the document)
// in memory.
func (d *RemoteDocument) StreamAuthorizedView(policy Policy, opts ViewOptions, w io.Writer) (*Metrics, error) {
	compiled, err := policy.Compile()
	if err != nil {
		return nil, err
	}
	return d.StreamAuthorizedViewCompiled(compiled, opts, w)
}

// StreamAuthorizedViewCompiled is StreamAuthorizedView for a pre-compiled
// policy. The returned Metrics carry the wire counters of this evaluation on
// top of the usual SOE cost counters. Like AuthorizedViewCompiled it re-syncs
// and retries once when the server's document was updated — but only while
// nothing has been delivered to w yet; after the first byte the change
// surfaces as an error (a retried stream would duplicate output).
func (d *RemoteDocument) StreamAuthorizedViewCompiled(cp *CompiledPolicy, opts ViewOptions, w io.Writer) (*Metrics, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	before := d.src.Stats()
	cw := &countingWriter{w: w}
	metrics, err := streamViewOverSource(d.src, d.key, cp, opts, cw)
	if errors.Is(err, remote.ErrChanged) && cw.n == 0 {
		if rerr := d.src.Resync(); rerr != nil {
			return nil, rerr
		}
		metrics, err = streamViewOverSource(d.src, d.key, cp, opts, cw)
	}
	// An aborted stream still reports the partial counters (wire delta
	// included) alongside its error, so the work performed can be accounted
	// for exactly once by aggregators.
	if metrics != nil {
		d.stampWireDelta(metrics, before)
	}
	return metrics, err
}

// streamViewOverSource runs the shared SOE pipeline with a serializer sink
// over w and stamps the time-to-first-byte.
func streamViewOverSource(src secure.ChunkSource, key Key, cp *CompiledPolicy, opts ViewOptions, w io.Writer) (*Metrics, error) {
	coreOpts, err := opts.coreOptions()
	if err != nil {
		return nil, err
	}
	fw := &firstByteWriter{w: w, start: time.Now()}
	coreOpts.Sink = xmlstream.NewViewSerializer(fw, opts.Indent)
	_, metrics, err := runViewPipeline(opts.Context, src, key, cp, coreOpts, opts.Parallelism)
	if metrics != nil {
		metrics.TimeToFirstByte = fw.ttfb
	}
	return metrics, err
}

// runMultiViewPipeline runs the shared-scan multicast pipeline: one secure
// reader and one Skip-index decoder feed a core.MultiEvaluator dispatching to
// one evaluator (and serializer sink, for streamed views) per subject. The
// per-scan machinery comes from a pool, like the solo pipeline's.
func runMultiViewPipeline(src secure.ChunkSource, key Key, views []CompiledView) ([]ViewResult, error) {
	if len(views) == 0 {
		return nil, nil
	}
	if prot, ok := src.(*secure.Protected); ok {
		if workers := multiParallelism(views); workers >= 2 {
			results, err := runParallelMultiViewPipeline(prot, key, views, workers)
			if !parallelFallback(err) {
				return results, err
			}
		}
	}
	st := multiPool.Get().(*multiState)
	defer multiPool.Put(st)
	var err error
	if st.reader == nil {
		st.reader, err = secure.NewReader(src, key)
	} else {
		err = st.reader.Reset(src, key)
	}
	if err != nil {
		return nil, err
	}
	decoder := &st.decoder
	if err := decoder.Reset(st.reader); err != nil {
		return nil, err
	}
	multi := core.NewMultiEvaluator(decoder)
	writers := make([]*firstByteWriter, len(views))
	ctxs := make([]*itrace.Context, len(views))
	start := time.Now()
	// The shared machinery (reader, decoder, physical skips, wire transfer)
	// reports into one context, owned by the first traced subject's Trace:
	// its phases are shared costs, stamped into every traced subject's
	// breakdown like the shared byte counters are.
	var shared *itrace.Context
	for i := range views {
		if views[i].Policy == nil {
			return nil, fmt.Errorf("xmlac: view %d: nil CompiledPolicy", i)
		}
		coreOpts, err := views[i].Options.coreOptions()
		if err != nil {
			return nil, fmt.Errorf("xmlac: view %d: %w", i, err)
		}
		ctxs[i] = coreOpts.Trace
		if shared == nil && views[i].Options.Trace != nil {
			shared = views[i].Options.Trace.context(views[i].Options.TraceID)
		}
		if views[i].Output != nil {
			fw := &firstByteWriter{w: views[i].Output, start: start}
			writers[i] = fw
			coreOpts.Sink = xmlstream.NewViewSerializer(fw, views[i].Options.Indent)
		}
		multi.AddSubject(st.evaluator(i), views[i].Policy.core, coreOpts)
	}
	if shared != nil {
		st.reader.SetTrace(shared)
		decoder.SetTrace(shared)
		multi.SetTrace(shared)
		if ts, ok := src.(traceSetter); ok {
			ts.SetTrace(shared)
			defer ts.SetTrace(nil)
		}
		defer st.reader.SetTrace(nil)
	}
	outcomes, err := multi.Run()
	if err != nil {
		return nil, err
	}
	costs := st.reader.Costs()
	physSkipped := decoder.BytesSkipped()
	scanDur := time.Since(start)
	var sharedPhases PhaseBreakdown
	if shared != nil {
		shared.Finish("shared-scan", costs.BytesTransferred)
		sharedPhases = breakdownFromPhases(shared.Phases())
	}
	results := make([]ViewResult, len(views))
	for i, out := range outcomes {
		if out.Result == nil {
			results[i] = ViewResult{Err: out.Err}
			continue
		}
		// out.Result with a non-nil out.Err carries the partial counters of
		// a subject that failed mid-scan (its sink disconnected): report
		// them alongside the error so the work is still accounted for.
		metrics := buildMetrics(costs, physSkipped, out.Result)
		if writers[i] != nil {
			metrics.TimeToFirstByte = writers[i].ttfb
		}
		metrics.Duration = scanDur
		if ctxs[i] != nil {
			ctxs[i].Finish("view:"+views[i].Policy.subject, costs.BytesTransferred)
			metrics.PhaseBreakdown = breakdownFromPhases(ctxs[i].Phases())
			metrics.PhaseBreakdown.Add(&sharedPhases)
		}
		vr := ViewResult{Metrics: metrics, Err: out.Err}
		if views[i].Output == nil && out.Err == nil {
			vr.View = &Document{root: out.Result.View}
		}
		results[i] = vr
	}
	return results, nil
}

// firstByteWriter stamps the delay to the first delivered byte.
type firstByteWriter struct {
	w     io.Writer
	start time.Time
	ttfb  time.Duration
}

func (f *firstByteWriter) Write(p []byte) (int, error) {
	if f.ttfb == 0 && len(p) > 0 {
		f.ttfb = time.Since(f.start)
		if f.ttfb <= 0 {
			f.ttfb = 1 // a degenerate clock still marks "bytes were delivered"
		}
	}
	return f.w.Write(p)
}
