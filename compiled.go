package xmlac

import (
	"context"
	"io"
	"sync"
	"time"

	"xmlac/internal/core"
	"xmlac/internal/secure"
	"xmlac/internal/skipindex"
	"xmlac/internal/soe"
	itrace "xmlac/internal/trace"
)

// CompiledPolicy is a policy compiled once to its Access Rules Automata,
// ready to be evaluated many times. Compiling a policy (XPath parsing and
// automata construction) is pure per-subject session work: doing it on every
// AuthorizedView call wastes time and allocations when the same subject reads
// many documents or re-reads the same document, which is the common case for
// a server streaming authorized views to a fleet of clients.
//
// A CompiledPolicy is immutable and safe for concurrent use by any number of
// goroutines; a server can keep one per (document, subject, policy version)
// in a cache (see internal/server) and share it across requests.
type CompiledPolicy struct {
	subject string
	hash    string
	rules   int
	core    *core.CompiledPolicy
}

// Compile validates the policy and compiles every rule to its automaton. The
// returned CompiledPolicy evaluates exactly like the declarative policy (see
// Protected.AuthorizedViewCompiled) but skips rule parsing and automata
// construction on every subsequent evaluation.
func (p Policy) Compile() (*CompiledPolicy, error) {
	internal, err := p.compile()
	if err != nil {
		return nil, err
	}
	return &CompiledPolicy{
		subject: p.Subject,
		hash:    internal.Fingerprint(),
		rules:   len(internal.Rules),
		core:    core.CompilePolicy(internal),
	}, nil
}

// Fingerprint returns the stable content hash of the policy (subject and
// rules), without keeping the compiled form. Two policies with the same
// subject and the same rules in the same order share a fingerprint across
// processes; caches key compiled policies on it.
func (p Policy) Fingerprint() (string, error) {
	internal, err := p.compile()
	if err != nil {
		return "", err
	}
	return internal.Fingerprint(), nil
}

// Subject returns the subject the policy was compiled for.
func (cp *CompiledPolicy) Subject() string { return cp.subject }

// Hash returns the stable content hash of the source policy; it equals
// Policy.Fingerprint of the policy it was compiled from.
func (cp *CompiledPolicy) Hash() string { return cp.hash }

// NumRules returns the number of compiled rules.
func (cp *CompiledPolicy) NumRules() int { return cp.rules }

// evalState bundles the per-request evaluation machinery (secure reader,
// Skip-index decoder and streaming evaluator) whose internal tables are
// reused across requests through a sync.Pool: concurrent AuthorizedView
// calls do not re-allocate the reader caches, decoder buffers and intern
// table, or evaluator state, they only reset them.
type evalState struct {
	reader  *secure.Reader
	decoder skipindex.Decoder
	eval    *core.Evaluator
}

var evalPool = sync.Pool{New: func() any { return &evalState{} }}

// AuthorizedViewCompiled is AuthorizedView for a pre-compiled policy: the
// compile-once / evaluate-many fast path. It produces byte-identical views
// and identical metrics to AuthorizedView with the source policy.
func (p *Protected) AuthorizedViewCompiled(key Key, cp *CompiledPolicy, opts ViewOptions) (*Document, *Metrics, error) {
	return authorizedViewOverSource(p.snapshot(), key, cp, opts)
}

// authorizedViewOverSource materializes the authorized view over any chunk
// source by running the shared pipeline into a tree (the core attaches an
// xmlstream.TreeSink when no delivery sink is configured).
func authorizedViewOverSource(src secure.ChunkSource, key Key, cp *CompiledPolicy, opts ViewOptions) (*Document, *Metrics, error) {
	coreOpts, err := opts.coreOptions()
	if err != nil {
		return nil, nil, err
	}
	res, metrics, err := runViewPipeline(opts.Context, src, key, cp, coreOpts, opts.Parallelism)
	if err != nil {
		return nil, nil, err
	}
	return &Document{root: res.View}, metrics, nil
}

// traceSetter is implemented by chunk sources that can charge their work to
// an evaluation's tracing context (internal/remote's Source).
type traceSetter interface {
	SetTrace(*itrace.Context)
}

// contextSetter is implemented by chunk sources whose fetches can be bound to
// a request context (internal/remote's Source), so canceling the context
// aborts their in-flight transfers.
type contextSetter interface {
	SetContext(context.Context)
}

// runViewPipeline runs the SOE pipeline (secure reader, Skip-index decoder,
// streaming evaluator) over any chunk source: the in-memory protected
// document (local evaluation) or a remote blob (OpenRemote), where every
// ciphertext range the reader pulls is network transfer. The view goes
// wherever coreOpts.Sink points (Result.View when nil); the per-request
// machinery comes from the shared pool.
//
// When the evaluation fails mid-scan (typically the sink of a disconnected
// client), the returned Metrics are non-nil and carry the partial counters
// of the work already performed, so aggregators can still account for it.
//
// parallelism >= 2 requests the region-parallel scan (ViewOptions.
// Parallelism); it applies only to local documents without a query, and any
// combination the parallel orchestrator vetoes falls back to the serial
// pipeline below before a single byte reaches the sink.
func runViewPipeline(ctx context.Context, src secure.ChunkSource, key Key, cp *CompiledPolicy, coreOpts core.Options, parallelism int) (*core.Result, *Metrics, error) {
	if parallelism >= 2 && coreOpts.Query == nil {
		if prot, ok := src.(*secure.Protected); ok {
			res, metrics, err := runParallelViewPipeline(ctx, prot, key, cp, coreOpts, parallelism)
			if !parallelFallback(err) {
				return res, metrics, err
			}
		}
	}
	start := time.Now()
	st := evalPool.Get().(*evalState)
	defer evalPool.Put(st)
	if ctx != nil {
		if cs, ok := src.(contextSetter); ok {
			cs.SetContext(ctx)
			defer cs.SetContext(nil)
		}
	}
	var err error
	if st.reader == nil {
		st.reader, err = secure.NewReader(src, key)
	} else {
		err = st.reader.Reset(src, key)
	}
	if err != nil {
		return nil, nil, err
	}
	decoder := &st.decoder
	if err := decoder.Reset(st.reader); err != nil {
		return nil, nil, err
	}
	tr := coreOpts.Trace
	if tr != nil {
		st.reader.SetTrace(tr)
		decoder.SetTrace(tr)
		if ts, ok := src.(traceSetter); ok {
			ts.SetTrace(tr)
			defer ts.SetTrace(nil)
		}
		defer st.reader.SetTrace(nil)
	}
	if st.eval == nil {
		st.eval = core.NewCompiledEvaluator(decoder, cp.core, coreOpts)
	} else {
		st.eval.Reset(decoder, cp.core, coreOpts)
	}
	res, err := st.eval.Run()
	if err != nil {
		partial := buildMetrics(st.reader.Costs(), decoder.BytesSkipped(),
			&core.Result{Metrics: st.eval.Metrics()})
		stampDuration(partial, tr, start, "view:"+cp.subject)
		return nil, partial, err
	}
	metrics := buildMetrics(st.reader.Costs(), decoder.BytesSkipped(), res)
	stampDuration(metrics, tr, start, "view:"+cp.subject)
	return res, metrics, nil
}

// stampDuration closes the evaluation's tracing context (recording its phase
// and root spans) and stamps wall time plus phase breakdown on the metrics.
// Duration is stamped even without tracing; the breakdown needs the timers.
func stampDuration(m *Metrics, tr *itrace.Context, start time.Time, name string) {
	m.Duration = time.Since(start)
	if tr != nil {
		tr.Finish(name, m.BytesTransferred)
		m.PhaseBreakdown = breakdownFromPhases(tr.Phases())
	}
}

// CompiledView describes one subject's requested view inside a shared scan
// (AuthorizedViewsCompiled): the subject's compiled policy, its per-view
// options (query, dummy names, indentation — everything is per-subject) and
// an optional streaming destination.
type CompiledView struct {
	// Policy is the subject's compiled policy. Required.
	Policy *CompiledPolicy
	// Options tunes this subject's view independently of the other subjects
	// sharing the scan.
	Options ViewOptions
	// Output, when non-nil, receives the subject's authorized view as
	// streamed XML while the shared scan runs (the streaming delivery of
	// StreamAuthorizedViewCompiled). When nil the view is materialized into
	// ViewResult.View (the AuthorizedViewCompiled behaviour).
	Output io.Writer
}

// ViewResult is the per-subject outcome of a shared scan, in AddSubject
// order. A subject whose delivery failed (its Output stopped accepting
// bytes) carries the error here; the other subjects' views are unaffected.
type ViewResult struct {
	// View is the materialized view for requests without an Output writer,
	// non-nil like AuthorizedViewCompiled's (View.IsEmpty reports an empty
	// authorized view); nil when the view was streamed to Output.
	View *Document
	// Metrics describes the evaluation. The per-subject counters
	// (NodesPermitted, NodesDenied, NodesPending, SubtreesSkipped) are
	// identical to a solo evaluation of the same policy; the shared-cost
	// fields (BytesTransferred, BytesDecrypted, BytesSkipped and the derived
	// EstimatedSmartCardSeconds) describe the one shared pass and are the
	// same for every subject — the whole point of sharing the scan.
	Metrics *Metrics
	// Err is the per-subject failure, if any.
	Err error
}

// AuthorizedViewsCompiled evaluates N compiled policies — one per subject —
// over a single decrypt/integrity-check/parse pass of the protected document:
// the shared-scan multicast path. Every subject gets its own automata,
// delivery sink and metrics; the expensive streaming pass (the dominant cost
// of the paper's model) is paid once instead of N times. The Skip index
// degrades to the union of the subjects' needed regions: a subtree is
// physically skipped only when every subject skips it, while per-subject
// accounting still reports what each solo scan would have skipped.
//
// Per-subject output is byte-identical to StreamAuthorizedViewCompiled (or
// AuthorizedViewCompiled when Output is nil) with the same policy and
// options, and the per-subject metric counters are identical; only the
// shared-cost fields differ. One subject's failing writer removes only that
// subject from the scan. internal/server builds GET /view request coalescing
// on top of this entry point.
func (p *Protected) AuthorizedViewsCompiled(key Key, views []CompiledView) ([]ViewResult, error) {
	return runMultiViewPipeline(p.snapshot(), key, views)
}

// multiState bundles the machinery of one shared scan (secure reader plus one
// evaluator per subject), pooled across scans like evalState is for solo
// evaluations.
type multiState struct {
	reader  *secure.Reader
	decoder skipindex.Decoder
	evals   []*core.Evaluator
}

// evaluator returns the i-th pooled evaluator, growing the pool as needed.
func (st *multiState) evaluator(i int) *core.Evaluator {
	for len(st.evals) <= i {
		st.evals = append(st.evals, &core.Evaluator{})
	}
	return st.evals[i]
}

var multiPool = sync.Pool{New: func() any { return &multiState{} }}

// buildMetrics folds the secure-reader costs and the evaluator metrics into
// the public Metrics record, including the smart-card execution estimate.
func buildMetrics(costs secure.Costs, bytesSkipped int64, res *core.Result) *Metrics {
	profile := soe.HardwareSmartCard()
	breakdown := profile.Breakdown(costs.BytesTransferred, costs.BytesDecrypted, costs.BytesHashed,
		res.Metrics.TokenOps+res.Metrics.Events)
	return &Metrics{
		BytesTransferred:          costs.BytesTransferred,
		BytesDecrypted:            costs.BytesDecrypted,
		BytesSkipped:              bytesSkipped,
		SubtreesSkipped:           res.Metrics.SubtreesSkipped,
		NodesPermitted:            res.Metrics.NodesPermitted,
		NodesDenied:               res.Metrics.NodesDenied,
		NodesPending:              res.Metrics.NodesPending,
		EstimatedSmartCardSeconds: breakdown.Total(),
	}
}
