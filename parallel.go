package xmlac

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"time"

	"xmlac/internal/core"
	"xmlac/internal/secure"
	"xmlac/internal/skipindex"
	itrace "xmlac/internal/trace"
	"xmlac/internal/xmlstream"
)

// Parallel intra-document scan, pipeline side. The Skip index makes one
// document's scan decomposable (skipindex.PlanRegions), core.RunParallel
// keeps every per-subject observable identical to the serial scan, and this
// file wires the two to the secure layer: one planning reader discovers the
// regions, each region worker gets its own secure reader and region decoder
// over the shared immutable ciphertext (secure.Reader is not goroutine-safe;
// the *secure.Protected beneath it is), and per-region trace contexts fork
// from the evaluation's so worker lanes render side by side in the Chrome
// trace view.
//
// The parallel path is attempted only for local documents
// (src is a *secure.Protected) without a query; everything else — and any
// document/policy combination core.RunParallel vetoes — falls back to the
// serial pipeline before a single byte reaches a sink, so callers never
// observe a difference beyond the cost fields documented on
// ViewOptions.Parallelism.

// regionsPerWorker is the planning ratio: the plan carves more regions than
// workers so the greedy byte balancing can absorb skewed subtrees (a worker
// that drew a cheap region picks up another instead of idling).
const regionsPerWorker = 4

// regionState is a region worker's secure reader and decoder, pooled across
// regions and scans like evalState is for serial views.
type regionState struct {
	reader  secure.Reader
	decoder skipindex.Decoder
}

var regionPool = sync.Pool{New: func() any { return &regionState{} }}

// parallelFallback reports whether err means "this evaluation cannot ride
// the parallel scan": the caller falls back to the serial pipeline, which is
// always correct. Fallback errors are guaranteed to surface before any byte
// reaches a view sink, so the serial re-run never duplicates output.
func parallelFallback(err error) bool {
	return errors.Is(err, core.ErrNotParallelizable) || errors.Is(err, skipindex.ErrNotDecomposable)
}

// parallelScanResult carries what the shared side of a parallel scan
// produced: per-subject outcomes plus the pooled costs of the planning
// reader and every region reader, and the phase time charged to the forked
// region contexts.
type parallelScanResult struct {
	outcomes     []core.SubjectOutcome
	stats        core.ParallelStats
	costs        secure.Costs
	regionPhases PhaseBreakdown
}

// parallelScan plans the regions of a local protected document and runs the
// subjects over them concurrently. shared, when non-nil, is the trace
// context the planning reads are charged to and the parent the per-region
// contexts fork from. ctx, when non-nil, cancels the scan between events.
//
// The returned costs are a superset of the serial scan's: the planning reads
// and each region boundary falling inside an integrity chunk re-transfer and
// re-decrypt bytes the serial pass paid for once.
func parallelScan(ctx context.Context, prot *secure.Protected, key Key, workers int, subjects []core.ParallelSubject, shared *itrace.Context) (*parallelScanResult, error) {
	planner, err := secure.NewReader(prot, key)
	if err != nil {
		return nil, err
	}
	if shared != nil {
		planner.SetTrace(shared)
		defer planner.SetTrace(nil)
	}
	plan, err := skipindex.PlanRegions(planner, workers*regionsPerWorker)
	if err != nil {
		return nil, err
	}
	if plan.RegionCount() < 2 {
		return nil, fmt.Errorf("%w: document has a single region", core.ErrNotParallelizable)
	}
	// Each region's reader costs are taken when its scan closes, and its
	// machinery goes back to the pool.
	states := make([]*regionState, plan.RegionCount())
	costs := make([]secure.Costs, plan.RegionCount())
	rctxs := make([]*itrace.Context, plan.RegionCount())
	cfg := core.ParallelConfig{
		Ctx:              ctx,
		Workers:          workers,
		NumRegions:       plan.RegionCount(),
		Prefix:           plan.Prefix(),
		RootName:         plan.RootName(),
		RootDescTags:     plan.RootDescendantTags(),
		RootSkipDistance: plan.RootSkipDistance(),
		OpenRegion: func(r int) (core.RegionScanner, *itrace.Context, error) {
			rs := regionPool.Get().(*regionState)
			if err := rs.reader.Reset(prot, key); err != nil {
				regionPool.Put(rs)
				return nil, nil, err
			}
			if err := rs.decoder.ResetRegion(&rs.reader, plan, r); err != nil {
				regionPool.Put(rs)
				return nil, nil, err
			}
			var rctx *itrace.Context
			if shared != nil {
				rctx = shared.Fork()
				rs.reader.SetTrace(rctx)
				rs.decoder.SetTrace(rctx)
			}
			states[r], rctxs[r] = rs, rctx
			return &rs.decoder, rctx, nil
		},
		CloseRegion: func(r int) {
			rs := states[r]
			costs[r] = rs.reader.Costs()
			if rctxs[r] != nil {
				rctxs[r].Finish("region:"+strconv.Itoa(r), costs[r].BytesTransferred)
			}
			rs.reader.SetTrace(nil)
			rs.decoder.SetTrace(nil)
			states[r] = nil
			regionPool.Put(rs)
		},
	}
	outcomes, stats, err := core.RunParallel(cfg, subjects)
	if err != nil {
		return nil, err
	}
	res := &parallelScanResult{outcomes: outcomes, stats: stats, costs: planner.Costs()}
	for r := range costs {
		res.costs.Add(costs[r])
		if rctxs[r] != nil {
			ph := breakdownFromPhases(rctxs[r].Phases())
			res.regionPhases.Add(&ph)
		}
	}
	return res, nil
}

// runParallelViewPipeline is runViewPipeline's parallel counterpart for one
// subject over a local document. The view (materialized or streamed through
// coreOpts.Sink) is byte-identical to the serial pipeline's and the
// per-subject decision counters are equal; BytesTransferred, BytesDecrypted
// and the derived EstimatedSmartCardSeconds additionally pay the planning
// reads and the region-boundary chunk re-decrypts. A parallelFallback error
// means nothing was delivered and the caller must run the serial pipeline.
func runParallelViewPipeline(ctx context.Context, prot *secure.Protected, key Key, cp *CompiledPolicy, coreOpts core.Options, workers int) (*core.Result, *Metrics, error) {
	start := time.Now()
	tr := coreOpts.Trace
	sc, err := parallelScan(ctx, prot, key, workers, []core.ParallelSubject{{CP: cp.core, Opts: coreOpts}}, tr)
	if err != nil {
		return nil, nil, err
	}
	out := sc.outcomes[0]
	// The public BytesSkipped is the subject's own skip accounting (what its
	// solo serial scan physically skips); region workers only physically skip
	// what every rider skipped, exactly like the shared serial scan.
	metrics := buildMetrics(sc.costs, out.Result.Metrics.BytesSkipped, out.Result)
	metrics.Workers = int64(sc.stats.Workers)
	metrics.Duration = time.Since(start)
	if tr != nil {
		tr.Finish("view:"+cp.subject, metrics.BytesTransferred)
		metrics.PhaseBreakdown = breakdownFromPhases(tr.Phases())
		metrics.PhaseBreakdown.Add(&sc.regionPhases)
	}
	if out.Err != nil {
		return nil, metrics, out.Err
	}
	return out.Result, metrics, nil
}

// multiParallelism decides the worker budget of a shared scan: the largest
// Parallelism any subject asked for. A subject with a query vetoes the
// attempt outright (query scopes anchor predicates at the document root, so
// core.RunParallel would reject it anyway) before the planning cost is paid.
func multiParallelism(views []CompiledView) int {
	workers := 0
	for i := range views {
		if views[i].Options.Query != "" {
			return 0
		}
		if views[i].Options.Parallelism > workers {
			workers = views[i].Options.Parallelism
		}
	}
	return workers
}

// runParallelMultiViewPipeline is runMultiViewPipeline's parallel
// counterpart: the shared scan itself runs region-parallel, and every
// subject rides every region. Per-subject delivery and decision counters
// match the serial multicast scan; the shared-cost fields pay the planning
// and boundary overhead documented on ViewOptions.Parallelism.
func runParallelMultiViewPipeline(prot *secure.Protected, key Key, views []CompiledView, workers int) ([]ViewResult, error) {
	start := time.Now()
	subjects := make([]core.ParallelSubject, len(views))
	writers := make([]*firstByteWriter, len(views))
	ctxs := make([]*itrace.Context, len(views))
	// Like the serial shared scan, the shared machinery (planning reads,
	// region decrypts and decodes) reports into one context owned by the
	// first traced subject; its phases are folded into every traced
	// subject's breakdown as shared costs.
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
		subjects[i] = core.ParallelSubject{CP: views[i].Policy.core, Opts: coreOpts}
	}
	// Shared scans ignore ViewOptions.Context (no single request's context
	// may cancel a scan serving every subject), so the parallel one does too.
	sc, err := parallelScan(nil, prot, key, workers, subjects, shared)
	if err != nil {
		return nil, err
	}
	scanDur := time.Since(start)
	var sharedPhases PhaseBreakdown
	if shared != nil {
		shared.Finish("shared-scan", sc.costs.BytesTransferred)
		sharedPhases = breakdownFromPhases(shared.Phases())
		sharedPhases.Add(&sc.regionPhases)
	}
	results := make([]ViewResult, len(views))
	for i, out := range sc.outcomes {
		if out.Result == nil {
			results[i] = ViewResult{Err: out.Err}
			continue
		}
		metrics := buildMetrics(sc.costs, out.Result.Metrics.BytesSkipped, out.Result)
		metrics.Workers = int64(sc.stats.Workers)
		if writers[i] != nil {
			metrics.TimeToFirstByte = writers[i].ttfb
		}
		metrics.Duration = scanDur
		if ctxs[i] != nil {
			ctxs[i].Finish("view:"+views[i].Policy.subject, sc.costs.BytesTransferred)
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
