package chaseterm

import (
	"chaseterm/internal/chase"
	"chaseterm/internal/instance"
)

// ChaseSink receives the facts of an AnalyzeChase run incrementally,
// instead of (or in addition to) the one-shot ChaseResult. Attach one
// with WithChaseSink; the analysis service uses this to stream chase
// results over HTTP as they are derived, so an instance far larger than
// any reasonable response body can still be served.
//
// Both callbacks run synchronously on the chase goroutine: a slow sink
// slows the run (which is the intended backpressure — the engine never
// derives unboundedly far ahead of the consumer), and implementations
// must not call back into the library.
type ChaseSink interface {
	// EmitFacts delivers a batch of newly derived facts, rendered in the
	// library's surface syntax (e.g. "hasFather(bob,f0_Y(bob))"), in
	// derivation order and without duplicates. The slice is reused
	// between calls: copy it if the sink retains facts past the call.
	// The strings themselves stay valid, but all strings of one batch
	// share one backing string, so a sink that keeps one fact keeps its
	// whole batch's text alive; keep strings.Clone(fact) to hold less.
	// stats is the running total at emission time.
	EmitFacts(facts []string, stats ChaseStats)
	// Progress is a liveness heartbeat delivered between batches (every
	// ~1024 scheduler steps), covering stretches where the run is busy
	// but deriving nothing — e.g. a restricted chase skipping satisfied
	// triggers.
	Progress(stats ChaseStats)
}

// streamBatchSize bounds the fact batches handed to a ChaseSink. Large
// enough to amortize the per-batch delivery cost (a JSON event on the
// service's wire), small enough that the first facts of a run reach the
// consumer promptly.
const streamBatchSize = 256

// sinkAdapter bridges the engine-level chase.StreamSink (FactID ranges
// over the live instance) to the public ChaseSink (rendered batches). The
// engine's ranges tile the derived suffix in order, so the adapter only
// extends the pending range [lo, hi) and renders it in one RenderFacts
// call when a batch of streamBatchSize facts is due or a flush is forced.
type sinkAdapter struct {
	in     *instance.Instance
	sink   ChaseSink
	lo, hi instance.FactID
	buf    []string
	render instance.RenderScratch
}

func (a *sinkAdapter) EmitFacts(lo, hi instance.FactID, stats chase.Stats) {
	if a.lo == a.hi {
		a.lo = lo
	}
	a.hi = hi
	if a.hi-a.lo >= streamBatchSize {
		a.flush(stats)
	}
}

func (a *sinkAdapter) Progress(stats chase.Stats) {
	// Flush the partial batch first so the heartbeat never overtakes
	// facts that were derived before it.
	a.flush(stats)
	a.sink.Progress(toChaseStats(stats))
}

// flush renders the pending range and hands it to the sink as one batch,
// recycling the batch slice.
func (a *sinkAdapter) flush(stats chase.Stats) {
	if a.lo == a.hi {
		return
	}
	a.buf = a.in.RenderFacts(&a.render, a.buf[:0], a.lo, a.hi)
	a.lo = a.hi
	a.sink.EmitFacts(a.buf, toChaseStats(stats))
}

func toChaseStats(s chase.Stats) ChaseStats {
	return ChaseStats{
		InitialFacts:      s.InitialFacts,
		FactsAdded:        s.FactsAdded,
		TriggersApplied:   s.TriggersApplied,
		TriggersNoop:      s.TriggersNoop,
		TriggersSatisfied: s.TriggersSatisfied,
		MaxTermDepth:      int(s.MaxTermDepth),
	}
}
