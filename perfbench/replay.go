package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"time"

	"chaseterm"
	"chaseterm/api"
	"chaseterm/internal/acyclicity"
	"chaseterm/internal/chase"
	"chaseterm/internal/core"
	"chaseterm/internal/critical"
	"chaseterm/internal/instance"
	"chaseterm/internal/logic"
	"chaseterm/internal/parse"
	"chaseterm/internal/portfolio"
	"chaseterm/internal/store"
)

// The traced run replays a workload's request stream with one client.
// Each request is sent over HTTP (with "trace": true on /v2/analyze, so
// the server reports its own split), and then the server-side path is
// replayed by calling each layer's public function directly from this
// file, with a span around every call. Layers a workload's path never
// crosses are probed once per pool entry on the same input, so every
// per-layer metric is measured on every workload; probe spans hang under
// a separate "probe" root and are left out of the per-request shares.

// span is one recorded interval. Spans of one request share Req; Parent
// is the enclosing span, -1 for a root.
type span struct {
	ID     int32              `json:"id"`
	Parent int32              `json:"parent"`
	Req    int                `json:"req"`
	Name   string             `json:"name"`
	Start  int64              `json:"startNs"`
	End    int64              `json:"endNs"`
	Self   int64              `json:"selfNs"`
	Attrs  map[string]float64 `json:"attrs,omitempty"`
}

func (s *span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// recorder keeps spans in memory. A disabled recorder records nothing,
// so the untraced pass makes the same calls without the bookkeeping.
type recorder struct {
	on    bool
	t0    time.Time
	req   int
	spans []span
	open  []int32
}

func (r *recorder) begin(name string) int32 {
	if !r.on {
		return -1
	}
	parent := int32(-1)
	if n := len(r.open); n > 0 {
		parent = r.open[n-1]
	}
	id := int32(len(r.spans))
	r.spans = append(r.spans, span{ID: id, Parent: parent, Req: r.req, Name: name, Start: int64(time.Since(r.t0))})
	r.open = append(r.open, id)
	return id
}

func (r *recorder) end(id int32) {
	if id < 0 {
		return
	}
	r.spans[id].End = int64(time.Since(r.t0))
	r.open = r.open[:len(r.open)-1]
}

func (r *recorder) attr(id int32, key string, v float64) {
	if id < 0 {
		return
	}
	s := &r.spans[id]
	if s.Attrs == nil {
		s.Attrs = map[string]float64{}
	}
	s.Attrs[key] = v
}

// rungNames is the portfolio ladder in order, for per-rung metrics.
var rungNames = portfolio.RungNames()

// rungSpan maps the portfolio's rung names to the layer spans they run.
var rungSpan = map[string]string{
	"rich-acyclicity":     "acyclicity.ra",
	"weak-acyclicity":     "acyclicity.wa",
	"joint-acyclicity":    "acyclicity.ja",
	"mfa":                 "critical.mfa",
	"critical-saturation": "critical.saturation",
	"linear-exact":        "core.linear",
	"guarded-exact":       "core.guarded",
}

// tracedRung records a span around one portfolio rung.
type tracedRung struct {
	portfolio.Decider
	p *replayer
}

func (t tracedRung) DecideContext(ctx context.Context, rs *logic.RuleSet, v core.ChaseVariant, opt portfolio.Options) (portfolio.Verdict, portfolio.Evidence, error) {
	name := rungSpan[t.Name()]
	id := t.p.begin(name)
	verdict, ev, err := t.Decider.DecideContext(ctx, rs, v, opt)
	t.p.rec.end(id)
	t.p.rec.attr(id, "space", float64(ev.SearchSpace))
	return verdict, ev, err
}

// replayer replays one pass.
type replayer struct {
	rec *recorder
	srv *server
	// st is the replay's own FileStore: the server's store is written by
	// the HTTP leg of the same request, so the replay could never miss
	// in it.
	st  store.VerdictStore
	reg *portfolio.Registry
	// seen is the replay's memory cache of decide keys (decide_repeat).
	seen map[string]bool
	// probed marks pool entries whose probes already ran.
	probed map[*entry]bool
	// crossed collects the layers the current request's path crossed.
	crossed map[string]bool
	// layerErrors lists the errors layer calls returned.
	layerErrors []string
}

func newReplayer(rec *recorder, srv *server, st store.VerdictStore) *replayer {
	p := &replayer{rec: rec, srv: srv, st: st, seen: map[string]bool{}, probed: map[*entry]bool{},
		crossed: map[string]bool{}}
	var ds []portfolio.Decider
	for _, d := range portfolio.DefaultRegistry().Deciders() {
		ds = append(ds, tracedRung{Decider: d, p: p})
	}
	p.reg = portfolio.NewRegistry(ds...)
	return p
}

// begin opens a layer span and marks the layer crossed.
func (p *replayer) begin(name string) int32 {
	p.crossed[name] = true
	return p.rec.begin(name)
}

// tracedBody returns the request body with "trace": true.
func (p *replayer) tracedBody(r request) ([]byte, api.AnalyzeRequest, error) {
	var areq api.AnalyzeRequest
	if err := json.Unmarshal(r.Body, &areq); err != nil {
		return nil, areq, err
	}
	if r.Path != routeAnalyze {
		return r.Body, areq, nil
	}
	areq.Trace = true
	b := mustJSON(areq)
	areq.Trace = false
	return b, areq, nil
}

// one replays request i.
func (p *replayer) one(ctx context.Context, i int, r request) (outcome, error) {
	body, areq, err := p.tracedBody(r)
	if err != nil {
		return outcome{}, err
	}
	clear(p.crossed)
	p.rec.req = i
	root := p.rec.begin("request")

	id := p.rec.begin("http")
	reqID := "bench-" + strconv.Itoa(i)
	o := send(ctx, p.srv.client, p.srv.http.URL, request{Path: r.Path, Body: body, Want: r.Want, Entry: r.Entry}, reqID)
	p.rec.end(id)
	wall, _ := p.srv.serverWall(reqID)
	if o.Response != nil && o.Response.Trace != nil {
		tr := o.Response.Trace
		wall = time.Duration(tr.WallMillis * float64(time.Millisecond))
		queued, queue := false, 0.0
		for _, s := range tr.Spans {
			switch s.Name {
			case "decode":
				p.rec.attr(id, "decode_ns", s.Millis*1e6)
			case "queueWait", "singleflightWait":
				queued, queue = true, queue+s.Millis*1e6
			}
		}
		// Only requests that waited for a worker or a flight carry a
		// queue span (a verdict-cache hit never does), so
		// service.queue_us is the median over those that did.
		if queued {
			p.rec.attr(id, "queue_ns", queue)
		}
	}
	p.rec.attr(id, "wall_ns", float64(wall))

	rp := p.rec.begin("replay")
	if r.Path == routeStream {
		// The stream carries no wire trace, so its body decode is
		// replayed the way the handler decodes it.
		id := p.begin("service.decode")
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		err = dec.Decode(new(api.AnalyzeRequest))
		p.rec.end(id)
	}
	var rules *chaseterm.RuleSet
	var res *chase.Result
	if err == nil {
		switch {
		case areq.Kind == api.KindChase:
			rules, res, err = p.replayChase(ctx, r, areq)
		case areq.Portfolio:
			rules, err = p.replayPortfolio(ctx, areq)
		default:
			rules, err = p.replayDecide(ctx, areq)
		}
	}
	p.rec.end(rp)
	if err == nil && !p.probed[r.Entry] {
		p.probed[r.Entry] = true
		pr := p.rec.begin("probe")
		err = p.probe(ctx, r, rules, res, o)
		p.rec.end(pr)
	}
	// A layer that gives up (a search budget, say) is part of the
	// measured behaviour, not a benchmark fault: it is counted and the
	// replay goes on.
	p.rec.end(root)
	if err != nil {
		p.layerErrors = append(p.layerErrors, err.Error())
	}
	return o, nil
}

// coreVariant maps the wire variant of a decide request.
func coreVariant(wire string) core.ChaseVariant {
	if wire == "o" {
		return core.VariantOblivious
	}
	return core.VariantSemiOblivious
}

// front replays the work every request does first: ParseRules, then the
// fingerprint and class the response carries.
func (p *replayer) front(text string) (*chaseterm.RuleSet, string, error) {
	id := p.begin("parse.rules")
	rules, err := chaseterm.ParseRules(text)
	p.rec.end(id)
	if err != nil {
		return nil, "", err
	}
	id = p.begin("facade.fingerprint")
	fp := rules.Fingerprint()
	p.rec.end(id)
	id = p.begin("facade.classify")
	rules.Classify()
	p.rec.end(id)
	return rules, fp, nil
}

// replayDecide replays the default decide route: the dispatch of
// core.DecideContext, one layer call per class.
func (p *replayer) replayDecide(ctx context.Context, areq api.AnalyzeRequest) (*chaseterm.RuleSet, error) {
	rules, _, err := p.front(areq.Rules)
	if err != nil {
		return nil, err
	}
	rs := rules.Internal()
	v := coreVariant(areq.Variant)
	switch class := rs.Classify(); {
	case class == logic.ClassSimpleLinear && len(rs.Constants()) == 0:
		name := "acyclicity.wa"
		if v == core.VariantOblivious {
			name = "acyclicity.ra"
		}
		id := p.begin(name)
		_, err = core.DecideSimpleLinear(rs, v)
		p.rec.end(id)
	case class <= logic.ClassLinear:
		err = p.linear(ctx, rs, v)
	default: // decide_cold sends linear and guarded sets only
		err = p.guarded(ctx, rs, v)
	}
	return rules, err
}

func (p *replayer) linear(ctx context.Context, rs *logic.RuleSet, v core.ChaseVariant) error {
	id := p.begin("core.linear")
	res, err := core.DecideLinearContext(ctx, rs, v, core.Options{})
	p.rec.end(id)
	if err == nil {
		p.rec.attr(id, "space", float64(res.Verdict.ShapeCount))
	}
	return err
}

func (p *replayer) guarded(ctx context.Context, rs *logic.RuleSet, v core.ChaseVariant) error {
	id := p.begin("core.guarded")
	target := rs
	if v == core.VariantOblivious {
		target = critical.AuxTransform(rs)
	}
	res, err := core.DecideGuardedContext(ctx, target, core.Options{})
	p.rec.end(id)
	if err == nil {
		p.rec.attr(id, "space", float64(res.Verdict.NodeTypeCount))
	}
	return err
}

// replayPortfolio replays the portfolio decide route of the service:
// the memory cache, then the store, then the portfolio ladder and the
// write-through.
func (p *replayer) replayPortfolio(ctx context.Context, areq api.AnalyzeRequest) (*chaseterm.RuleSet, error) {
	rules, fp, err := p.front(areq.Rules)
	if err != nil {
		return nil, err
	}
	v := coreVariant(areq.Variant)
	key := "decide|" + fp + "|" + v.String() + "|0|0|p"
	if p.seen[key] {
		return rules, nil
	}
	p.seen[key] = true
	id := p.begin("store.get")
	_, ok, err := p.st.Get(key)
	p.rec.end(id)
	if err != nil || ok {
		return rules, err
	}
	d, err := p.portfolio(ctx, rules.Internal(), v)
	if err != nil {
		return rules, err
	}
	id = p.begin("store.put")
	err = p.st.Put(key, mustJSON(d))
	p.rec.end(id)
	return rules, err
}

// portfolio runs the ladder through the traced registry.
func (p *replayer) portfolio(ctx context.Context, rs *logic.RuleSet, v core.ChaseVariant) (*api.Decision, error) {
	id := p.begin("portfolio.run")
	res, err := portfolio.RunWith(ctx, p.reg, rs, v, portfolio.Options{})
	p.rec.end(id)
	if err != nil {
		return nil, err
	}
	p.rec.attr(id, "rungs", float64(len(res.Rungs)))
	if res.Verdict != portfolio.Undecided {
		p.rec.attr(id, "decided", 1)
		for k, name := range rungNames {
			if name == res.DecidedBy {
				p.rec.attr(id, "decided_by", float64(k))
			}
		}
	}
	return &api.Decision{Terminates: res.Verdict.String(), Method: res.Evidence.Method, DecidedBy: res.DecidedBy}, nil
}

// replayChase replays a chase request: parse, seed, run, and render for
// the streamed semi-oblivious route.
func (p *replayer) replayChase(ctx context.Context, r request, areq api.AnalyzeRequest) (*chaseterm.RuleSet, *chase.Result, error) {
	rules, _, err := p.front(areq.Rules)
	if err != nil {
		return nil, nil, err
	}
	id := p.begin("parse.database")
	_, err = chaseterm.ParseDatabase(areq.Database)
	p.rec.end(id)
	if err != nil {
		return nil, nil, err
	}
	v, err := chase.ParseVariant(r.Entry.Variant)
	if err != nil {
		return nil, nil, err
	}
	res, err := p.chase(ctx, r.Entry.DB, rules.Internal(), v, chase.Options{})
	if err != nil {
		return nil, nil, err
	}
	if r.Path == routeStream {
		id = p.begin("facade.render")
		res.Instance.Strings()
		p.rec.end(id)
	}
	return rules, res, nil
}

// chase seeds an engine over db and runs it.
func (p *replayer) chase(ctx context.Context, db []logic.Atom, rs *logic.RuleSet, v chase.Variant, opt chase.Options) (*chase.Result, error) {
	var before uint64
	if p.rec.on {
		before = heapAlloc()
	}
	id := p.begin("chase.seed")
	in, err := instance.FromAtoms(db)
	var eng *chase.Engine
	if err == nil {
		eng, err = chase.NewEngine(in, rs, v, opt)
	}
	p.rec.end(id)
	if err != nil {
		return nil, err
	}
	id = p.begin("chase.run")
	res, err := eng.RunContext(ctx)
	p.rec.end(id)
	if err != nil {
		return nil, err
	}
	if p.rec.on {
		s := res.Stats
		p.rec.attr(id, "alloc_bytes", float64(heapAlloc()-before))
		p.rec.attr(id, "enqueued", float64(s.TriggersEnqueued))
		p.rec.attr(id, "applied", float64(s.TriggersApplied))
		p.rec.attr(id, "wasted", float64(s.TriggersNoop+s.TriggersSatisfied))
		p.rec.attr(id, "added", float64(s.FactsAdded))
	}
	return res, nil
}

// probeOracleBudget bounds the MFA probe and the critical-instance chase
// probe of decide workloads, whose rule sets may not terminate.
const probeOracleBudget = 2000

// starFacts is the critical instance of rs with a parseable constant in
// place of the critical constant, so it can travel as database text.
func starFacts(rs *logic.RuleSet) []logic.Atom {
	facts := critical.Facts(rs)
	for _, f := range facts {
		for i, t := range f.Args {
			if t == critical.Star {
				f.Args[i] = logic.Constant("star")
			}
		}
	}
	return facts
}

// probe measures, on this request's input, every layer its path did not
// cross.
func (p *replayer) probe(ctx context.Context, r request, rules *chaseterm.RuleSet, res *chase.Result, o outcome) error {
	rs := rules.Internal()
	v := coreVariant(r.Entry.Variant)
	if !p.crossed["portfolio.run"] {
		if _, err := p.portfolio(ctx, rs, v); err != nil {
			return err
		}
	}
	if !p.crossed["acyclicity.wa"] {
		id := p.begin("acyclicity.wa")
		acyclicity.IsWeaklyAcyclic(rs)
		p.rec.end(id)
	}
	if !p.crossed["acyclicity.ja"] {
		id := p.begin("acyclicity.ja")
		acyclicity.IsJointlyAcyclic(rs)
		p.rec.end(id)
	}
	id := p.begin("critical.instance")
	_, err := critical.Instance(rs)
	p.rec.end(id)
	if err != nil {
		return err
	}
	if !p.crossed["critical.mfa"] {
		id := p.begin("critical.mfa")
		_, _, err := critical.MFAContext(ctx, rs, chase.Options{MaxTriggers: probeOracleBudget, MaxFacts: probeOracleBudget})
		p.rec.end(id)
		if err != nil {
			return err
		}
	}
	class := rs.Classify()
	if !p.crossed["core.linear"] && class <= logic.ClassLinear {
		if err := p.linear(ctx, rs, v); err != nil {
			return err
		}
	}
	// The guarded decider is probed on guarded sets and on the small
	// certified-terminating TBoxes of the chase workloads; on linear
	// decide inputs it is not the decider the service runs, and there it
	// takes up to seconds per set.
	chaseInput := r.Entry.DB != nil
	if !p.crossed["core.guarded"] && (class == logic.ClassGuarded || (chaseInput && class < logic.ClassGuarded)) {
		if err := p.guarded(ctx, rs, v); err != nil {
			return err
		}
	}
	if !p.crossed["store.get"] {
		key := "probe|" + rules.Fingerprint() + "|" + r.Entry.Variant
		val := []byte("{}")
		if o.Response != nil {
			val = mustJSON(o.Response)
		}
		id := p.begin("store.put")
		err := p.st.Put(key, val)
		p.rec.end(id)
		if err != nil {
			return err
		}
		id = p.begin("store.get")
		_, _, err = p.st.Get(key)
		p.rec.end(id)
		if err != nil {
			return err
		}
	}
	if res == nil {
		// Decide workloads: the chase layers on the critical instance.
		db := starFacts(rs)
		id := p.begin("parse.database")
		_, err := chaseterm.ParseDatabase(parse.FormatFacts(db))
		p.rec.end(id)
		if err != nil {
			return err
		}
		v, err := chase.ParseVariant(r.Entry.Variant)
		if err != nil {
			return err
		}
		res, err = p.chase(ctx, db, rs, v, chase.Options{MaxTriggers: probeOracleBudget, MaxFacts: probeOracleBudget})
		if err != nil {
			return err
		}
	}
	// Only a saturated run is rendered: a budget-stopped run of a
	// non-terminating set holds Skolem terms nested hundreds deep, whose
	// rendering grows exponentially with the depth.
	if !p.crossed["facade.render"] && res.Outcome == chase.Terminated {
		id := p.begin("facade.render")
		res.Instance.Strings()
		p.rec.end(id)
	}
	return p.instanceProbes(res.Instance, rs)
}

// maxHomProbes caps the satisfaction probes replayed per instance.
const maxHomProbes = 5000

// instanceProbes times instance.Add (re-adding every fact into a fresh
// instance), Contains (a hit probe per fact) and HasHom (the restricted
// chase's satisfaction check, replayed for body matches of every rule),
// each as the mean of one timed batch.
func (p *replayer) instanceProbes(in *instance.Instance, rs *logic.RuleSet) error {
	dst := instance.New()
	terms := map[instance.TermID]instance.TermID{}
	var clone func(t instance.TermID) instance.TermID
	clone = func(t instance.TermID) instance.TermID {
		if c, ok := terms[t]; ok {
			return c
		}
		var c instance.TermID
		switch in.Terms.Kind(t) {
		case instance.KindConst:
			c = dst.Terms.Const(in.Terms.Name(t))
		case instance.KindSkolem:
			src := in.Terms.SkolemArgs(t)
			args := make([]instance.TermID, len(src))
			for i, a := range src {
				args[i] = clone(a)
			}
			c = dst.Terms.Skolem(dst.Terms.SkolemFn(in.Terms.Name(t)), args)
		default:
			c = dst.Terms.FreshNull(in.Terms.Depth(t))
		}
		terms[t] = c
		return c
	}
	n := in.Size()
	preds := make([]instance.PredID, n)
	args := make([][]instance.TermID, n)
	for i := 0; i < n; i++ {
		f := in.Fact(instance.FactID(i))
		preds[i] = dst.Pred(in.PredName(f.Pred), in.PredArity(f.Pred))
		args[i] = make([]instance.TermID, len(f.Args))
		for j, a := range f.Args {
			args[i][j] = clone(a)
		}
	}
	id := p.begin("instance.add")
	for i := 0; i < n; i++ {
		dst.Add(preds[i], args[i])
	}
	p.rec.end(id)
	p.perCall(id, n)

	id = p.begin("instance.contains")
	for i := 0; i < n; i++ {
		f := in.Fact(instance.FactID(i))
		in.Contains(f.Pred, f.Args)
	}
	p.rec.end(id)
	p.perCall(id, n)

	type probeCase struct {
		head *instance.Pattern
		fr   []instance.TermID
	}
	var cases []probeCase
	for _, rule := range rs.Rules {
		body, err := instance.CompileBody(in, rule.Body)
		if err != nil {
			return err
		}
		frontier := rule.Frontier()
		head, err := (*instance.PatternSet)(nil).Compile(in, rule.Head, frontier)
		if err != nil {
			return err
		}
		idx := make([]int, len(frontier))
		for i, v := range frontier {
			idx[i] = body.VarIndex(v)
		}
		in.FindHoms(body, nil, func(b []instance.TermID) bool {
			fr := make([]instance.TermID, len(idx))
			for i, k := range idx {
				fr[i] = b[k]
			}
			cases = append(cases, probeCase{head, fr})
			return len(cases) < maxHomProbes
		})
		if len(cases) >= maxHomProbes {
			break
		}
	}
	id = p.begin("instance.hashom")
	for _, c := range cases {
		in.HasHom(c.head, c.fr)
	}
	p.rec.end(id)
	p.perCall(id, len(cases))
	return nil
}

// perCall stores a batch span's mean time per call.
func (p *replayer) perCall(id int32, n int) {
	if id >= 0 && n > 0 {
		p.rec.attr(id, "calls", float64(n))
		p.rec.attr(id, "per_call_ns", float64(p.rec.spans[id].dur())/float64(n))
	}
}

// passResult is one replay pass.
type passResult struct {
	requests    int
	elapsed     time.Duration
	failures    []string
	layerErrors []string
	snap        serviceSnapshot
}

// serviceSnapshot is what the traced run reads from the engine's
// counters after the pass.
type serviceSnapshot struct {
	cacheHitShare, storeHitShare float64
	queueP50, execP50            float64 // ms, over the engine's last 1024 requests
}

// replayPass runs one replay pass over a fresh server and replay store.
func replayPass(ctx context.Context, w workloadDef, in *inputs, dir string, rec *recorder, dur time.Duration) (passResult, error) {
	srv, err := startServerFor(ctx, w, in, dir)
	if err != nil {
		return passResult{}, err
	}
	defer srv.close()
	st, err := store.Open(filepath.Join(dir, "replay.db"), store.Options{Fsync: store.FsyncInterval})
	if err != nil {
		return passResult{}, err
	}
	defer st.Close() //nolint:errcheck // scratch store, removed after the run
	p := newReplayer(rec, srv, st)
	for _, e := range in.Prepopulate {
		var areq api.AnalyzeRequest
		if err := json.Unmarshal(e.body, &areq); err != nil {
			return passResult{}, err
		}
		rules, err := chaseterm.ParseRules(areq.Rules)
		if err != nil {
			return passResult{}, err
		}
		v := coreVariant(areq.Variant)
		res, err := portfolio.Run(ctx, rules.Internal(), v, portfolio.Options{})
		if err != nil {
			return passResult{}, err
		}
		key := "decide|" + rules.Fingerprint() + "|" + v.String() + "|0|0|p"
		if err := st.Put(key, mustJSON(api.Decision{Terminates: res.Verdict.String(), DecidedBy: res.DecidedBy})); err != nil {
			return passResult{}, err
		}
	}
	// The hit shares count the pass only, not the warm-up.
	warm := srv.eng.StatsSnapshot()
	runtime.GC()
	var pr passResult
	start := time.Now()
	rec.t0 = start
	for i := 0; time.Since(start) < dur; i++ {
		o, err := p.one(ctx, i, in.Next(i))
		if err != nil {
			return pr, fmt.Errorf("replay of request %d: %w", i, err)
		}
		if o.Fail != "" {
			pr.failures = append(pr.failures, o.Fail)
		}
		pr.requests++
	}
	pr.elapsed = time.Since(start)
	pr.layerErrors = p.layerErrors
	snap := srv.eng.StatsSnapshot()
	hits, misses := snap.CacheHits-warm.CacheHits, snap.CacheMisses-warm.CacheMisses
	storeHits, storeMisses := snap.StoreHits-warm.StoreHits, snap.StoreMisses-warm.StoreMisses
	pr.snap = serviceSnapshot{
		cacheHitShare: ratio(float64(hits), float64(hits+misses)),
		storeHitShare: ratio(float64(storeHits), float64(storeHits+storeMisses)),
		queueP50:      snap.QueueP50Millis,
		execP50:       snap.ExecP50Millis,
	}
	return pr, nil
}

// replay runs the untraced and the traced pass, half the run each, and
// derives the per-layer metrics from the traced pass's spans.
func replay(ctx context.Context, w workloadDef, seed int64, dur time.Duration, scratch, prefix string, st *stamp) ([]metric, int, []string, error) {
	in, err := w.Build(ctx, seed)
	if err != nil {
		return nil, 0, nil, err
	}
	st.Arbiter = in.Arbiter
	dirA, err := os.MkdirTemp(scratch, "untraced-")
	if err != nil {
		return nil, 0, nil, err
	}
	untraced, err := replayPass(ctx, w, in, dirA, &recorder{}, dur/2)
	if err != nil {
		return nil, 0, nil, err
	}
	dirB, err := os.MkdirTemp(scratch, "traced-")
	if err != nil {
		return nil, 0, nil, err
	}
	rec := &recorder{on: true}
	traced, err := replayPass(ctx, w, in, dirB, rec, dur/2)
	if err != nil {
		return nil, 0, nil, err
	}
	computeSelf(rec.spans)
	st.Samples = traced.requests

	metrics := layerMetrics(w, rec.spans, traced.snap)
	untracedRPS := float64(untraced.requests) / untraced.elapsed.Seconds()
	tracedRPS := float64(traced.requests) / traced.elapsed.Seconds()
	metrics = append(metrics,
		metric{Name: "trace.overhead_share", Value: 1 - tracedRPS/untracedRPS, Unit: "ratio"},
		metric{Name: "trace.replay_rps", Value: tracedRPS, Unit: "1/s"},
		metric{Name: "trace.spans", Value: float64(len(rec.spans)), Unit: "count", printOnly: true},
	)
	shares := layerShares(rec.spans)
	if err := writeSpans(prefix+"-spans.jsonl", rec.spans); err != nil {
		return nil, 0, nil, err
	}
	if err := writeJSON(prefix+"-layers.json", map[string]any{"stamp": st, "metrics": metrics, "shares": shares,
		"layerErrors": tally(traced.layerErrors)}); err != nil {
		return nil, 0, nil, err
	}
	failures := append(untraced.failures, traced.failures...)
	return metrics, untraced.requests + traced.requests, failures, nil
}

// computeSelf sets each span's self time: its duration minus the time
// its children cover (children of one span never overlap).
func computeSelf(spans []span) {
	for i := range spans {
		spans[i].Self = spans[i].End - spans[i].Start
	}
	for i := range spans {
		if p := spans[i].Parent; p >= 0 {
			spans[p].Self -= spans[i].End - spans[i].Start
		}
	}
}

// layerMetric describes how a per-layer metric is derived from spans.
type layerMetric struct {
	name, unit string
	span       string
	// value of one span; nil means the span's duration in unit.
	value func(s *span) (float64, bool)
}

func durIn(unit string) func(s *span) (float64, bool) {
	scale := map[string]float64{"ns": 1, "us": 1e3, "ms": 1e6}[unit]
	return func(s *span) (float64, bool) { return float64(s.dur()) / scale, true }
}

func attrIn(key string, scale float64) func(s *span) (float64, bool) {
	return func(s *span) (float64, bool) {
		v, ok := s.Attrs[key]
		return v / scale, ok
	}
}

// layerMetrics derives every per-layer metric of the traced pass: time
// metrics are medians per call.
func layerMetrics(w workloadDef, spans []span, snap serviceSnapshot) []metric {
	byName := map[string][]*span{}
	for i := range spans {
		byName[spans[i].Name] = append(byName[spans[i].Name], &spans[i])
	}
	med := func(name string, f func(s *span) (float64, bool)) float64 {
		var xs []float64
		for _, s := range byName[name] {
			if v, ok := f(s); ok {
				xs = append(xs, v)
			}
		}
		return median(xs)
	}
	sum := func(name, key string) float64 {
		t := 0.0
		for _, s := range byName[name] {
			t += s.Attrs[key]
		}
		return t
	}
	transport := func(s *span) (float64, bool) {
		wall, ok := s.Attrs["wall_ns"]
		return (float64(s.dur()) - wall) / 1e3, ok && wall > 0
	}
	decode, queue := med("http", attrIn("decode_ns", 1e3)), med("http", attrIn("queue_ns", 1e3))
	exec := med("http", func(s *span) (float64, bool) {
		d, ok := s.Attrs["decode_ns"]
		return (s.Attrs["wall_ns"] - d - s.Attrs["queue_ns"]) / 1e3, ok
	})
	if w.Name == "materialize_so" {
		// The stream carries no wire trace: the body decode is replayed
		// directly, and queue and exec come from the engine's own
		// latency windows.
		decode, queue, exec = med("service.decode", durIn("us")), snap.queueP50*1e3, snap.execP50*1e3
	}
	out := []metric{
		{Name: "http.transport_us", Value: med("http", transport), Unit: "us"},
		{Name: "service.decode_us", Value: decode, Unit: "us"},
		{Name: "service.queue_us", Value: queue, Unit: "us"},
		{Name: "service.exec_us", Value: exec, Unit: "us"},
		{Name: "service.cache_hit_share", Value: snap.cacheHitShare, Unit: "ratio"},
		{Name: "service.store_hit_share", Value: snap.storeHitShare, Unit: "ratio"},
	}
	for _, lm := range []layerMetric{
		{"store.get_us", "us", "store.get", nil},
		{"store.put_us", "us", "store.put", nil},
		{"parse.rules_us", "us", "parse.rules", nil},
		{"parse.database_ms", "ms", "parse.database", nil},
		{"facade.fingerprint_us", "us", "facade.fingerprint", nil},
		{"facade.classify_us", "us", "facade.classify", nil},
		{"facade.render_ms", "ms", "facade.render", nil},
		{"portfolio.run_us", "us", "portfolio.run", nil},
		{"acyclicity.wa_us", "us", "acyclicity.wa", nil},
		{"acyclicity.ja_us", "us", "acyclicity.ja", nil},
		{"core.linear_us", "us", "core.linear", nil},
		{"core.linear_shapes", "count", "core.linear", attrIn("space", 1)},
		{"core.guarded_us", "us", "core.guarded", nil},
		{"core.guarded_node_types", "count", "core.guarded", attrIn("space", 1)},
		{"critical.instance_us", "us", "critical.instance", nil},
		{"critical.mfa_us", "us", "critical.mfa", nil},
		{"chase.seed_ms", "ms", "chase.seed", nil},
		{"chase.run_ms", "ms", "chase.run", nil},
		{"chase.triggers_enqueued", "count", "chase.run", attrIn("enqueued", 1)},
		{"chase.triggers_applied", "count", "chase.run", attrIn("applied", 1)},
		{"chase.facts_added", "count", "chase.run", attrIn("added", 1)},
		{"chase.alloc_mb", "MB", "chase.run", attrIn("alloc_bytes", 1e6)},
		{"instance.add_ns", "ns", "instance.add", attrIn("per_call_ns", 1)},
		{"instance.contains_ns", "ns", "instance.contains", attrIn("per_call_ns", 1)},
		{"instance.hashom_us", "us", "instance.hashom", attrIn("per_call_ns", 1e3)},
	} {
		f := lm.value
		if f == nil {
			f = durIn(lm.unit)
		}
		out = append(out, metric{Name: lm.name, Value: med(lm.span, f), Unit: lm.unit})
	}
	out = append(out,
		metric{Name: "chase.wasted_share", Value: ratio(sum("chase.run", "wasted"), sum("chase.run", "enqueued")), Unit: "ratio"},
		metric{Name: "portfolio.rungs_per_decision", Value: ratio(sum("portfolio.run", "rungs"), sum("portfolio.run", "decided")), Unit: "ratio"})
	runs := byName["portfolio.run"]
	for k, rung := range rungNames {
		n := 0
		for _, s := range runs {
			if v, ok := s.Attrs["decided_by"]; ok && int(v) == k {
				n++
			}
		}
		out = append(out, metric{Name: "portfolio.decided_by_share." + rung, Value: ratio(float64(n), float64(len(runs))), Unit: "ratio"})
	}
	return out
}

func ratio(n, d float64) float64 {
	if d == 0 {
		return 0
	}
	return n / d
}

// layerShare is one layer's share of a request's time on the workload's
// own path.
type layerShare struct {
	Layer  string  `json:"layer"`
	MeanUs float64 `json:"meanSelfUs"`
	Share  float64 `json:"share"`
}

// layerShares splits the mean client-observed request time into
// transport, the server-side split from the wire trace, and the self
// time of every layer the replay of the path crossed. "service.other"
// is what the server spent outside the replayed layer calls: routing,
// encoding the response, the cache. Probe spans are excluded.
func layerShares(spans []span) []layerShare {
	var reqs float64
	total := map[string]float64{}
	replayTotal, wall, decode, queue, httpTotal := 0.0, 0.0, 0.0, 0.0, 0.0
	inProbe := map[int32]bool{}
	for i := range spans {
		s := &spans[i]
		if s.Name == "probe" || (s.Parent >= 0 && inProbe[s.Parent]) {
			inProbe[s.ID] = true
			continue
		}
		switch s.Name {
		case "request":
			reqs++
		case "http":
			httpTotal += float64(s.dur())
			wall += s.Attrs["wall_ns"]
			decode += s.Attrs["decode_ns"]
			queue += s.Attrs["queue_ns"]
		case "replay":
			replayTotal += float64(s.dur())
		default:
			total[s.Name] += float64(s.Self)
		}
	}
	if reqs == 0 || httpTotal == 0 {
		return nil
	}
	// The wire trace's decode and queue join the replayed decode span of
	// the stream under the same names.
	total["service.decode"] += decode
	total["service.queue"] += queue
	out := []layerShare{
		{Layer: "http.transport", MeanUs: (httpTotal - wall) / reqs / 1e3},
		{Layer: "service.other", MeanUs: (wall - decode - queue - replayTotal) / reqs / 1e3},
	}
	names := make([]string, 0, len(total))
	for name := range total {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		out = append(out, layerShare{Layer: name, MeanUs: total[name] / reqs / 1e3})
	}
	for i := range out {
		out[i].Share = out[i].MeanUs * 1e3 * reqs / httpTotal
	}
	return out
}

// writeSpans writes the spans as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
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
