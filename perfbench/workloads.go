package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"strconv"
	"strings"

	"chaseterm/api"
	"chaseterm/internal/chase"
	"chaseterm/internal/core"
	"chaseterm/internal/critical"
	"chaseterm/internal/logic"
	"chaseterm/internal/looping"
	"chaseterm/internal/parse"
	"chaseterm/internal/workload"
)

// Routes the benchmark drives.
const (
	routeAnalyze = "/v2/analyze"
	routeStream  = "/v2/chase/stream"
)

// wantKind selects how a response is checked.
type wantKind int

const (
	// wantVerdict: a decide response whose definite verdict must match
	// Verdict.
	wantVerdict wantKind = iota
	// wantSOStream: a chase stream whose facts must reproduce the input's
	// semi-oblivious result size.
	wantSOStream
	// wantRestricted: a counts-only restricted chase that must terminate
	// with a size between |D| and the semi-oblivious result size.
	wantRestricted
)

// want is the arbiter's answer for one request, computed in set-up from
// sources other than the code path under test.
type want struct {
	Kind wantKind
	// Verdict is "terminating" or "non-terminating" (wantVerdict).
	Verdict string
	// DBFacts is |D| after deduplication; SOFacts the size of the
	// semi-oblivious result (initial plus added facts).
	DBFacts int
	SOFacts int
}

// entry is one element of a workload's input pool.
type entry struct {
	Label   string
	Rules   *logic.RuleSet
	Variant string // wire spelling: "so", "o" or "r"
	DB      []logic.Atom
	Want    want
	// text is the rendered rule set with predMarker after every
	// predicate name (decide_cold, which suffixes each request).
	text string
	// body is the request body when every request of the entry is the
	// same (decide_repeat, materialize_*).
	body []byte
}

// request is one generated HTTP request plus its expected answer.
type request struct {
	Path  string
	Body  []byte
	Want  want
	Entry *entry
}

// inputs is everything a workload generates from its seed.
type inputs struct {
	// Pool is the set of distinct inputs the request stream draws from.
	Pool []*entry
	// Next returns the i-th request of the stream; the same seed gives
	// the same stream.
	Next func(i int) request
	// Warm holds warm-up requests, disjoint from the measured keys.
	Warm []request
	// Prepopulate lists the entries whose verdicts are written to the
	// verdict store before the measured run (decide_repeat).
	Prepopulate []*entry
	// Arbiter records the arbiter budgets and margins for the run stamp.
	Arbiter map[string]any
}

// workloadDef names a workload, the server it needs and its generator.
type workloadDef struct {
	Name string
	// TailPercentile is fixed per workload so that both sides of any
	// comparison use the same percentile: the highest step of
	// 99.99/99.9/99/90 that leaves at least ten samples beyond it at this
	// workload's sample count in a 20-second run on a 2-CPU host. A run
	// with fewer than minTailBeyond samples beyond it is not correct.
	TailPercentile float64
	// Store attaches a FileStore to the server.
	Store bool
	Build func(ctx context.Context, seed int64) (*inputs, error)
}

var workloads = []workloadDef{
	{Name: "decide_cold", TailPercentile: 99.9, Build: buildDecideCold},
	{Name: "decide_repeat", TailPercentile: 99.99, Store: true, Build: buildDecideRepeat},
	{Name: "materialize_so", TailPercentile: 99, Build: buildMaterializeSO},
	{Name: "materialize_restricted", TailPercentile: 99, Build: buildMaterializeRestricted},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// predMarker follows every predicate name in an entry's template text;
// no identifier can contain it, so replacing it only renames predicates.
const predMarker = "\x01"

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // the request types always marshal
	}
	return b
}

// oracleVerdict is the bounded critical-instance arbiter of
// internal/core's cross-validation tests: a run that saturates proves
// termination (Marnette's lemma), and a run that exhausts the budget is
// taken as non-termination. maxTerminating tracks the largest saturated
// run, so the stamp shows the margin below the budget.
func oracleVerdict(ctx context.Context, rs *logic.RuleSet, variant string, budget int, maxTerminating *int) (string, error) {
	v, err := chase.ParseVariant(variant)
	if err != nil {
		return "", err
	}
	res, err := critical.OracleContext(ctx, rs, v, chase.Options{MaxTriggers: budget, MaxFacts: budget})
	if err != nil {
		return "", fmt.Errorf("arbiter oracle: %w", err)
	}
	if res.Outcome == chase.Terminated {
		*maxTerminating = max(*maxTerminating, res.Instance.Size())
		return "terminating", nil
	}
	return "non-terminating", nil
}

// withMarker returns the rule set rendered with predMarker after every
// predicate name.
func withMarker(rs *logic.RuleSet) string {
	mark := func(atoms []logic.Atom) []logic.Atom {
		out := make([]logic.Atom, len(atoms))
		for i, a := range atoms {
			out[i] = logic.Atom{Pred: a.Pred + predMarker, Args: a.Args}
		}
		return out
	}
	cp := logic.NewRuleSet()
	for _, r := range rs.Rules {
		cp.Rules = append(cp.Rules, logic.NewTGD(mark(r.Body), mark(r.Head)))
	}
	return cp.String()
}

// family is one fixed point of the paper's scaling experiments with its
// verdict by construction (or from the entailment arbiter for E9).
type family struct {
	label   string
	rules   *logic.RuleSet
	variant string
	verdict string
	// loop, when set, is the entailment instance behind a looped E9
	// point; its verdict comes from looping.EntailedContext.
	loop *looping.Instance
}

// families lists the scaling points of decide_cold. The E6 verdict holds
// by construction (the chain is acyclic unless closed, and a closed chain
// moves the invented value into the frontier forever); E7 is terminating
// for so by construction; E8 consumes one marked guard slot per step, so
// both variants terminate; a looped E9 instance terminates exactly when
// its goal is not entailed.
func families() []family {
	var fs []family
	e6 := func(n int, closed bool, variant string) {
		verdict, shape := "terminating", "open"
		if closed {
			verdict, shape = "non-terminating", "closed"
		}
		fs = append(fs, family{label: fmt.Sprintf("E6/%d/%s", n, shape), rules: workload.SLFamily(n, closed), variant: variant, verdict: verdict})
	}
	e6(8, false, "so")
	e6(8, true, "o")
	e6(64, false, "o")
	e6(64, true, "so")
	e6(512, false, "so")
	e6(512, true, "so")
	for _, w := range []int{2, 4, 6} {
		fs = append(fs, family{label: fmt.Sprintf("E7/%d", w), rules: workload.LinearArityFamily(w), variant: "so", verdict: "terminating"})
	}
	for _, p := range []struct {
		w       int
		variant string
	}{{2, "so"}, {3, "so"}, {3, "o"}, {4, "so"}, {4, "o"}} {
		fs = append(fs, family{label: fmt.Sprintf("E8/%d", p.w), rules: workload.GuardedArityFamily(p.w), variant: p.variant, verdict: "terminating"})
	}
	loop := func(label string, inst looping.Instance, variant string) {
		fs = append(fs, family{label: label, variant: variant, loop: &inst})
	}
	loop("E9/counter2", looping.Counter(2), "so")
	loop("E9/counter3", looping.Counter(3), "o")
	loop("E9/counter4", looping.Counter(4), "so")
	loop("E9/chain16/entailed", looping.Chain(16, true), "so")
	loop("E9/chain16/free", looping.Chain(16, false), "o")
	return fs
}

// Sizes of decide_cold's pool: 40% random linear, 40% random guarded and
// 20% scaling-family points.
const (
	coldPoolSize     = 6000
	coldFamilyShare  = 5 // one slot in five
	coldOracleBudget = 1000
)

// buildDecideCold generates decide_cold. It exists to put the paper's
// deciders in internal/core on the critical path: every request carries
// a rule set the server has never seen (each request renames every
// predicate with its own suffix, which changes the fingerprint but not
// the work), so the verdict cache never hits and each request runs an
// exact decider. Random guarded sets use one-atom heads: with two-atom
// heads single sets take up to seconds, so one set in a seeded pool
// decides the whole run's throughput and no two seeds agree; the fixed
// E8 points carry the guarded decider's exponential growth instead. The
// pool is large so that the one-atom sets' own tail averages out.
func buildDecideCold(ctx context.Context, seed int64) (*inputs, error) {
	rng := rand.New(rand.NewSource(seed))
	fams := families()
	nFam := coldPoolSize / coldFamilyShare
	var pool []*entry
	maxTerm := 0
	nLinear, nGuarded := 0, 0
	for j := 0; j < coldPoolSize-nFam; j++ {
		var e *entry
		if j%2 == 0 {
			e = &entry{Label: "linear", Rules: workload.RandomLinear(rng, workload.Config{NumPreds: 5, MaxArity: 3, NumRules: 8})}
			e.Variant = variantFor(nLinear)
			nLinear++
		} else {
			e = &entry{Label: "guarded", Rules: workload.RandomGuarded(rng, workload.Config{NumPreds: 4, MaxArity: 3, NumRules: 4, MaxHeadAtoms: 1})}
			e.Variant = variantFor(nGuarded)
			nGuarded++
		}
		verdict, err := oracleVerdict(ctx, e.Rules, e.Variant, coldOracleBudget, &maxTerm)
		if err != nil {
			return nil, err
		}
		e.Want = want{Kind: wantVerdict, Verdict: verdict}
		pool = append(pool, e)
	}
	famEntries := make([]*entry, len(fams))
	for i, f := range fams {
		e := &entry{Label: f.label, Rules: f.rules, Variant: f.variant, Want: want{Kind: wantVerdict, Verdict: f.verdict}}
		if f.loop != nil {
			rs, err := looping.Loop(*f.loop)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", f.label, err)
			}
			entailed, err := looping.EntailedContext(ctx, *f.loop, chase.Options{})
			if err != nil {
				return nil, fmt.Errorf("%s: entailment arbiter: %w", f.label, err)
			}
			e.Rules = rs
			e.Want.Verdict = "terminating"
			if entailed {
				e.Want.Verdict = "non-terminating"
			}
		}
		famEntries[i] = e
	}
	for j := 0; j < nFam; j++ {
		pool = append(pool, famEntries[j%len(famEntries)])
	}
	rng.Shuffle(len(pool), func(a, b int) { pool[a], pool[b] = pool[b], pool[a] })
	for _, e := range pool {
		if e.text == "" {
			e.text = withMarker(e.Rules)
		}
	}
	decide := func(e *entry, suffix string) request {
		rules := strings.ReplaceAll(e.text, predMarker, suffix)
		return request{
			Path:  routeAnalyze,
			Body:  mustJSON(api.AnalyzeRequest{Kind: api.KindDecide, Rules: rules, Variant: e.Variant}),
			Want:  e.Want,
			Entry: e,
		}
	}
	in := &inputs{
		Pool: pool,
		Next: func(i int) request { return decide(pool[i%len(pool)], "_r"+strconv.Itoa(i)) },
		Arbiter: map[string]any{
			"oracle_budget":          coldOracleBudget,
			"oracle_max_terminating": maxTerm,
		},
	}
	for i := 0; i < 32; i++ {
		in.Warm = append(in.Warm, decide(pool[i], "_w"+strconv.Itoa(i)))
	}
	return in, nil
}

// variantFor gives the k-th set of a category the oblivious variant one
// time in four: the 3:1 so:o mix.
func variantFor(k int) string {
	if k%4 == 3 {
		return "o"
	}
	return "so"
}

// Shape of decide_repeat's pool. The Zipf exponent has no measured
// source for ontology-editing traffic; the nearest measured request
// streams, web proxy traces (Breslau et al., "Web Caching and Zipf-like
// Distributions", INFOCOM 1999), have exponents 0.64 to 0.83. math/rand's
// Zipf needs s > 1, so s sits just above that floor, the closest to those
// traces it can draw.
const (
	repeatPoolSize     = 64
	repeatPoolSeed     = 1
	repeatOracleBudget = 10000
	repeatZipfS        = 1.01
	repeatSequence     = 1 << 17
)

// buildDecideRepeat generates decide_repeat. It exists to measure the
// service around the deciders on ontology-editing traffic: a small pool
// of rule sets, mostly DL-Lite TBoxes, is requested with a Zipf skew, so
// after each key's first touch every request is a verdict-cache hit and
// the cost is HTTP, JSON, ParseRules and Fingerprint (which dispatch runs
// before the cache lookup), and the cache itself. First touches are
// store-warm for the half of the pool written to the FileStore in set-up
// and climb the portfolio ladder for the rest. The pool comes from a
// fixed generator seed and the run seed draws the key sequence: the
// latency tail is the first touches, so a pool drawn from the run seed
// would make the tail measure the draw, not the program.
func buildDecideRepeat(ctx context.Context, seed int64) (*inputs, error) {
	rng := rand.New(rand.NewSource(repeatPoolSeed))
	maxTerm := 0
	pool := make([]*entry, repeatPoolSize)
	for r := range pool {
		e := &entry{Variant: "so"}
		if r%4 == 1 {
			e.Variant = "o"
		}
		switch {
		case r%16 == 7:
			e.Label = "linear"
			e.Rules = workload.RandomLinear(rng, workload.Config{NumPreds: 5, MaxArity: 3, NumRules: 8})
		case r%16 == 15:
			e.Label = "guarded"
			e.Rules = workload.RandomGuarded(rng, workload.Config{NumPreds: 4, MaxArity: 3, NumRules: 4, MaxHeadAtoms: 1})
		default:
			axioms := 40 + (r*37)%81
			e.Label = "tbox/" + strconv.Itoa(axioms)
			e.Rules = workload.RandomInclusionDependencies(rng, 16, 8, axioms)
		}
		verdict, err := oracleVerdict(ctx, e.Rules, e.Variant, repeatOracleBudget, &maxTerm)
		if err != nil {
			return nil, err
		}
		e.Want = want{Kind: wantVerdict, Verdict: verdict}
		e.body = mustJSON(api.AnalyzeRequest{Kind: api.KindDecide, Rules: e.Rules.String(), Variant: e.Variant, Portfolio: true})
		pool[r] = e
	}
	zipf := rand.NewZipf(rand.New(rand.NewSource(seed)), repeatZipfS, 1, repeatPoolSize-1)
	ranks := make([]uint16, repeatSequence)
	for i := range ranks {
		ranks[i] = uint16(zipf.Uint64())
	}
	in := &inputs{
		Pool: pool,
		Next: func(i int) request {
			e := pool[ranks[i%len(ranks)]]
			return request{Path: routeAnalyze, Body: e.body, Want: e.Want, Entry: e}
		},
		Arbiter: map[string]any{
			"oracle_budget":          repeatOracleBudget,
			"oracle_max_terminating": maxTerm,
		},
	}
	for r := 0; r < repeatPoolSize; r += 2 {
		in.Prepopulate = append(in.Prepopulate, pool[r])
	}
	// Warm-up keys are outside the pool, so the measured run still
	// starts with an empty memory cache for every pool key.
	warm := workload.RandomInclusionDependencies(rng, 16, 8, 40)
	verdict, err := oracleVerdict(ctx, warm, "so", repeatOracleBudget, &maxTerm)
	if err != nil {
		return nil, err
	}
	text := withMarker(warm)
	for i := 0; i < 32; i++ {
		rules := strings.ReplaceAll(text, predMarker, "_w"+strconv.Itoa(i))
		body := mustJSON(api.AnalyzeRequest{Kind: api.KindDecide, Rules: rules, Variant: "so", Portfolio: true})
		in.Warm = append(in.Warm, request{Path: routeAnalyze, Body: body, Want: want{Kind: wantVerdict, Verdict: verdict}})
	}
	in.Arbiter["oracle_max_terminating"] = maxTerm
	return in, nil
}

// Shape of the materialize pool: one input per ABox size. The inputs
// are drawn the way chasebench's scale_ontology input is (the one the
// sizing figures of the materialize workloads were taken on): DL-Lite
// TBoxes from RandomInclusionDependencies with 12 concepts, 6 roles and
// 40 axioms, certified terminating for the semi-oblivious chase by
// core.DecideLinear, over ABoxes on a domain of 300 constants, resampled
// until the semi-oblivious chase of the ABox terminates within
// matChaseBudget facts and adds at least as many facts as the ABox holds.
// The TBoxes come from scale_ontology's fixed seed, so every run
// materializes the same eight ontologies, and the run seed draws their
// ABoxes: random TBoxes of equal size differ by up to tenfold in
// restricted-chase cost, so a pool that drew its TBoxes from the run
// seed would measure the draw, not the program. Data that changes under
// a fixed ontology is also what materialization traffic looks like.
var matSizes = []int{500, 1000, 1500, 2000, 2500, 3000, 3500, 4000}

const (
	matTBoxSeed    = 26
	matDomain      = 300
	matChaseBudget = 120_000
)

// matTBoxes returns one TBox per ABox size, sampled as described above.
func matTBoxes(ctx context.Context) ([]*logic.RuleSet, error) {
	rng := rand.New(rand.NewSource(matTBoxSeed))
	var out []*logic.RuleSet
	for _, n := range matSizes {
		for {
			tbox := workload.RandomInclusionDependencies(rng, 12, 6, 40)
			dec, err := core.DecideLinearContext(ctx, tbox, core.VariantSemiOblivious, core.Options{})
			if err != nil {
				return nil, fmt.Errorf("materialize: certify: %w", err)
			}
			if dec.Verdict.Answer != core.Terminating {
				continue
			}
			so, err := matChase(ctx, matABox(rng, tbox, n), tbox)
			if err != nil {
				return nil, err
			}
			if so.Outcome == chase.Terminated && so.Stats.FactsAdded >= n {
				out = append(out, tbox)
				break
			}
		}
	}
	return out, nil
}

func matABox(rng *rand.Rand, tbox *logic.RuleSet, n int) []logic.Atom {
	return workload.RandomABox(rng, tbox, n, matDomain)
}

// matChase is the semi-oblivious chase of db under tbox within
// matChaseBudget facts and triggers.
func matChase(ctx context.Context, db []logic.Atom, tbox *logic.RuleSet) (*chase.Result, error) {
	res, err := chase.RunFromAtomsContext(ctx, db, tbox, chase.SemiOblivious, chase.Options{MaxFacts: matChaseBudget, MaxTriggers: matChaseBudget})
	if err != nil {
		return nil, fmt.Errorf("materialize: so chase: %w", err)
	}
	return res, nil
}

// buildMaterializePool generates the TBox+ABox inputs shared by both
// materialize workloads, with each input's semi-oblivious result size as
// the arbiter's answer; every such result must pass chase.IsModel.
func buildMaterializePool(ctx context.Context, seed int64) ([]*entry, error) {
	tboxes, err := matTBoxes(ctx)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	pool := make([]*entry, len(tboxes))
	for i, tbox := range tboxes {
		n := matSizes[i]
		db := matABox(rng, tbox, n)
		so, err := matChase(ctx, db, tbox)
		if err != nil {
			return nil, err
		}
		if so.Outcome != chase.Terminated {
			return nil, fmt.Errorf("materialize: input %d did not terminate within %d facts (%v)", i, matChaseBudget, so.Outcome)
		}
		if violation, err := chase.IsModel(so.Instance, tbox); err != nil || violation != "" {
			return nil, fmt.Errorf("materialize: so result of input %d is not a model: %q %v", i, violation, err)
		}
		pool[i] = &entry{
			Label: "abox/" + strconv.Itoa(n),
			Rules: tbox,
			DB:    db,
			Want: want{
				DBFacts: so.Stats.InitialFacts,
				SOFacts: so.Stats.InitialFacts + so.Stats.FactsAdded,
			},
		}
	}
	return pool, nil
}

// materializeInputs cycles the pool in a fixed order.
func materializeInputs(pool []*entry, path, variant string, kind wantKind) *inputs {
	for _, e := range pool {
		e.Variant = variant
		e.Want.Kind = kind
		e.body = mustJSON(api.AnalyzeRequest{
			Kind:     api.KindChase,
			Rules:    e.Rules.String(),
			Database: parse.FormatFacts(e.DB),
			Variant:  variant,
		})
	}
	in := &inputs{
		Pool: pool,
		Next: func(i int) request {
			e := pool[i%len(pool)]
			return request{Path: path, Body: e.body, Want: e.Want, Entry: e}
		},
		Arbiter: map[string]any{
			"certify":      "core.DecideLinear so",
			"chase_budget": matChaseBudget,
		},
	}
	for i := 0; i < 2*len(pool); i++ {
		in.Warm = append(in.Warm, in.Next(i))
	}
	return in
}

// buildMaterializeSO generates materialize_so. It exists to put the chase
// engine's writes (internal/chase apply, internal/instance inserts and
// table growth) and the render-and-stream path on the critical path:
// each request streams the full semi-oblivious result as NDJSON, and the
// mixed ABox sizes vary how often the instance tables grow.
func buildMaterializeSO(ctx context.Context, seed int64) (*inputs, error) {
	pool, err := buildMaterializePool(ctx, seed)
	if err != nil {
		return nil, err
	}
	return materializeInputs(pool, routeStream, "so", wantSOStream), nil
}

// buildMaterializeRestricted generates materialize_restricted. It exists
// to run the same engine on the same inputs the other way: the
// restricted chase replaces many writes by satisfaction checks (HasHom
// reads), and the counts-only response bypasses render and stream, so a
// change that speeds up apply at the cost of reads shows here.
func buildMaterializeRestricted(ctx context.Context, seed int64) (*inputs, error) {
	pool, err := buildMaterializePool(ctx, seed)
	if err != nil {
		return nil, err
	}
	return materializeInputs(pool, routeAnalyze, "r", wantRestricted), nil
}
