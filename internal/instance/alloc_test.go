package instance

import (
	"fmt"
	"testing"

	"chaseterm/internal/logic"
)

// These tests pin the allocation-free hot paths of the store: dedup
// probes against interned facts, Skolem re-interning, and homomorphism
// search with a caller-owned scratch. If any of them starts allocating
// again, the steady-state chase loop has rotted — fail loudly.

func buildChainInstance(n int) (*Instance, PredID, []TermID) {
	in := New()
	e := in.Pred("e", 2)
	terms := make([]TermID, n)
	for i := range terms {
		terms[i] = in.Terms.Const(fmt.Sprintf("c%d", i))
	}
	for i := 0; i+1 < n; i++ {
		in.Add(e, []TermID{terms[i], terms[i+1]})
	}
	return in, e, terms
}

func TestContainsProbeAllocFree(t *testing.T) {
	in, e, terms := buildChainInstance(64)
	hit := []TermID{terms[3], terms[4]}
	miss := []TermID{terms[4], terms[3]}
	if !in.Contains(e, hit) || in.Contains(e, miss) {
		t.Fatal("setup: unexpected membership")
	}
	if n := testing.AllocsPerRun(200, func() {
		in.Contains(e, hit)
		in.Contains(e, miss)
		in.Lookup(e, hit)
	}); n != 0 {
		t.Errorf("Contains/Lookup probes allocate %v per run, want 0", n)
	}
}

func TestAddExistingFactAllocFree(t *testing.T) {
	in, e, terms := buildChainInstance(64)
	args := []TermID{terms[10], terms[11]}
	if n := testing.AllocsPerRun(200, func() {
		if _, added := in.Add(e, args); added {
			t.Fatal("fact must already exist")
		}
	}); n != 0 {
		t.Errorf("Add of an existing fact allocates %v per run, want 0", n)
	}
}

func TestSkolemReinternAllocFree(t *testing.T) {
	tt := NewTermTable()
	fn := tt.SkolemFn("f0_Z")
	args := []TermID{tt.Const("a"), tt.Const("b")}
	first := tt.Skolem(fn, args)
	if n := testing.AllocsPerRun(200, func() {
		if tt.Skolem(fn, args) != first {
			t.Fatal("re-intern changed identity")
		}
	}); n != 0 {
		t.Errorf("Skolem re-intern allocates %v per run, want 0", n)
	}
}

func TestTupleSetHitAllocFree(t *testing.T) {
	var s TupleSet
	tup := []TermID{1, 2, 3}
	s.Insert(7, tup)
	if n := testing.AllocsPerRun(200, func() {
		if _, added := s.Insert(7, tup); added {
			t.Fatal("tuple must already be present")
		}
		if !s.Contains(7, tup) {
			t.Fatal("tuple must be contained")
		}
	}); n != 0 {
		t.Errorf("TupleSet dedup hit allocates %v per run, want 0", n)
	}
}

func TestFindHomsWithScratchAllocFree(t *testing.T) {
	in, _, _ := buildChainInstance(64)
	pat, err := CompileBody(in, []logic.Atom{
		logic.NewAtom("e", logic.Variable("X"), logic.Variable("Y")),
		logic.NewAtom("e", logic.Variable("Y"), logic.Variable("Z")),
	})
	if err != nil {
		t.Fatal(err)
	}
	var sc MatchScratch
	count := 0
	yield := func([]TermID) bool { count++; return true }
	in.FindHomsWith(&sc, pat, nil, yield) // warm the scratch
	want := count
	if want == 0 {
		t.Fatal("setup: no homomorphisms")
	}
	if n := testing.AllocsPerRun(100, func() {
		count = 0
		in.FindHomsWith(&sc, pat, nil, yield)
		if count != want {
			t.Fatalf("homs: %d, want %d", count, want)
		}
	}); n != 0 {
		t.Errorf("FindHomsWith allocates %v per run, want 0", n)
	}
	initial := []TermID{in.Terms.Const("c5")}
	if n := testing.AllocsPerRun(100, func() {
		if !in.HasHomWith(&sc, pat, initial) {
			t.Fatal("hom must exist")
		}
	}); n != 0 {
		t.Errorf("HasHomWith allocates %v per run, want 0", n)
	}
}

func TestFindHomsAnchoredWithAllocFree(t *testing.T) {
	in, e, terms := buildChainInstance(64)
	pat, err := CompileBody(in, []logic.Atom{
		logic.NewAtom("e", logic.Variable("X"), logic.Variable("Y")),
		logic.NewAtom("e", logic.Variable("Y"), logic.Variable("Z")),
	})
	if err != nil {
		t.Fatal(err)
	}
	anchorFact, ok := in.Lookup(e, []TermID{terms[7], terms[8]})
	if !ok {
		t.Fatal("setup: anchor fact missing")
	}
	var sc MatchScratch
	count := 0
	yield := func([]TermID) bool { count++; return true }
	in.FindHomsAnchoredWith(&sc, pat, 0, anchorFact, yield) // warm the scratch
	want := count
	if want == 0 {
		t.Fatal("setup: no anchored homomorphisms")
	}
	if n := testing.AllocsPerRun(100, func() {
		count = 0
		in.FindHomsAnchoredWith(&sc, pat, 0, anchorFact, yield)
		if count != want {
			t.Fatalf("anchored homs: %d, want %d", count, want)
		}
	}); n != 0 {
		t.Errorf("FindHomsAnchoredWith allocates %v per run, want 0", n)
	}
}

func TestFindHomsRejectsOversizedInitial(t *testing.T) {
	in, _, _ := buildChainInstance(8)
	pat, err := CompileBody(in, []logic.Atom{
		logic.NewAtom("e", logic.Variable("X"), logic.Variable("Y")),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("FindHoms accepted an initial binding longer than NumVars")
		}
	}()
	in.FindHoms(pat, []TermID{0, 1, 2}, func([]TermID) bool { return true })
}

// buildSkolemInstance holds n facts p(c_i, f0_Y(g_Z(c_i))) for the
// rendering pins: every fact carries a nested Skolem term.
func buildSkolemInstance(n int) *Instance {
	in := New()
	p := in.Pred("p", 2)
	f, g := in.Terms.SkolemFn("f0_Y"), in.Terms.SkolemFn("g_Z")
	for i := 0; i < n; i++ {
		c := in.Terms.Const(fmt.Sprintf("c%d", i))
		in.Add(p, []TermID{c, in.Terms.Skolem(f, []TermID{in.Terms.Skolem(g, []TermID{c})})})
	}
	return in
}

func TestAppendFactAllocFree(t *testing.T) {
	in := buildSkolemInstance(4)
	in.Terms.FreshNull(0)
	buf := make([]byte, 0, 256)
	if n := testing.AllocsPerRun(200, func() {
		buf = in.AppendFact(buf[:0], 3)
	}); n != 0 {
		t.Errorf("AppendFact with spare capacity allocates %v per run, want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() {
		buf = in.Terms.AppendTerm(buf[:0], TermID(in.Terms.Len()-1))
	}); n != 0 {
		t.Errorf("AppendTerm of a null allocates %v per run, want 0", n)
	}
}

// renderSink keeps rendered strings escaping, as real callers' do.
var renderSink string

func TestFactStringOneAlloc(t *testing.T) {
	in := buildSkolemInstance(4)
	if n := testing.AllocsPerRun(200, func() {
		renderSink = in.FactString(3)
	}); n != 1 {
		t.Errorf("FactString allocates %v per run, want 1 (the result string)", n)
	}
}

// TestRenderFactsConstantAllocs: rendering a range costs one string
// however many facts it holds, once the caller reuses its scratch and dst.
func TestRenderFactsConstantAllocs(t *testing.T) {
	in := buildSkolemInstance(1024)
	for _, size := range []FactID{256, 1024} {
		var sc RenderScratch
		dst := in.RenderFacts(&sc, nil, 0, size) // grow dst and the scratch
		if n := testing.AllocsPerRun(100, func() {
			dst = in.RenderFacts(&sc, dst[:0], 0, size)
		}); n != 1 {
			t.Errorf("RenderFacts of %d facts allocates %v per run, want 1", size, n)
		}
	}
}
