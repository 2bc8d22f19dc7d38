package instance

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
)

// refTermString and refFactString are the straightforward renderers the
// append-style ones replaced, kept as the oracle: a string per sub-term,
// strings.Join, and fmt.Sprintf for nulls.
func refTermString(t *TermTable, id TermID) string {
	in := t.infos[id]
	switch in.kind {
	case KindConst:
		return in.name
	case KindNull:
		return fmt.Sprintf("z%d", in.aux)
	default:
		parts := make([]string, len(in.args))
		for i, a := range in.args {
			parts[i] = refTermString(t, a)
		}
		return t.fnNames[in.aux] + "(" + strings.Join(parts, ",") + ")"
	}
}

func refFactString(in *Instance, id FactID) string {
	f := in.facts[id]
	if len(f.Args) == 0 {
		return in.predNames[f.Pred]
	}
	parts := make([]string, len(f.Args))
	for i, a := range f.Args {
		parts[i] = refTermString(in.Terms, a)
	}
	return in.predNames[f.Pred] + "(" + strings.Join(parts, ",") + ")"
}

// randomRenderInstance builds an instance mixing every term shape the
// renderers handle: constants (multi-byte names included), nulls, Skolem
// terms with zero arguments and Skolem terms nested at least four deep,
// over predicates of arity 0 to 3.
func randomRenderInstance(seed int64) *Instance {
	rng := rand.New(rand.NewSource(seed))
	in := New()
	tt := in.Terms
	terms := []TermID{tt.Const("zürich"), tt.Const("日本"), tt.Const("a")}
	for i := 0; i < 6; i++ {
		terms = append(terms, tt.Const(fmt.Sprintf("c%d", rng.Intn(1000))))
	}
	for i := 0; i < 4; i++ {
		terms = append(terms, tt.FreshNull(int32(i)))
	}
	fns := []SkolemFnID{tt.SkolemFn("f0_Y"), tt.SkolemFn("f1_Z"), tt.SkolemFn("g_V"), tt.SkolemFn("k")}
	terms = append(terms, tt.Skolem(fns[3], nil))
	// A guaranteed chain f0_Y(f1_Z(...)) five deep, then random nesting.
	deep := terms[0]
	for d := 0; d < 5; d++ {
		deep = tt.Skolem(fns[d%2], []TermID{deep, terms[3+d]})
	}
	terms = append(terms, deep)
	for i := 0; i < 40; i++ {
		args := make([]TermID, rng.Intn(4))
		for j := range args {
			args[j] = terms[rng.Intn(len(terms))]
		}
		terms = append(terms, tt.Skolem(fns[rng.Intn(len(fns))], args))
	}
	preds := []PredID{in.Pred("ok", 0), in.Pred("p", 1), in.Pred("edge", 2), in.Pred("r3", 3)}
	arity := []int{0, 1, 2, 3}
	in.Add(preds[0], nil)
	in.Add(preds[1], []TermID{deep})
	for i := 0; i < 300; i++ {
		k := rng.Intn(len(preds))
		args := make([]TermID, arity[k])
		for j := range args {
			args[j] = terms[rng.Intn(len(terms))]
		}
		in.Add(preds[k], args)
	}
	return in
}

// TestRenderMatchesReference: AppendTerm, AppendFact, String, FactString,
// RenderFacts, Strings and a null's Name all reproduce the reference
// renderer byte for byte on random instances.
func TestRenderMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		in := randomRenderInstance(seed)
		tt := in.Terms
		maxDepth := int32(0)
		for id := TermID(0); int(id) < tt.Len(); id++ {
			want := refTermString(tt, id)
			if got := tt.String(id); got != want {
				t.Fatalf("seed %d: String(%d) = %q, want %q", seed, id, got, want)
			}
			if got := string(tt.AppendTerm([]byte("<"), id)); got != "<"+want {
				t.Fatalf("seed %d: AppendTerm(%d) = %q, want %q", seed, id, got, "<"+want)
			}
			if got := tt.Name(id); tt.Kind(id) == KindNull && got != want {
				t.Fatalf("seed %d: Name(%d) = %q, want %q", seed, id, got, want)
			}
			if d := tt.Depth(id); tt.Kind(id) == KindSkolem && d > maxDepth {
				maxDepth = d
			}
		}
		if maxDepth < 4 {
			t.Fatalf("seed %d: deepest Skolem term has depth %d, want ≥4", seed, maxDepth)
		}
		n := FactID(in.Size())
		want := make([]string, n)
		for id := FactID(0); id < n; id++ {
			want[id] = refFactString(in, id)
			if got := in.FactString(id); got != want[id] {
				t.Fatalf("seed %d: FactString(%d) = %q, want %q", seed, id, got, want[id])
			}
			if got := string(in.AppendFact([]byte("<"), id)); got != "<"+want[id] {
				t.Fatalf("seed %d: AppendFact(%d) = %q, want %q", seed, id, got, "<"+want[id])
			}
		}
		rng := rand.New(rand.NewSource(seed))
		var sc RenderScratch
		for k := 0; k < 20; k++ {
			lo := FactID(rng.Intn(int(n) + 1))
			hi := lo + FactID(rng.Intn(int(n-lo)+1))
			got := in.RenderFacts(&sc, []string{"keep"}, lo, hi)
			if len(got) != 1+int(hi-lo) || got[0] != "keep" {
				t.Fatalf("seed %d: RenderFacts(%d, %d) returned %d entries", seed, lo, hi, len(got))
			}
			for i, s := range got[1:] {
				if s != want[lo+FactID(i)] {
					t.Fatalf("seed %d: RenderFacts(%d, %d)[%d] = %q, want %q", seed, lo, hi, i, s, want[lo+FactID(i)])
				}
			}
		}
		sorted := append([]string(nil), want...)
		sort.Strings(sorted)
		if got := in.Strings(); strings.Join(got, "\n") != strings.Join(sorted, "\n") {
			t.Fatalf("seed %d: Strings differs from the sorted reference", seed)
		}
	}
}
