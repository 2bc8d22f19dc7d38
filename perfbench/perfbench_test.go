package main

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"chaseterm/api"
	"chaseterm/internal/workload"
)

// streamHead returns the first n requests of a workload's stream,
// path and body concatenated.
func streamHead(t *testing.T, w workloadDef, seed int64, n int) [][]byte {
	t.Helper()
	in, err := w.Build(context.Background(), seed)
	if err != nil {
		t.Fatalf("%s seed %d: %v", w.Name, seed, err)
	}
	out := make([][]byte, n)
	for i := range out {
		r := in.Next(i)
		out[i] = append([]byte(r.Path+"\n"), r.Body...)
	}
	return out
}

func TestSeedDeterminesRequestStream(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.Name, func(t *testing.T) {
			a := streamHead(t, w, 1, 300)
			b := streamHead(t, w, 1, 300)
			c := streamHead(t, w, 2, 300)
			same, differ := true, false
			for i := range a {
				same = same && bytes.Equal(a[i], b[i])
				differ = differ || !bytes.Equal(a[i], c[i])
			}
			if !same {
				t.Error("the same seed gave different request streams")
			}
			if !differ {
				t.Error("seeds 1 and 2 gave the same request stream")
			}
		})
	}
}

// TestFailuresAreCounted feeds the closed loop one wrong expected
// verdict and one truncated stream and checks both count as failures.
func TestFailuresAreCounted(t *testing.T) {
	ctx := context.Background()
	srv := startServer("")
	defer srv.close()
	rules := workload.SLFamily(8, true).String() // non-terminating
	wrong := request{
		Path: routeAnalyze,
		Body: mustJSON(api.AnalyzeRequest{Kind: api.KindDecide, Rules: rules}),
		Want: want{Kind: wantVerdict, Verdict: "terminating"},
	}
	res := closedLoop(ctx, srv.client, srv.http.URL, func(int) request { return wrong }, 100*time.Millisecond)
	if len(res.Failures) == 0 || len(res.Samples) != 0 {
		t.Fatalf("wrong verdict: %d failed, %d counted as answered", len(res.Failures), len(res.Samples))
	}
	if f := res.Failures[0]; !strings.Contains(f, "wrong verdict") {
		t.Errorf("wrong verdict reported as %q", f)
	}

	// A stream cut off after its first facts batch: no done event.
	truncated := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/x-ndjson")
		w.Write([]byte(`{"event":"facts","facts":["p(a)","q(a,z1)"],"stats":{"initialFacts":1,"factsAdded":2}}` + "\n")) //nolint:errcheck // test server
	}))
	defer truncated.Close()
	stream := request{Path: routeStream, Body: []byte(`{}`), Want: want{Kind: wantSOStream, SOFacts: 3}}
	res = closedLoop(ctx, truncated.Client(), truncated.URL, func(int) request { return stream }, 100*time.Millisecond)
	if len(res.Failures) == 0 || len(res.Samples) != 0 {
		t.Fatalf("truncated stream: %d failed, %d counted as answered", len(res.Failures), len(res.Samples))
	}
	if f := res.Failures[0]; !strings.Contains(f, "truncated") {
		t.Errorf("truncated stream reported as %q", f)
	}
}

func TestCountFacts(t *testing.T) {
	for _, c := range []struct {
		line string
		n    int
		ok   bool
	}{
		{`{"event":"facts","facts":["p(a)","q(a,'x,\"y')"],"stats":{}}`, 2, true},
		{`{"event":"facts","facts":[],"stats":{}}`, 0, true},
		{`{"event":"facts","facts":["p(a)"`, 0, false},
		{`{"event":"facts"}`, 0, false},
	} {
		n, ok := countFacts([]byte(c.line))
		if n != c.n || ok != c.ok {
			t.Errorf("countFacts(%s) = %d, %v; want %d, %v", c.line, n, ok, c.n, c.ok)
		}
	}
}
