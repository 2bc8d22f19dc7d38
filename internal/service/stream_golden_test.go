package service

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateStreamGolden = flag.Bool("update", false,
	"rewrite testdata/stream_so.ndjson (only for an intended wire change: the file pins the rendered bytes)")

// streamGoldenRequest is a semi-oblivious chase whose stream exercises
// every rendering shape: Skolem terms nested four deep (e), a two-argument
// Skolem term over nested arguments (w), a zero-argument Skolem term (k),
// a 0-ary predicate (ok), and multi-byte constant names. It derives far
// more than one 256-fact batch, and needs more than 1024 scheduler steps,
// so a mid-run progress event cuts a partial batch.
func streamGoldenRequest() string {
	var db strings.Builder
	for i := 1; i <= 240; i++ {
		fmt.Fprintf(&db, "a(c%d). ", i)
	}
	db.WriteString("a('zürich'). a(日本).")
	return fmt.Sprintf(`{"rules": %q, "database": %q, "variant": "so"}`,
		"a(X) -> r(X,Y), b(Y). b(X) -> s(X,Y), c(Y). c(X) -> t(X,Y), d(Y). "+
			"d(X) -> u(X,Y), e(Y). r(X,Y), s(Y,Z) -> w(X,Z,V). a(X) -> k(Y). e(X) -> ok.",
		db.String())
}

// TestStreamWireGolden pins the full body of POST /v2/chase/stream byte
// for byte: fact rendering, batch boundaries, progress events and the
// final statistics. The fixture was recorded with the strings.Join
// renderer that predates the append-style one, so a pass proves the
// wire output did not change.
func TestStreamWireGolden(t *testing.T) {
	srv := newTestServer(t, Options{Workers: 1})
	resp, err := http.Post(srv.URL+"/v2/chase/stream", "application/json", strings.NewReader(streamGoldenRequest()))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	got, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, got)
	}
	path := filepath.Join("testdata", "stream_so.ndjson")
	if *updateStreamGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing fixture (run with -update to generate): %v", err)
	}
	if !bytes.Equal(got, want) {
		gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if !bytes.Equal(gl[i], wl[i]) {
				t.Fatalf("stream differs from %s at line %d:\n got: %.300s\nwant: %.300s", path, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("stream has %d lines, %s has %d", len(gl), path, len(wl))
	}

	// The fixture must keep covering what it is meant to pin.
	var batches, progress int
	for _, line := range bytes.Split(want, []byte("\n")) {
		switch {
		case bytes.HasPrefix(line, []byte(`{"event":"facts"`)):
			batches++
		case bytes.HasPrefix(line, []byte(`{"event":"progress"`)):
			progress++
		}
	}
	if batches < 2 || progress < 2 {
		t.Errorf("fixture has %d facts batches and %d progress events, want ≥2 of each", batches, progress)
	}
	for _, frag := range []string{`"ok"`, `"k(f5_Y())"`, `zürich`, `日本`, `(f3_Y(f2_Y(f1_Y(f0_Y(`} {
		if !bytes.Contains(want, []byte(frag)) {
			t.Errorf("fixture lacks %s", frag)
		}
	}
}
