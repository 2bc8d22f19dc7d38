package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"chaseterm"
	"chaseterm/api"
	"chaseterm/internal/service"
	"chaseterm/internal/store"
)

// clients is the closed loop's client count, one per CPU of the 2-CPU
// reference host. Each client sends its next request only after the
// previous response completed, over its own keep-alive connection.
const clients = 2

// requestTimeout bounds one request; a request that hits it counts as
// failed.
const requestTimeout = 60 * time.Second

// server is one in-process chased stack: a service.Engine with its
// defaults (pool Workers = GOMAXPROCS, sequential chase) behind
// service.NewHandler on a loopback listener.
type server struct {
	eng    *service.Engine
	http   *httptest.Server
	store  *store.Resilient
	client *http.Client
	// wall records the server-side wall time of each request by its
	// X-Request-ID, measured around the service handler.
	wallMu sync.Mutex
	wall   map[string]time.Duration
}

// startServer starts a server; storePath, when non-empty, attaches a
// FileStore with chased's default interval fsync, wrapped like chased
// wraps it.
func startServer(storePath string) *server {
	s := &server{wall: make(map[string]time.Duration)}
	opts := service.Options{}
	if storePath != "" {
		s.store = store.NewResilient(func() (store.VerdictStore, error) {
			return store.Open(storePath, store.Options{Fsync: store.FsyncInterval})
		})
		opts.Store = s.store
	}
	s.eng = service.New(opts)
	h := service.NewHandler(s.eng)
	s.http = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		h.ServeHTTP(w, r)
		if id := r.Header.Get("X-Request-ID"); id != "" {
			d := time.Since(t0)
			s.wallMu.Lock()
			s.wall[id] = d
			s.wallMu.Unlock()
		}
	}))
	s.client = &http.Client{
		Timeout: requestTimeout,
		Transport: &http.Transport{
			MaxIdleConnsPerHost: clients,
			MaxConnsPerHost:     clients,
			DisableCompression:  true,
		},
	}
	return s
}

// serverWall returns and forgets the handler wall time of a request.
func (s *server) serverWall(id string) (time.Duration, bool) {
	s.wallMu.Lock()
	defer s.wallMu.Unlock()
	d, ok := s.wall[id]
	delete(s.wall, id)
	return d, ok
}

func (s *server) close() {
	s.http.Close()
	s.client.CloseIdleConnections()
	s.eng.Close()
	if s.store != nil {
		s.store.Close() //nolint:errcheck // the store lives in a scratch directory removed after the run
	}
}

// prepopulate writes the verdicts of the given entries to the server's
// store through a separate engine on the same store, the way an earlier
// chased process would have, so the measured engine starts with an empty
// memory cache over a warm store.
func prepopulate(ctx context.Context, st store.VerdictStore, entries []*entry) error {
	eng := service.New(service.Options{Store: st})
	defer eng.Close()
	for _, e := range entries {
		var req api.AnalyzeRequest
		if err := json.Unmarshal(e.body, &req); err != nil {
			return fmt.Errorf("prepopulate: %w", err)
		}
		if _, err := eng.Analyze(ctx, req); err != nil {
			return fmt.Errorf("prepopulate %s: %w", e.Label, err)
		}
	}
	return nil
}

// outcome is one request's result as the benchmark sees it.
type outcome struct {
	Latency    time.Duration
	FirstBatch time.Duration
	// Decided: a definite verdict, or a terminated chase.
	Decided bool
	// Fail names the failure, empty on success.
	Fail string
	// Response is the decoded /v2/analyze response (replay only).
	Response *api.AnalyzeResponse
}

// send issues one request and checks its answer. id, when non-empty, is
// sent as X-Request-ID.
func send(ctx context.Context, c *http.Client, base string, r request, id string) outcome {
	t0 := time.Now()
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, base+r.Path, bytes.NewReader(r.Body))
	if err != nil {
		return outcome{Fail: "transport: " + err.Error()}
	}
	hreq.Header.Set("Content-Type", "application/json")
	if id != "" {
		hreq.Header.Set("X-Request-ID", id)
	}
	resp, err := c.Do(hreq)
	if err != nil {
		if errors.Is(err, context.DeadlineExceeded) || os.IsTimeout(err) {
			return outcome{Latency: time.Since(t0), Fail: "timeout"}
		}
		return outcome{Latency: time.Since(t0), Fail: "transport: " + err.Error()}
	}
	defer resp.Body.Close()
	var o outcome
	if r.Path == routeStream && resp.StatusCode == http.StatusOK {
		o = checkStream(resp.Body, r.Want, t0)
	} else {
		body, err := io.ReadAll(resp.Body)
		o = checkAnalyze(resp.StatusCode, body, err, r.Want)
		o.Latency = time.Since(t0)
		o.FirstBatch = o.Latency
	}
	// Drain whatever is left so the keep-alive connection is reused.
	io.Copy(io.Discard, resp.Body) //nolint:errcheck // best effort; a broken connection is redialed
	return o
}

// checkAnalyze checks a /v2/analyze answer against the arbiter. A budget
// 422 is not a failure but leaves the request undecided; any other
// non-2xx is a failure.
func checkAnalyze(status int, body []byte, readErr error, w want) outcome {
	if readErr != nil {
		return outcome{Fail: "transport: " + readErr.Error()}
	}
	if status != http.StatusOK {
		var env api.ErrorEnvelope
		if status == http.StatusUnprocessableEntity && json.Unmarshal(body, &env) == nil &&
			env.Error != nil && env.Error.Code == api.CodeUnprocessable {
			return outcome{}
		}
		if status == http.StatusGatewayTimeout {
			return outcome{Fail: "timeout"}
		}
		return outcome{Fail: "status " + strconv.Itoa(status)}
	}
	var resp api.AnalyzeResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return outcome{Fail: "undecodable response: " + err.Error()}
	}
	o := outcome{Response: &resp}
	switch w.Kind {
	case wantVerdict:
		if resp.Decision == nil {
			o.Fail = "no decision"
			return o
		}
		got := resp.Decision.Terminates
		if got == chaseterm.Unknown.String() {
			return o
		}
		if got != w.Verdict {
			o.Fail = "wrong verdict: got " + got + ", arbiter " + w.Verdict
			return o
		}
		o.Decided = true
	case wantRestricted:
		if resp.Chase == nil {
			o.Fail = "no chase result"
			return o
		}
		if resp.Chase.Outcome != chaseterm.Terminated.String() {
			o.Fail = "restricted chase ended " + resp.Chase.Outcome
			return o
		}
		total := resp.Chase.Stats.InitialFacts + resp.Chase.Stats.FactsAdded
		if total < w.DBFacts || total > w.SOFacts {
			o.Fail = fmt.Sprintf("restricted result has %d facts, outside [|D|=%d, so=%d]", total, w.DBFacts, w.SOFacts)
			return o
		}
		o.Decided = true
	default:
		o.Fail = "unexpected /v2/analyze answer"
	}
	return o
}

// checkStream reads an NDJSON chase stream to its terminal event and
// checks that the streamed facts reproduce the semi-oblivious result: a
// stream that ends without a "done" event is truncated and fails.
func checkStream(body io.Reader, w want, t0 time.Time) outcome {
	var o outcome
	br := bufio.NewReaderSize(body, 64<<10)
	streamed := 0
	for {
		line, err := br.ReadSlice('\n')
		if errors.Is(err, bufio.ErrBufferFull) {
			// A batch line longer than the buffer: gather it whole.
			full := append([]byte(nil), line...)
			for errors.Is(err, bufio.ErrBufferFull) {
				line, err = br.ReadSlice('\n')
				full = append(full, line...)
			}
			line = full
		}
		if len(line) > 0 {
			switch {
			case bytes.HasPrefix(line, []byte(`{"event":"facts"`)):
				n, ok := countFacts(line)
				if !ok {
					o.Fail = "malformed facts event"
					return o
				}
				if streamed == 0 {
					o.FirstBatch = time.Since(t0)
				}
				streamed += n
			case bytes.HasPrefix(line, []byte(`{"event":"progress"`)):
			case bytes.HasPrefix(line, []byte(`{"event":"done"`)):
				o.Latency = time.Since(t0)
				if o.FirstBatch == 0 {
					o.FirstBatch = o.Latency
				}
				var ev api.StreamEvent
				if err := json.Unmarshal(line, &ev); err != nil || ev.Stats == nil {
					o.Fail = "malformed done event"
					return o
				}
				total := ev.Stats.InitialFacts + ev.Stats.FactsAdded
				switch {
				case ev.Outcome != chaseterm.Terminated.String():
					o.Fail = "stream ended " + ev.Outcome
				case streamed != ev.Stats.FactsAdded:
					o.Fail = fmt.Sprintf("streamed %d facts, done event reports %d added", streamed, ev.Stats.FactsAdded)
				case total != w.SOFacts:
					o.Fail = fmt.Sprintf("so result has %d facts, arbiter %d", total, w.SOFacts)
				default:
					o.Decided = true
				}
				return o
			default:
				o.Fail = "stream error event: " + string(bytes.TrimSpace(line))
				return o
			}
		}
		if err != nil {
			o.Latency = time.Since(t0)
			if errors.Is(err, io.EOF) {
				o.Fail = "truncated stream: no done event"
			} else {
				o.Fail = "transport: " + err.Error()
			}
			return o
		}
	}
}

// countFacts counts the strings of the "facts" array of one facts event
// without decoding them: the client-side cost of reading a stream stays
// small next to the server's.
func countFacts(line []byte) (int, bool) {
	i := bytes.Index(line, []byte(`"facts":[`))
	if i < 0 {
		return 0, false
	}
	i += len(`"facts":[`)
	n := 0
	for i < len(line) {
		switch line[i] {
		case ']':
			return n, true
		case ',':
			i++
		case '"':
			i++
			for i < len(line) && line[i] != '"' {
				if line[i] == '\\' {
					i++
				}
				i++
			}
			if i >= len(line) {
				return 0, false
			}
			i++
			n++
		default:
			return 0, false
		}
	}
	return 0, false
}

// sample is one completed request of the closed loop. It holds no
// pointers, so a run's growing record costs the collector nothing to
// scan.
type sample struct {
	Latency, FirstBatch time.Duration
	Decided             bool
}

// loopResult is the record of one closed-loop run.
type loopResult struct {
	Samples  []sample
	Failures []string
	Elapsed  time.Duration
	// AllocBytes is the process-wide heap allocation during the run,
	// client side included.
	AllocBytes uint64
}

// closedLoop runs `clients` clients for dur. Each takes the next index of
// the shared request stream, sends it, waits for the complete answer and
// repeats; requests in flight at the deadline complete and count.
func closedLoop(ctx context.Context, c *http.Client, base string, next func(int) request, dur time.Duration) loopResult {
	var ctr atomic.Int64
	samples := make([][]sample, clients)
	failures := make([][]string, clients)
	for k := range samples {
		samples[k] = make([]sample, 0, 1<<16)
	}
	before := heapAlloc()
	start := time.Now()
	deadline := start.Add(dur)
	var wg sync.WaitGroup
	for k := 0; k < clients; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			for ctx.Err() == nil && time.Now().Before(deadline) {
				o := send(ctx, c, base, next(int(ctr.Add(1)-1)), "")
				if o.Fail != "" {
					failures[k] = append(failures[k], o.Fail)
					continue
				}
				samples[k] = append(samples[k], sample{o.Latency, o.FirstBatch, o.Decided})
			}
		}(k)
	}
	wg.Wait()
	res := loopResult{Elapsed: time.Since(start), AllocBytes: heapAlloc() - before}
	for k := range samples {
		res.Samples = append(res.Samples, samples[k]...)
		res.Failures = append(res.Failures, failures[k]...)
	}
	return res
}

// startServerFor starts the server for a workload, pre-populates its
// store and warms it up. dir is a fresh scratch directory.
func startServerFor(ctx context.Context, w workloadDef, in *inputs, dir string) (*server, error) {
	storePath := ""
	if w.Store {
		storePath = filepath.Join(dir, "verdicts.db")
	}
	s := startServer(storePath)
	if w.Store {
		if err := prepopulate(ctx, s.store, in.Prepopulate); err != nil {
			s.close()
			return nil, err
		}
	}
	for _, r := range in.Warm {
		if o := send(ctx, s.client, s.http.URL, r, ""); o.Fail != "" {
			s.close()
			return nil, fmt.Errorf("warm-up request failed: %s", o.Fail)
		}
	}
	return s, nil
}
