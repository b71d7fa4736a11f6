package router

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/imageio"
	"repro/internal/serve"
	"repro/internal/tensor"
	"repro/internal/trace"
	rtrace "repro/internal/trace/request"
)

// startTracedReplica runs a real sr-serve replica — bicubic model behind
// a real serve.Server and listener — whose trace store keeps every
// request, so assertions on its retained traces are deterministic.
func startTracedReplica(t *testing.T) (url string, store *rtrace.Store) {
	t.Helper()
	store = rtrace.NewStore(rtrace.Config{Capacity: 8, SampleRate: 1})
	engine := serve.NewEngine(serve.EngineConfig{
		Batch: serve.BatcherConfig{MaxBatch: 2, MaxDelay: time.Millisecond},
	}, nil, store)
	if err := engine.Register("bicubic", serve.BicubicFactory(2, 3)); err != nil {
		t.Fatalf("Register: %v", err)
	}
	t.Cleanup(engine.Shutdown)
	replica := serve.NewServer(engine, nil, nil, 0)
	backend := httptest.NewServer(replica)
	t.Cleanup(backend.Close)
	return backend.URL, store
}

// testPNG encodes a seeded side×side RGB image.
func testPNG(t *testing.T, seed uint64, side int) string {
	t.Helper()
	x := tensor.New(1, 3, side, side)
	x.FillUniform(tensor.NewRNG(seed), 0, 1)
	var png bytes.Buffer
	if err := imageio.WritePNG(&png, x); err != nil {
		t.Fatalf("WritePNG: %v", err)
	}
	return png.String()
}

// TestTracePropagationE2E drives one request through a real router →
// real sr-serve replica and asserts the result is a single connected
// span tree: the replica adopts the router's trace ID from the
// traceparent header, its root parents under the router's attempt span,
// and every recorded span's parent resolves inside the merged tree —
// no orphans, no second tree. Run with -race, this also shakes the
// lock-free collector across the router's and replica's goroutines.
func TestTracePropagationE2E(t *testing.T) {
	backendURL, replicaStore := startTracedReplica(t)

	reg := trace.NewMetrics()
	routerStore := rtrace.NewStore(rtrace.Config{Capacity: 8, SampleRate: 1})
	rt, err := New(Config{
		Backends: []string{backendURL},
		Pool:     PoolConfig{HealthInterval: 10 * time.Millisecond},
	}, reg, routerStore)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(rt.Close)
	waitFor(t, func() bool { return rt.Pool().NumHealthy() == 1 }, "replica in rotation")

	rr := post(rt, "/v1/upscale?model=bicubic", testPNG(t, 7, 8), nil)
	if rr.Code != http.StatusOK {
		t.Fatalf("routed upscale: %d %s", rr.Code, rr.Body.String())
	}
	traceID := rr.Header().Get("X-Trace-Id")
	if traceID == "" {
		t.Fatal("router response missing X-Trace-Id")
	}

	// Both stores kept the request (SampleRate 1) under the same ID.
	routerTraces, replicaTraces := routerStore.Retained(), replicaStore.Retained()
	if len(routerTraces) != 1 || len(replicaTraces) != 1 {
		t.Fatalf("retained router=%d replica=%d traces, want 1 and 1",
			len(routerTraces), len(replicaTraces))
	}
	rtr, rep := routerTraces[0], replicaTraces[0]
	if rtr.ID.String() != traceID || rep.ID != rtr.ID {
		t.Fatalf("trace IDs disagree: header=%s router=%s replica=%s", traceID, rtr.ID, rep.ID)
	}
	if rtr.RemoteParent != 0 {
		t.Fatalf("router root has remote parent %x — the router is the edge", rtr.RemoteParent)
	}
	if rep.RemoteParent == 0 {
		t.Fatal("replica root has no remote parent — traceparent not propagated")
	}

	// Merge both processes' spans and check the tree is connected:
	// exactly one root (parent 0), every other parent resolves.
	ids := map[uint64]bool{}
	all := append(append([]rtrace.SpanRec{}, rtr.Spans...), rep.Spans...)
	for _, sp := range all {
		if sp.ID == 0 {
			t.Fatalf("span with zero ID: %+v", sp)
		}
		if ids[sp.ID] {
			t.Fatalf("span ID %x appears twice in the merged tree", sp.ID)
		}
		ids[sp.ID] = true
	}
	roots, attempts := 0, 0
	for _, sp := range all {
		if sp.Parent == 0 {
			roots++
			continue
		}
		if !ids[sp.Parent] {
			t.Fatalf("orphan span: stage %s parent %x not in the merged tree", sp.Stage, sp.Parent)
		}
		if sp.Stage == rtrace.StageRouterAttempt {
			attempts++
			if sp.Flags&rtrace.FlagWinner == 0 {
				t.Fatalf("single uncontended attempt not marked winner: %+v", sp)
			}
		}
	}
	if roots != 1 {
		t.Fatalf("merged tree has %d roots, want exactly 1 (the router's)", roots)
	}
	if attempts != 1 {
		t.Fatalf("merged tree has %d attempt spans, want 1", attempts)
	}
	// The replica's root must hang off the router's attempt span
	// specifically, not just any span.
	var attemptID uint64
	for _, sp := range rtr.Spans {
		if sp.Stage == rtrace.StageRouterAttempt {
			attemptID = sp.ID
		}
	}
	if rep.RemoteParent != attemptID {
		t.Fatalf("replica root parents under %x, want the router attempt span %x",
			rep.RemoteParent, attemptID)
	}
	// The replica recorded real serving stages, not just a bare root.
	stages := map[rtrace.Stage]bool{}
	for _, sp := range rep.Spans {
		stages[sp.Stage] = true
	}
	for _, want := range []rtrace.Stage{rtrace.StageServeDecode, rtrace.StageServeForward, rtrace.StageServeEncode} {
		if !stages[want] {
			t.Fatalf("replica trace missing stage %s (got %v)", want, stages)
		}
	}
}

// TestTraceReplayedAttemptAttribution: a request whose first attempt
// dies with its replica and replays on another is always retained (no
// sampling needed), both attempts and the surviving replica's spans sit
// under the one trace ID, the stage spans explain at least 95% of the
// request's wall time, and an operator finds the same trace on
// /debug/traces over HTTP.
func TestTraceReplayedAttemptAttribution(t *testing.T) {
	doomed := startReplica(t, "127.0.0.1:0")
	t.Cleanup(doomed.engine.Shutdown)
	liveURL, replicaStore := startTracedReplica(t)

	rt, err := New(Config{
		Backends:  []string{"http://" + doomed.addr, liveURL},
		Placement: "hash",
		// Only the failed attempt itself may eject the dead replica.
		Pool: PoolConfig{HealthInterval: time.Hour},
		// Probabilistic and slow-tail sampling off: the replay is the
		// only reason this trace can be kept.
	}, trace.NewMetrics(), rtrace.NewStore(rtrace.Config{Capacity: 8, SampleRate: -1, SlowPct: -1}))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(rt.Close)

	// An upload the ring places on the doomed replica, which then dies
	// with no drain: the attempt meets a refused connection.
	var body string
	for seed := uint64(1); ; seed++ {
		body = testPNG(t, seed, 64)
		if rt.place.Pick(rt.pool, hashKey("bicubic", []byte(body)), nil).Index == 0 {
			break
		}
	}
	doomed.kill()
	front := httptest.NewServer(rt)
	t.Cleanup(front.Close)
	resp, err := http.Post(front.URL+"/v1/upscale?model=bicubic", "image/png", strings.NewReader(body))
	if err != nil {
		t.Fatalf("routed upscale: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("routed upscale: %d, want 200 after replay", resp.StatusCode)
	}
	traceID := resp.Header.Get("X-Trace-Id")

	kept := rt.TraceStore().Retained()
	if len(kept) != 1 || kept[0].ID.String() != traceID || kept[0].KeptFor != rtrace.KeptForced {
		t.Fatalf("router retained %d traces (%+v), want the replayed request %s kept as %q",
			len(kept), kept, traceID, rtrace.KeptForced)
	}
	tr := kept[0]
	ids := map[uint64]bool{}
	for _, sp := range tr.Spans {
		ids[sp.ID] = true
	}
	var failed, won []uint64
	for _, sp := range tr.Spans {
		if sp.Stage != rtrace.StageRouterAttempt {
			continue
		}
		if !ids[sp.Parent] {
			t.Fatalf("attempt span %x hangs under %x, outside its trace", sp.ID, sp.Parent)
		}
		switch {
		case sp.Flags&rtrace.FlagError != 0:
			failed = append(failed, sp.ID)
		case sp.Flags&rtrace.FlagWinner != 0:
			won = append(won, sp.ID)
		}
	}
	if len(failed) != 1 || len(won) != 1 {
		t.Fatalf("attempt spans: %d failed, %d winners, want one of each", len(failed), len(won))
	}
	// The surviving replica joined the same trace under the replay.
	reps := replicaStore.Retained()
	if len(reps) != 1 || reps[0].ID != tr.ID || reps[0].RemoteParent != won[0] {
		t.Fatalf("replica traces %+v, want one under trace %s parented by attempt %x", reps, tr.ID, won[0])
	}

	if _, covered := tr.Attribution(); covered < 0.95 {
		t.Fatalf("attribution covers %.1f%% of the replayed request's %s, want >= 95%%",
			100*covered, time.Duration(tr.Dur))
	}

	for _, view := range []string{"/debug/traces", "/debug/traces?format=perfetto"} {
		resp, err := http.Get(front.URL + view)
		if err != nil {
			t.Fatalf("GET %s: %v", view, err)
		}
		page, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || !bytes.Contains(page, []byte(traceID)) {
			t.Fatalf("GET %s does not show trace %s (read error %v)", view, traceID, err)
		}
	}
}
