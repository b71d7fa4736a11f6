package trace_test

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/trace"
	"repro/internal/trace/request"
)

// TestRequestTracesChromeSchema holds the serving tier's export to the
// training timeline's rules: Store.WriteChromeTrace (sr-serve and
// sr-router -trace) and /debug/traces?format=perfetto write the same
// bytes through trace.WriteChrome, and the payload passes
// CheckChromeJSON — overlapping spans fanned out to lanes, a
// zero-length stage exported as an instant.
func TestRequestTracesChromeSchema(t *testing.T) {
	s := request.NewStore(request.Config{Capacity: 8, SampleRate: 1})
	for i := 0; i < 3; i++ {
		a := s.Start("")
		t0 := a.Now()
		root := a.Root()
		a.Emit(request.StageServeForward, request.NewSpanID(), root, t0, t0+2000, 64, 0, -1, 2)
		a.Emit(request.StageServeForward, request.NewSpanID(), root, t0+500, t0+2500, 64, 0, -1, 2)
		a.Emit(request.StageServeEncode, request.NewSpanID(), root, t0+3000, t0+3000, 0, 0, -1, 0)
		a.EmitStage(request.StageServeStitch, root, t0, 64)
		s.Finish(a, 200)
	}

	var file bytes.Buffer
	if err := s.WriteChromeTrace(&file); err != nil {
		t.Fatal(err)
	}
	rr := httptest.NewRecorder()
	s.Handler().ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/debug/traces?format=perfetto", nil))
	if rr.Code != http.StatusOK || !bytes.Equal(rr.Body.Bytes(), file.Bytes()) {
		t.Fatalf("/debug/traces?format=perfetto: %d, payload differs from WriteChromeTrace", rr.Code)
	}

	threads, pids := trace.CheckChromeJSON(t, file.Bytes())
	if len(pids) != 3 {
		t.Fatalf("%d trace processes carry events, want 3", len(pids))
	}
	for pid := range pids {
		// Root on lane 0, the two overlapping forwards on lanes 1 and 2.
		for lane := 0; lane < 3; lane++ {
			if threads[[2]int{pid, lane}] == "" {
				t.Fatalf("trace %d: lane %d unnamed (threads %v)", pid, lane, threads)
			}
		}
	}
	if !bytes.Contains(file.Bytes(), []byte(`"ph":"i"`)) {
		t.Fatal("zero-length stage not exported as an instant")
	}
}
