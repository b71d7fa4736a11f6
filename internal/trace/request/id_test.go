package request

import (
	"strings"
	"testing"
)

// TestTraceparentRoundTrip pins format → parse as the identity: the
// header the router sends is the trace the replica joins.
func TestTraceparentRoundTrip(t *testing.T) {
	for i := 0; i < 64; i++ {
		id, span := NewTraceID(), NewSpanID()
		h := Traceparent(id, span)
		if len(h) != traceparentLen {
			t.Fatalf("Traceparent %q has length %d, want %d", h, len(h), traceparentLen)
		}
		if !strings.HasPrefix(h, "00-") || !strings.HasSuffix(h, "-01") {
			t.Fatalf("Traceparent %q is not a version-00 sampled header", h)
		}
		gotID, gotSpan, ok := ParseTraceparent(h)
		if !ok || gotID != id || gotSpan != span {
			t.Fatalf("round trip %q → (%v, %x, %v), want (%v, %x, true)",
				h, gotID, gotSpan, ok, id, span)
		}
	}
	if h := Traceparent(TraceID{Hi: 0xdead, Lo: 0xbeef}, 0x1234); h !=
		"00-000000000000dead000000000000beef-0000000000001234-01" {
		t.Fatalf("fixed-point header %q", h)
	}
}

// TestParseTraceparentRejects tables the inputs the parser must refuse
// — malformed, all-zero, future-versioned — each of which Start must
// answer with a freshly minted trace, never a 4xx.
func TestParseTraceparentRejects(t *testing.T) {
	valid := "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01"
	if _, _, ok := ParseTraceparent(valid); !ok {
		t.Fatalf("canonical W3C example %q rejected", valid)
	}
	bad := map[string]string{
		"empty":             "",
		"truncated":         valid[:54],
		"trailing junk":     valid + "0",
		"zero trace id":     "00-00000000000000000000000000000000-b7ad6b7169203331-01",
		"zero parent id":    "00-0af7651916cd43dd8448eb211c80319c-0000000000000000-01",
		"future version":    "01-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01",
		"version ff":        "ff-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01",
		"non-hex trace id":  "00-0af7651916cd43dd8448eb211c80319g-b7ad6b7169203331-01",
		"non-hex parent":    "00-0af7651916cd43dd8448eb211c80319c-b7ad6b716920333x-01",
		"non-hex flags":     "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-zz",
		"wrong separators":  "00_0af7651916cd43dd8448eb211c80319c_b7ad6b7169203331_01",
		"missing field":     "00-0af7651916cd43dd8448eb211c80319c-01",
		"spaces for dashes": "00 0af7651916cd43dd8448eb211c80319c b7ad6b7169203331 01",
		"uppercase version": "0A-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01",
	}
	for name, h := range bad {
		if id, par, ok := ParseTraceparent(h); ok {
			t.Errorf("%s: ParseTraceparent(%q) accepted → (%v, %x)", name, h, id, par)
		}
	}

	// The degraded path: a store handed garbage must mint fresh, and two
	// garbage headers must not collide on the same trace.
	s := NewStore(Config{SampleRate: -1, SlowPct: -1})
	a1 := s.Start("ff-garbage")
	a2 := s.Start("ff-garbage")
	if a1.TraceID().IsZero() || a2.TraceID().IsZero() {
		t.Fatal("malformed traceparent produced a zero trace ID instead of a fresh mint")
	}
	if a1.TraceID() == a2.TraceID() {
		t.Fatal("two malformed headers adopted the same trace ID")
	}
	s.Finish(a1, 200)
	s.Finish(a2, 200)

	// A valid header is adopted verbatim.
	a3 := s.Start(valid)
	if a3.TraceID().String() != "0af7651916cd43dd8448eb211c80319c" {
		t.Fatalf("valid traceparent not adopted: got trace %s", a3.TraceID())
	}
	s.Finish(a3, 200)
}

// TestIDUniqueness spot-checks the splitmix64 minter: no zero IDs, no
// immediate repeats across a healthy sample.
func TestIDUniqueness(t *testing.T) {
	seen := make(map[TraceID]bool, 4096)
	for i := 0; i < 4096; i++ {
		id := NewTraceID()
		if id.IsZero() {
			t.Fatal("minted the all-zero trace ID")
		}
		if seen[id] {
			t.Fatalf("trace ID %s minted twice", id)
		}
		seen[id] = true
	}
	spans := make(map[uint64]bool, 4096)
	for i := 0; i < 4096; i++ {
		id := NewSpanID()
		if id == 0 || spans[id] {
			t.Fatalf("span ID %x zero or repeated", id)
		}
		spans[id] = true
	}
}

// FuzzParseTraceparent holds the one decoder of a client-supplied
// header to three properties on arbitrary input: it never panics; an
// accepted header has a non-zero trace ID and parent; and formatting
// what it accepted parses back to the same pair.
func FuzzParseTraceparent(f *testing.F) {
	f.Add(Traceparent(TraceID{Hi: 0xdead, Lo: 0xbeef}, 0x1234))
	f.Add("00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01")
	f.Add("00-00000000000000000000000000000000-00f067aa0ba902b7-01")
	f.Add("ff-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01")
	f.Add("00-4BF92F3577B34DA6A3CE929D0E0E4736-00F067AA0BA902B7-0g")
	f.Add("")
	f.Fuzz(func(t *testing.T, h string) {
		id, parent, ok := ParseTraceparent(h)
		if !ok {
			return
		}
		if id.IsZero() || parent == 0 {
			t.Fatalf("accepted %q with a zero ID: (%v, %x)", h, id, parent)
		}
		id2, parent2, ok2 := ParseTraceparent(Traceparent(id, parent))
		if !ok2 || id2 != id || parent2 != parent {
			t.Fatalf("%q → (%v, %x) does not round-trip: (%v, %x, %v)", h, id, parent, id2, parent2, ok2)
		}
	})
}
