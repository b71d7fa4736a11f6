package cache

import (
	"context"
	"testing"

	"repro/internal/tensor"
	"repro/internal/trace"
	"repro/internal/trace/request"
)

// TestCacheHitLookupNoAllocs pins the cache-hit perf contract: key
// derivation plus a hit — map lookup, LRU refresh, copy-out, metrics,
// request-trace stage — performs zero heap allocations, so a
// hot-content server spends nothing on GC for the traffic it already
// answered. Measured with metrics and tracing ON, the production
// configuration.
func TestCacheHitLookupNoAllocs(t *testing.T) {
	reg := trace.NewMetrics()
	met := NewMetrics(reg)
	c := New(Config{MaxBytes: 1 << 20}, met, nil)
	store := request.NewStore(request.Config{})
	ctx := request.NewContext(context.Background(), store.Start(""))

	rng := tensor.NewRNG(21)
	x := tensor.New(1, 3, 32, 32)
	x.FillUniform(rng, 0, 1)
	out := tensor.New(1, 3, 64, 64)
	k := MakeKey(GranImage, "edsr", "fused", 2, 48, x)
	if err := c.Do(context.Background(), k, out, func(o *tensor.Tensor) error {
		o.FillUniform(rng, 0, 1)
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	if allocs := testing.AllocsPerRun(100, func() {
		kk := MakeKey(GranImage, "edsr", "fused", 2, 48, x)
		if !c.Lookup(ctx, kk, out) {
			t.Fatal("unexpected miss")
		}
	}); allocs != 0 {
		t.Fatalf("cache-hit lookup allocated %.0f objects, want 0", allocs)
	}
}

// TestMakeKeyNoAllocs isolates key derivation (it runs on every
// request, hit or miss).
func TestMakeKeyNoAllocs(t *testing.T) {
	rng := tensor.NewRNG(22)
	x := tensor.New(1, 3, 48, 48)
	x.FillUniform(rng, 0, 1)
	if allocs := testing.AllocsPerRun(100, func() {
		_ = MakeKey(GranImage, "edsr-tiny", "int8", 2, 48, x)
	}); allocs != 0 {
		t.Fatalf("MakeKey allocated %.0f objects, want 0", allocs)
	}
}
