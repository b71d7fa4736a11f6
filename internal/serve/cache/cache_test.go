package cache

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/tensor"
	"repro/internal/trace"
	"repro/internal/trace/request"
)

// fill gives t deterministic content derived from seed.
func fill(t *tensor.Tensor, seed uint64) *tensor.Tensor {
	rng := tensor.NewRNG(seed)
	t.FillUniform(rng, 0, 1)
	return t
}

func TestGetMissThenHitRoundTrip(t *testing.T) {
	c := New(Config{MaxBytes: 1 << 20}, nil, nil)
	x := fill(tensor.New(1, 3, 8, 8), 1)
	k := MakeKey(GranImage, "m", "float32", 2, 48, x)
	out := tensor.New(1, 3, 16, 16)
	if c.Get(k, out) {
		t.Fatal("hit on an empty cache")
	}
	var computes int
	want := fill(tensor.New(1, 3, 16, 16), 2)
	compute := func(o *tensor.Tensor) error {
		computes++
		o.CopyFrom(want)
		return nil
	}
	if err := c.Do(context.Background(), k, out, compute); err != nil {
		t.Fatal(err)
	}
	got := tensor.New(1, 3, 16, 16)
	if !c.Get(k, got) {
		t.Fatal("miss after Do stored the result")
	}
	if computes != 1 {
		t.Fatalf("computes = %d, want 1", computes)
	}
	for i, v := range got.Data() {
		if v != want.Data()[i] {
			t.Fatalf("cached bytes differ at %d", i)
		}
	}
	if c.Len() != 1 || c.Bytes() != want.Bytes() {
		t.Fatalf("footprint = (%d entries, %d bytes), want (1, %d)", c.Len(), c.Bytes(), want.Bytes())
	}
}

func TestByteBudgetEvictsLRU(t *testing.T) {
	// One shard so recency order is global and the budget is exact.
	val := tensor.New(1, 3, 8, 8) // 768 bytes per entry
	c := New(Config{MaxBytes: 4 * val.Bytes(), Shards: 1}, nil, nil)
	keys := make([]Key, 6)
	for i := range keys {
		x := fill(tensor.New(1, 3, 4, 4), uint64(i+1))
		keys[i] = MakeKey(GranImage, "m", "float32", 2, 48, x)
		err := c.Do(context.Background(), keys[i], tensor.New(1, 3, 8, 8), func(o *tensor.Tensor) error {
			fill(o, uint64(100+i))
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		// Touch key 0 after every insert so it stays hot.
		if i > 0 {
			c.Get(keys[0], val)
		}
	}
	if c.Len() != 4 {
		t.Fatalf("entries = %d, want 4 (budget holds 4)", c.Len())
	}
	if !c.Get(keys[0], val) {
		t.Fatal("hot entry was evicted despite recency refreshes")
	}
	if c.Get(keys[1], val) || c.Get(keys[2], val) {
		t.Fatal("LRU entries survived past the byte budget")
	}
	if c.Get(keys[5], val) != true {
		t.Fatal("most recent insert missing")
	}
}

func TestOversizedValueNotCached(t *testing.T) {
	c := New(Config{MaxBytes: 64, Shards: 1}, nil, nil)
	x := fill(tensor.New(1, 3, 8, 8), 1)
	k := MakeKey(GranImage, "m", "float32", 2, 48, x)
	out := tensor.New(1, 3, 16, 16) // 3 KB >> 64 B budget
	err := c.Do(context.Background(), k, out, func(o *tensor.Tensor) error {
		fill(o, 2)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if c.Len() != 0 || c.Bytes() != 0 {
		t.Fatalf("oversized value was cached: %d entries, %d bytes", c.Len(), c.Bytes())
	}
}

func TestSingleflightCollapsesConcurrentMisses(t *testing.T) {
	reg := trace.NewMetrics()
	met := NewMetrics(reg)
	c := New(Config{MaxBytes: 1 << 20}, met, nil)
	x := fill(tensor.New(1, 3, 8, 8), 3)
	k := MakeKey(GranImage, "m", "float32", 2, 48, x)
	want := fill(tensor.New(1, 3, 16, 16), 4)

	var computes atomic.Int64
	gate := make(chan struct{})
	started := make(chan struct{})
	compute := func(o *tensor.Tensor) error {
		computes.Add(1)
		close(started)
		<-gate // hold the flight open until all waiters have joined
		o.CopyFrom(want)
		return nil
	}
	slowJoin := func(o *tensor.Tensor) error {
		t.Error("follower ran its own compute instead of joining the flight")
		return nil
	}

	const followers = 8
	var wg sync.WaitGroup
	errs := make([]error, followers+1)
	outs := make([]*tensor.Tensor, followers+1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		outs[0] = tensor.New(1, 3, 16, 16)
		errs[0] = c.Do(context.Background(), k, outs[0], compute)
	}()
	<-started
	for i := 1; i <= followers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			outs[i] = tensor.New(1, 3, 16, 16)
			errs[i] = c.Do(context.Background(), k, outs[i], slowJoin)
		}(i)
	}
	// Let followers reach the wait before releasing the leader.
	for met.InflightWaits.Value() < followers {
		time.Sleep(time.Millisecond)
	}
	close(gate)
	wg.Wait()

	if n := computes.Load(); n != 1 {
		t.Fatalf("computes = %d, want 1 (singleflight)", n)
	}
	for i, err := range errs {
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		for j, v := range outs[i].Data() {
			if v != want.Data()[j] {
				t.Fatalf("request %d result differs at %d", i, j)
			}
		}
	}
	if w := met.InflightWaits.Value(); w != followers {
		t.Fatalf("inflight waits = %d, want %d", w, followers)
	}
}

func TestWaiterCancelUnblocksWithoutKillingFlight(t *testing.T) {
	reg := trace.NewMetrics()
	met := NewMetrics(reg)
	c := New(Config{MaxBytes: 1 << 20}, met, nil)
	x := fill(tensor.New(1, 3, 8, 8), 5)
	k := MakeKey(GranImage, "m", "float32", 2, 48, x)
	want := fill(tensor.New(1, 3, 16, 16), 6)

	gate := make(chan struct{})
	started := make(chan struct{})
	leaderDone := make(chan error, 1)
	go func() {
		out := tensor.New(1, 3, 16, 16)
		leaderDone <- c.Do(context.Background(), k, out, func(o *tensor.Tensor) error {
			close(started)
			<-gate
			o.CopyFrom(want)
			return nil
		})
	}()
	<-started

	ctx, cancel := context.WithCancel(context.Background())
	waiterDone := make(chan error, 1)
	go func() {
		out := tensor.New(1, 3, 16, 16)
		waiterDone <- c.Do(ctx, k, out, func(o *tensor.Tensor) error {
			t.Error("cancelled waiter must not compute")
			return nil
		})
	}()
	for met.InflightWaits.Value() < 1 {
		time.Sleep(time.Millisecond)
	}
	cancel()
	select {
	case err := <-waiterDone:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled waiter returned %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("cancelled waiter did not unblock while the flight was still running")
	}
	if met.InflightCancels.Value() != 1 {
		t.Fatalf("inflight cancels = %d, want 1", met.InflightCancels.Value())
	}

	// The shared forward was not cancelled: release it and verify the
	// leader completes and the result lands in the cache.
	close(gate)
	if err := <-leaderDone; err != nil {
		t.Fatalf("leader: %v", err)
	}
	got := tensor.New(1, 3, 16, 16)
	if !c.Get(k, got) {
		t.Fatal("flight result was not cached after waiter cancellation")
	}
}

func TestLeaderErrorSharedNotCached(t *testing.T) {
	c := New(Config{MaxBytes: 1 << 20}, nil, nil)
	x := fill(tensor.New(1, 3, 8, 8), 7)
	k := MakeKey(GranImage, "m", "float32", 2, 48, x)
	boom := errors.New("overloaded")

	gate := make(chan struct{})
	started := make(chan struct{})
	leaderDone := make(chan error, 1)
	go func() {
		leaderDone <- c.Do(context.Background(), k, tensor.New(1, 3, 16, 16), func(o *tensor.Tensor) error {
			close(started)
			<-gate
			return boom
		})
	}()
	<-started
	waiterDone := make(chan error, 1)
	go func() {
		waiterDone <- c.Do(context.Background(), k, tensor.New(1, 3, 16, 16), func(o *tensor.Tensor) error {
			t.Error("waiter joined a flight, must not compute")
			return nil
		})
	}()
	time.Sleep(5 * time.Millisecond) // let the waiter park
	close(gate)
	if err := <-leaderDone; !errors.Is(err, boom) {
		t.Fatalf("leader error = %v, want %v", err, boom)
	}
	if err := <-waiterDone; !errors.Is(err, boom) {
		t.Fatalf("waiter error = %v, want %v (shared flight outcome)", err, boom)
	}
	// Errors are not cached: the next request recomputes.
	var recomputed bool
	err := c.Do(context.Background(), k, tensor.New(1, 3, 16, 16), func(o *tensor.Tensor) error {
		recomputed = true
		return nil
	})
	if err != nil || !recomputed {
		t.Fatalf("retry after error: err=%v recomputed=%v", err, recomputed)
	}
}

func TestNilCacheIsDisabled(t *testing.T) {
	var c *Cache
	if c.Enabled() || New(Config{MaxBytes: 0}, nil, nil) != nil {
		t.Fatal("MaxBytes <= 0 must yield the disabled (nil) cache")
	}
	x := fill(tensor.New(1, 3, 8, 8), 9)
	k := MakeKey(GranImage, "m", "float32", 2, 48, x)
	out := tensor.New(1, 3, 16, 16)
	if c.Get(k, out) {
		t.Fatal("nil cache hit")
	}
	var computes int
	if err := c.Do(context.Background(), k, out, func(o *tensor.Tensor) error {
		computes++
		return nil
	}); err != nil || computes != 1 {
		t.Fatalf("nil-cache Do: err=%v computes=%d", err, computes)
	}
	if c.Len() != 0 || c.Bytes() != 0 {
		t.Fatal("nil cache reported a footprint")
	}
}

// TestCacheHammerConcurrent races hits, misses, singleflight joins,
// waiter cancellations, and evictions across shards under -race: a
// small key universe and a budget far below the working set force every
// transition to happen concurrently.
func TestCacheHammerConcurrent(t *testing.T) {
	reg := trace.NewMetrics()
	met := NewMetrics(reg)
	oneVal := tensor.New(1, 3, 16, 16)
	c := New(Config{MaxBytes: 6 * oneVal.Bytes(), Shards: 4}, met, nil)

	const universe = 24
	xs := make([]*tensor.Tensor, universe)
	keys := make([]Key, universe)
	wants := make([]*tensor.Tensor, universe)
	for i := range xs {
		xs[i] = fill(tensor.New(1, 3, 8, 8), uint64(1000+i))
		keys[i] = MakeKey(GranImage, "m", "float32", 2, 48, xs[i])
		wants[i] = fill(tensor.New(1, 3, 16, 16), uint64(2000+i))
	}

	const workers = 16
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			out := tensor.New(1, 3, 16, 16)
			for i := 0; i < 300; i++ {
				k := rng.Intn(universe)
				ctx := context.Background()
				var cancel context.CancelFunc
				if rng.Intn(4) == 0 {
					ctx, cancel = context.WithTimeout(ctx, time.Duration(rng.Intn(200))*time.Microsecond)
				}
				if !c.Get(keys[k], out) {
					err := c.Do(ctx, keys[k], out, func(o *tensor.Tensor) error {
						time.Sleep(time.Duration(rng.Intn(100)) * time.Microsecond)
						o.CopyFrom(wants[k])
						return nil
					})
					if err != nil && !errors.Is(err, context.DeadlineExceeded) {
						t.Errorf("Do: %v", err)
					}
					if err != nil {
						if cancel != nil {
							cancel()
						}
						continue
					}
				}
				// Whatever path filled out, it must be byte-exact.
				for j, v := range out.Data() {
					if v != wants[k].Data()[j] {
						t.Errorf("worker %d: corrupt result for key %d at %d", w, k, j)
						break
					}
				}
				if cancel != nil {
					cancel()
				}
			}
		}(w)
	}
	wg.Wait()
	if c.Bytes() > 6*oneVal.Bytes() {
		t.Fatalf("cache over budget after hammer: %d bytes", c.Bytes())
	}
	if met.Hits.Value() == 0 || met.Misses.Value() == 0 || met.Evictions.Value() == 0 {
		t.Fatalf("hammer did not exercise all transitions: hits=%d misses=%d evicts=%d",
			met.Hits.Value(), met.Misses.Value(), met.Evictions.Value())
	}
}

// TestFootprintGaugesTrack pins the sr_cache_bytes/entries gauges to
// the real footprint through inserts and evictions.
func TestFootprintGaugesTrack(t *testing.T) {
	reg := trace.NewMetrics()
	met := NewMetrics(reg)
	val := tensor.New(1, 3, 8, 8)
	c := New(Config{MaxBytes: 2 * val.Bytes(), Shards: 1}, met, nil)
	for i := 0; i < 5; i++ {
		x := fill(tensor.New(1, 3, 4, 4), uint64(50+i))
		k := MakeKey(GranImage, "m", "float32", 2, 48, x)
		if err := c.Do(context.Background(), k, tensor.New(1, 3, 8, 8), func(o *tensor.Tensor) error {
			fill(o, uint64(60+i))
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if int64(met.Bytes.Value()) != c.Bytes() || int(met.Entries.Value()) != c.Len() {
			t.Fatalf("gauges (%v bytes, %v entries) diverged from footprint (%d, %d)",
				met.Bytes.Value(), met.Entries.Value(), c.Bytes(), c.Len())
		}
	}
	if c.Len() != 2 {
		t.Fatalf("entries = %d, want 2", c.Len())
	}
	if met.Evictions.Value() != 3 {
		t.Fatalf("evictions = %d, want 3", met.Evictions.Value())
	}
}

// TestTraceSpansEmitted verifies the cache's request-trace stages: a
// traced lookup records serve/cache-miss then serve/cache-hit, and a
// request parked on another request's flight records serve/cache-wait.
func TestTraceSpansEmitted(t *testing.T) {
	store := request.NewStore(request.Config{SampleRate: 1})
	met := NewMetrics(trace.NewMetrics())
	c := New(Config{MaxBytes: 1 << 20}, met, nil)
	x := fill(tensor.New(1, 3, 8, 8), 11)
	k := MakeKey(GranImage, "m", "float32", 2, 48, x)

	// Leader: a miss, then a flight held open until a waiter has parked.
	lead := store.Start("")
	leadCtx := request.NewContext(context.Background(), lead)
	out := tensor.New(1, 3, 16, 16)
	if c.Lookup(leadCtx, k, out) {
		t.Fatal("hit on an empty cache")
	}
	started, parked := make(chan struct{}), make(chan struct{})
	leaderDone := make(chan error, 1)
	go func() {
		leaderDone <- c.Do(leadCtx, k, out, func(o *tensor.Tensor) error {
			close(started)
			<-parked
			fill(o, 12)
			return nil
		})
	}()
	<-started
	waiter := store.Start("")
	waitOut := tensor.New(1, 3, 16, 16)
	waiterDone := make(chan error, 1)
	go func() {
		waiterDone <- c.Do(request.NewContext(context.Background(), waiter), k, waitOut, func(*tensor.Tensor) error {
			t.Error("waiter must not compute")
			return nil
		})
	}()
	for met.InflightWaits.Value() < 1 {
		time.Sleep(time.Millisecond)
	}
	close(parked)
	if err := <-leaderDone; err != nil {
		t.Fatal(err)
	}
	if err := <-waiterDone; err != nil {
		t.Fatal(err)
	}
	if !c.Lookup(leadCtx, k, out) {
		t.Fatal("miss after the flight landed")
	}
	store.Finish(lead, 200)
	store.Finish(waiter, 200)

	stages := map[request.Stage]int{}
	for _, tr := range store.Retained() {
		for _, sp := range tr.Spans {
			stages[sp.Stage]++
		}
	}
	for _, want := range []request.Stage{request.StageServeCacheMiss, request.StageServeCacheHit, request.StageServeCacheWait} {
		if stages[want] != 1 {
			t.Fatalf("%s spans %d, want 1 (stages %v)", want, stages[want], stages)
		}
	}
}

// TestShapeMismatchIsMiss covers the defensive path: a stored value
// whose length differs from the caller's buffer reads as a miss rather
// than a partial copy. (Unreachable through MakeKey, which hashes dims.)
func TestShapeMismatchIsMiss(t *testing.T) {
	c := New(Config{MaxBytes: 1 << 20}, nil, nil)
	x := fill(tensor.New(1, 3, 8, 8), 13)
	k := MakeKey(GranImage, "m", "float32", 2, 48, x)
	if err := c.Do(context.Background(), k, tensor.New(1, 3, 16, 16), func(o *tensor.Tensor) error {
		fill(o, 14)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if c.Get(k, tensor.New(1, 3, 8, 8)) {
		t.Fatal("hit with a mismatched output shape")
	}
}

// Exhaustively assert the insert/replace path keeps the list and map
// consistent (the intrusive list is the riskiest code here).
func TestInsertReplaceKeepsConsistency(t *testing.T) {
	c := New(Config{MaxBytes: 1 << 20, Shards: 1}, nil, nil)
	x := fill(tensor.New(1, 3, 8, 8), 15)
	k := MakeKey(GranImage, "m", "float32", 2, 48, x)
	for i := 0; i < 3; i++ {
		c.insert(k, fill(tensor.New(1, 3, 16, 16), uint64(70+i)))
	}
	if c.Len() != 1 {
		t.Fatalf("replacing inserts duplicated: %d entries", c.Len())
	}
	want := fill(tensor.New(1, 3, 16, 16), 72)
	got := tensor.New(1, 3, 16, 16)
	if !c.Get(k, got) {
		t.Fatal("miss after replace")
	}
	for i, v := range got.Data() {
		if v != want.Data()[i] {
			t.Fatalf("replace kept stale bytes at %d", i)
		}
	}
	if c.shards[0].head.key != k {
		t.Fatal("replaced entry not at list head")
	}
}
