// Package cache is the content-addressed result cache that sits between
// the serving engine and the batcher. Heavy real-world SR traffic is
// highly redundant — the same thumbnails, logos, and tiles arrive again
// and again — so after kernel efficiency (the compiled inference path)
// the next win on the hot path is not computing the same forward twice.
//
// Two mechanisms compose:
//
//   - A byte-budgeted sharded LRU stores upscaled tensors under a
//     128-bit content key (MakeKey: post-normalization pixels + model +
//     variant + scale + tile geometry). A hit copies the stored result
//     into the caller's output buffer with zero heap allocations
//     (enforced by TestCacheHitLookupNoAllocs).
//   - A singleflight layer collapses concurrent identical misses: the
//     first requester becomes the leader and runs the batched forward;
//     followers park on the flight and share the leader's result. A
//     waiter whose request context is cancelled (client disconnect)
//     unblocks immediately without cancelling the shared forward —
//     other waiters and the leader still get their result.
//
// The cache works at both granularities the engine serves: whole images
// (small requests that ride the batcher in one submission, and the
// stitched result of large ones) and individual halo tiles (so a new
// image that shares tiles with cached traffic — flat sky, repeated
// texture, a reposted logo — still skips most of its forwards).
package cache

import (
	"context"
	"sync"
	"sync/atomic"

	"repro/internal/tensor"
	"repro/internal/trace/request"
)

// Config sizes the cache.
type Config struct {
	// MaxBytes budgets the stored tensor bytes across all shards.
	// <= 0 disables the cache entirely (New returns nil).
	MaxBytes int64
	// Shards is the number of independently locked LRU segments
	// (rounded up to a power of two, default 8). More shards cut lock
	// contention between concurrent tiles at the cost of slightly
	// coarser per-shard budgets.
	Shards int
}

// entry is one cached result: an intrusive LRU list node owned by its
// shard. val is cache-owned (a clone of the computed output) and
// immutable once inserted; hits copy out of it under the shard lock.
type entry struct {
	key        Key
	val        *tensor.Tensor
	bytes      int64
	prev, next *entry
}

// shard is one LRU segment: a map for lookup plus an intrusive
// doubly-linked list in recency order (head = most recent).
type shard struct {
	mu         sync.Mutex
	m          map[Key]*entry
	head, tail *entry
	bytes      int64
	budget     int64
}

// flight is one in-progress computation. done is closed after res/err
// are set; res is the cache-owned clone waiters copy from.
type flight struct {
	done chan struct{}
	res  *tensor.Tensor
	err  error
}

// Cache is the sharded LRU plus the singleflight table. A nil *Cache is
// a valid "caching off" instance: Get always misses and Do computes
// directly, so callers need no enabled-checks.
type Cache struct {
	shards []shard
	mask   uint64

	fmu     sync.Mutex
	flights map[Key]*flight

	bytes   atomic.Int64
	entries atomic.Int64

	met *Metrics
}

// New builds a cache within cfg's byte budget. met may be nil (metrics
// off). The third argument is unused and must be nil: spans go to the
// request trace carried by Lookup's and Do's context, and the slot only
// keeps existing three-argument callers compiling. cfg.MaxBytes <= 0
// returns nil — the disabled cache — so callers can wire the config
// through unconditionally.
func New(cfg Config, met *Metrics, _ *struct{}) *Cache {
	if cfg.MaxBytes <= 0 {
		return nil
	}
	if met == nil {
		met = NewMetrics(nil)
	}
	n := cfg.Shards
	if n < 1 {
		n = 8
	}
	// Round up to a power of two so shard selection is a mask.
	for n&(n-1) != 0 {
		n++
	}
	c := &Cache{
		shards:  make([]shard, n),
		mask:    uint64(n - 1),
		flights: make(map[Key]*flight),
		met:     met,
	}
	for i := range c.shards {
		c.shards[i].m = make(map[Key]*entry)
		c.shards[i].budget = cfg.MaxBytes / int64(n)
	}
	return c
}

// Enabled reports whether the cache is actually storing results.
func (c *Cache) Enabled() bool { return c != nil }

// shardFor selects the shard for k. The key is already well-mixed, so
// the low bits are uniform.
func (c *Cache) shardFor(k Key) *shard { return &c.shards[k.Lo&c.mask] }

// Get looks k up and, on a hit, copies the stored result into out and
// refreshes the entry's recency. It returns false on a miss (also when
// the cache is disabled or the stored shape does not match out, which
// cannot happen for keys derived with MakeKey). The hit path performs
// zero heap allocations. Each call counts once in sr_cache_hit_total or
// sr_cache_miss_total.
func (c *Cache) Get(k Key, out *tensor.Tensor) bool {
	if c == nil {
		return false
	}
	if c.get(k, out) {
		c.met.Hits.Inc()
		return true
	}
	c.met.Misses.Inc()
	return false
}

// get is Get without the lookup accounting.
func (c *Cache) get(k Key, out *tensor.Tensor) bool {
	s := c.shardFor(k)
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.m[k]
	if !ok || e.val.Len() != out.Len() {
		return false
	}
	s.moveToFront(e)
	copy(out.Data(), e.val.Data())
	return true
}

// Lookup is Get for a request that may be traced: the lookup lands in
// the request trace carried by ctx as a serve/cache-hit stage (the
// copy-out) or a serve/cache-miss stage.
func (c *Cache) Lookup(ctx context.Context, k Key, out *tensor.Tensor) bool {
	a := request.FromContext(ctx)
	start := a.Now()
	if c.Get(k, out) {
		a.EmitStage(request.StageServeCacheHit, a.Root(), start, out.Bytes())
		return true
	}
	a.EmitStage(request.StageServeCacheMiss, a.Root(), start, 0)
	return false
}

// Do runs the miss path for k with singleflight collapsing: if another
// request is already computing k, the call parks until that flight
// finishes and copies its result into out; otherwise it becomes the
// leader, runs compute(out), and publishes a cache-owned clone for the
// LRU and any waiters. The leader's compute is never cancelled — a
// parked waiter whose ctx is cancelled returns ctx.Err() immediately
// while the shared forward keeps running for everyone else. A leader
// error is shared with every waiter of that flight (they joined the
// same computation); the error is not cached, so the next request
// retries.
func (c *Cache) Do(ctx context.Context, k Key, out *tensor.Tensor, compute func(*tensor.Tensor) error) error {
	if c == nil {
		return compute(out)
	}
	c.fmu.Lock()
	if f, ok := c.flights[k]; ok {
		c.fmu.Unlock()
		return c.wait(ctx, f, out)
	}
	f := &flight{done: make(chan struct{})}
	c.flights[k] = f
	c.fmu.Unlock()

	// Re-check the LRU: a previous flight may have landed between the
	// caller's Get miss and our leadership. The caller's lookup was
	// already counted, so this one is not.
	if c.get(k, out) {
		c.finish(k, f, out, nil)
		return nil
	}

	err := compute(out)
	c.finish(k, f, out, err)
	if err == nil {
		c.insert(k, f.res)
	}
	return err
}

// finish publishes the flight outcome: clones out for waiters (success
// only), removes the flight so later requests start fresh, and wakes
// the waiters. Removal precedes the close so no request can join a
// finished flight's map entry after its result was already evicted.
func (c *Cache) finish(k Key, f *flight, out *tensor.Tensor, err error) {
	if err == nil {
		f.res = out.Clone()
	}
	f.err = err
	c.fmu.Lock()
	delete(c.flights, k)
	c.fmu.Unlock()
	close(f.done)
}

// wait parks on f until it completes or ctx is cancelled. Cancellation
// only unblocks this waiter; the flight itself keeps running.
func (c *Cache) wait(ctx context.Context, f *flight, out *tensor.Tensor) error {
	c.met.InflightWaits.Inc()
	a := request.FromContext(ctx)
	wstart := a.Now()
	select {
	case <-f.done:
	case <-ctx.Done():
		c.met.InflightCancels.Inc()
		if a != nil {
			// The wait covered real wall time even though the client left.
			a.Emit(request.StageServeCacheWait, request.NewSpanID(), a.Root(),
				wstart, a.Now(), 0, request.FlagCancelled, -1, 0)
		}
		return ctx.Err()
	}
	if f.err != nil {
		return f.err
	}
	copy(out.Data(), f.res.Data())
	a.EmitStage(request.StageServeCacheWait, a.Root(), wstart, out.Bytes())
	return nil
}

// insert stores val (cache-owned) under k, evicting from the tail of
// the shard's recency list until the entry fits its budget. Values
// larger than a whole shard budget are not cached at all — caching a
// tensor that would immediately evict the entire shard is pure churn.
func (c *Cache) insert(k Key, val *tensor.Tensor) {
	s := c.shardFor(k)
	n := val.Bytes()
	if n > s.budget {
		return
	}
	var delta int64
	var dEntries, evicted int
	s.mu.Lock()
	if old, ok := s.m[k]; ok {
		// A rescue-hit leader or an evicted-then-recomputed key: replace
		// in place, keeping the recency refresh.
		s.bytes += n - old.bytes
		delta = n - old.bytes
		old.val, old.bytes = val, n
		s.moveToFront(old)
	} else {
		for s.bytes+n > s.budget && s.tail != nil {
			delta -= s.tail.bytes
			s.remove(s.tail)
			evicted++
			dEntries--
		}
		e := &entry{key: k, val: val, bytes: n}
		s.m[k] = e
		s.pushFront(e)
		s.bytes += n
		delta += n
		dEntries++
	}
	s.mu.Unlock()
	c.met.Evictions.Add(int64(evicted))
	c.met.Bytes.Set(float64(c.bytes.Add(delta)))
	c.met.Entries.Set(float64(c.entries.Add(int64(dEntries))))
}

// Len reports the live entry count (for tests).
func (c *Cache) Len() int {
	if c == nil {
		return 0
	}
	return int(c.entries.Load())
}

// Bytes reports the live stored-tensor bytes (for tests).
func (c *Cache) Bytes() int64 {
	if c == nil {
		return 0
	}
	return c.bytes.Load()
}

// pushFront links e as the most-recent entry. Caller holds s.mu.
func (s *shard) pushFront(e *entry) {
	e.prev, e.next = nil, s.head
	if s.head != nil {
		s.head.prev = e
	}
	s.head = e
	if s.tail == nil {
		s.tail = e
	}
}

// remove unlinks e and drops it from the map. Caller holds s.mu.
func (s *shard) remove(e *entry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		s.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		s.tail = e.prev
	}
	e.prev, e.next = nil, nil
	s.bytes -= e.bytes
	delete(s.m, e.key)
}

// moveToFront refreshes e's recency. Caller holds s.mu.
func (s *shard) moveToFront(e *entry) {
	if s.head == e {
		return
	}
	if e.prev != nil {
		e.prev.next = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		s.tail = e.prev
	}
	e.prev, e.next = nil, s.head
	if s.head != nil {
		s.head.prev = e
	}
	s.head = e
}
