// Package mpi implements an in-process message-passing interface with the
// subset of MPI semantics distributed DNN training needs: ranks with
// point-to-point send/receive (tag matching, real data movement) and the
// collectives Horovod uses — broadcast, barrier, allreduce (several
// algorithms), allgather, and gather.
//
// Each rank is a goroutine; sends copy their payload so senders may reuse
// buffers immediately (MPI's blocking-send contract). The package is the
// substrate on which the repository's *real* data-parallel training runs;
// the scaled-up 512-GPU experiments use the discrete-event simulator in
// internal/collective instead, with the same algorithmic structure.
package mpi

import (
	"errors"
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"
	"time"
)

// Tracer receives a span for every collective a communicator executes:
// the op name (allreduce ops carry their algorithm, e.g.
// "allreduce/ring"), the payload size, and the duration of a span
// ending at the moment of the call. internal/trace implements it and
// derives the hvprof bucket tables from the spans.
// Implementations must not allocate (they sit on the training hot path)
// and must be safe for the goroutine that owns the Comm.
type Tracer interface {
	RecordSpan(op string, bytes int64, dur time.Duration)
}

// message is an in-flight point-to-point payload.
type message struct {
	src, tag int
	data     []float32
}

// mailbox is one rank's incoming queue with (src, tag) matching. MPI
// ordering semantics hold: messages from the same (src, tag) are received
// in send order.
type mailbox struct {
	mu    sync.Mutex
	cond  *sync.Cond
	queue []message
}

func newMailbox() *mailbox {
	m := &mailbox{}
	m.cond = sync.NewCond(&m.mu)
	return m
}

func (m *mailbox) put(msg message) {
	m.mu.Lock()
	m.queue = append(m.queue, msg)
	m.mu.Unlock()
	m.cond.Broadcast()
}

// get blocks until a message matching (src, tag) is available and removes
// the first match. It is deadline- and failure-aware: when the world has
// a receive timeout, a silent src is declared dead after the deadline;
// when src (or the receiving rank itself) is already marked down, get
// fails immediately instead of hanging forever. Messages queued before a
// sender died are still drained first — MPI's "messages in flight at
// failure time are delivered" semantics.
func (m *mailbox) get(w *World, self, src, tag int) (message, error) {
	var deadline time.Time
	if w.recvTimeout > 0 {
		deadline = time.Now().Add(w.recvTimeout)
	}
	m.mu.Lock()
	for {
		for i, msg := range m.queue {
			if msg.src == src && msg.tag == tag {
				m.queue = append(m.queue[:i], m.queue[i+1:]...)
				m.mu.Unlock()
				return msg, nil
			}
		}
		if cause := w.downCause(src); cause != nil {
			m.mu.Unlock()
			return message{}, &RankError{Rank: src, Err: cause}
		}
		if cause := w.downCause(self); cause != nil {
			m.mu.Unlock()
			return message{}, &RankError{Rank: self, Err: cause}
		}
		if !deadline.IsZero() && time.Now().After(deadline) {
			// markDown wants every mailbox lock (to wake peers blocked on
			// the now-dead src), including ours — release first.
			m.mu.Unlock()
			cause := fmt.Errorf("%w: no message from rank %d (tag %d) within %v, detected by rank %d",
				ErrRecvTimeout, src, tag, w.recvTimeout, self)
			w.markDown(src, cause, true)
			return message{}, &RankError{Rank: src, Err: cause}
		}
		// Woken by put, by markDown (failure propagation), or by the
		// watchdog (deadline evaluation); every wake re-checks all three.
		m.cond.Wait()
	}
}

// bufPool recycles message payload buffers so steady-state point-to-point
// traffic performs no heap allocations: Send draws a buffer from the
// pool instead of allocating a copy, and Recv returns it after the
// payload is copied out. Buffers are segregated into power-of-two size
// classes; the pool grows to the peak number of concurrent in-flight
// messages per class and is stable afterwards.
type bufPool struct {
	mu      sync.Mutex
	classes [33][][]float32
}

// sizeClass returns the class index whose buffers have capacity 2^k ≥ n.
func sizeClass(n int) int {
	if n <= 1 {
		return 0
	}
	return bits.Len(uint(n - 1))
}

func (p *bufPool) get(n int) []float32 {
	if n == 0 {
		return nil
	}
	k := sizeClass(n)
	p.mu.Lock()
	if s := p.classes[k]; len(s) > 0 {
		buf := s[len(s)-1]
		p.classes[k] = s[:len(s)-1]
		p.mu.Unlock()
		return buf[:n]
	}
	p.mu.Unlock()
	return make([]float32, n, 1<<k)
}

func (p *bufPool) put(buf []float32) {
	if cap(buf) == 0 {
		return
	}
	k := sizeClass(cap(buf))
	p.mu.Lock()
	p.classes[k] = append(p.classes[k], buf[:cap(buf)])
	p.mu.Unlock()
}

// World is a set of communicating ranks sharing one address space.
type World struct {
	size      int
	mailboxes []*mailbox
	pool      bufPool

	// recvTimeout bounds every Recv (0 = wait forever); see
	// SetRecvTimeout. plan, when non-nil, injects deterministic faults.
	recvTimeout time.Duration
	plan        *FaultPlan
	// sendSeq counts each rank's sends, the deterministic clock the drop
	// injection keys on (atomic: main loop and engine send concurrently).
	sendSeq []atomic.Int64
	// sentBytes meters each rank's outbound payload volume (every Send,
	// across all Comm forks of the rank) — the bytes-on-wire counter the
	// compression benchmarks read via Comm.SentBytes.
	sentBytes []atomic.Int64

	// gpusPerNode is the simulated node width for topology-aware
	// collectives (see SetGPUsPerNode); 1 means every rank is its own
	// node leader.
	gpusPerNode int

	// down holds every rank that left the computation (crash, panic,
	// timeout, or abort-on-peer-failure) keyed to its cause; rootFailed
	// is the subset that originated a failure. Guarded by fmu.
	fmu        sync.Mutex
	down       map[int]error
	rootFailed map[int]error
}

// NewWorld creates a world with the given number of ranks.
func NewWorld(size int) *World {
	if size < 1 {
		panic("mpi: world size must be >= 1")
	}
	w := &World{
		size:        size,
		down:        map[int]error{},
		rootFailed:  map[int]error{},
		sendSeq:     make([]atomic.Int64, size),
		sentBytes:   make([]atomic.Int64, size),
		gpusPerNode: 1,
	}
	w.mailboxes = make([]*mailbox, size)
	for i := range w.mailboxes {
		w.mailboxes[i] = newMailbox()
	}
	return w
}

// Size returns the number of ranks.
func (w *World) Size() int { return w.size }

// SetGPUsPerNode declares the simulated node width: ranks
// [k·g, (k+1)·g) share node k, and rank k·g is that node's leader. The
// node-aware collectives (AllreduceSumNodeAware) use this topology to
// keep bulk traffic intra-node; g must be >= 1. The default is 1 —
// every rank its own leader, which degenerates the two-level design to
// a flat leader ring.
func (w *World) SetGPUsPerNode(g int) {
	if g < 1 {
		panic("mpi: GPUs per node must be >= 1")
	}
	w.gpusPerNode = g
}

// Comm returns the communicator for one rank.
func (w *World) Comm(rank int) *Comm {
	if rank < 0 || rank >= w.size {
		panic(fmt.Sprintf("mpi: rank %d out of range [0,%d)", rank, w.size))
	}
	return &Comm{world: w, rank: rank}
}

// Run launches fn on every rank concurrently and waits for all to finish.
// It is the moral equivalent of mpirun for in-process jobs — including
// the failure semantics: a panic in one rank's goroutine (an injected
// crash, a Recv on a dead peer, a plain bug) no longer takes down the
// whole process. The rank is recovered, recorded as down (waking every
// peer blocked on it), and reported in the returned error, which joins
// one error per affected rank and says which rank failed and why.
// Healthy runs return nil.
func (w *World) Run(fn func(c *Comm)) error {
	stopWatchdog := w.startWatchdog()
	defer stopWatchdog()
	errs := make([]error, w.size)
	var wg sync.WaitGroup
	for r := 0; r < w.size; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			defer func() {
				if rec := recover(); rec != nil {
					errs[rank] = w.recoverRankError(rank, rec)
				}
			}()
			fn(w.Comm(rank))
		}(r)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// Comm is one rank's handle on the world.
//
// A Comm is a single-goroutine object for reducing collectives: the
// allreduce family, Reduce, and ReduceScatterBlock share the per-Comm
// scratch buffers below and must not run concurrently on one Comm.
// Point-to-point Send/Recv, Bcast, and Barrier are scratch-free, so a
// background engine may negotiate on its own collectives while the
// owning goroutine broadcasts (the Horovod startup pattern). Distinct
// Comm values for the same rank (each World.Comm call returns a fresh
// one) have independent scratch.
type Comm struct {
	world *World
	rank  int
	// Tracer, when non-nil, receives a span per collective. Give each
	// goroutine that runs collectives its own Comm (see Fork) so spans
	// land on the right timeline track.
	Tracer Tracer

	// scrTmp receives chunks inside the allreduce algorithms; scrWork is
	// the secondary buffer of the two-buffer collectives (Reduce's
	// accumulator copy, ReduceScatterBlock's working copy). Both grow to
	// the largest message seen and are reused, so the reduction path is
	// allocation-free in steady state.
	scrTmp  []float32
	scrWork []float32
}

// tmpScratch returns the per-Comm receive scratch with at least n
// elements.
func (c *Comm) tmpScratch(n int) []float32 {
	if cap(c.scrTmp) < n {
		c.scrTmp = make([]float32, n)
	}
	return c.scrTmp[:n]
}

// workScratch returns the per-Comm secondary work buffer with at least n
// elements.
func (c *Comm) workScratch(n int) []float32 {
	if cap(c.scrWork) < n {
		c.scrWork = make([]float32, n)
	}
	return c.scrWork[:n]
}

// Fork returns a new communicator handle for the same rank with
// independent scratch buffers and its own Tracer field. A
// background goroutine (the Horovod engine) runs its collectives on a
// fork so its reductions neither share scratch with, nor mis-attribute
// trace spans to, the owning goroutine.
func (c *Comm) Fork() *Comm { return &Comm{world: c.world, rank: c.rank} }

// Rank returns this communicator's rank.
func (c *Comm) Rank() int { return c.rank }

// Size returns the world size.
func (c *Comm) Size() int { return c.world.size }

// GPUsPerNode returns the world's node width (see World.SetGPUsPerNode).
func (c *Comm) GPUsPerNode() int { return c.world.gpusPerNode }

// SentBytes returns the total payload bytes this rank has sent through
// Send since the world was created, across every Comm fork of the rank.
// The compression benchmarks difference it around a training window to
// measure real bytes-on-wire per variant.
func (c *Comm) SentBytes() int64 { return c.world.sentBytes[c.rank].Load() }

// ProfileCollective reports a custom collective — one built outside this
// package from the exported primitives, e.g. the compressed variants in
// internal/collective — to the attached Tracer, exactly as the built-in
// collectives report themselves. op is the variant-qualified span name
// ("allreduce/topk"); bytes the compressed payload size that actually
// travels per message, so hvprof's message-size buckets reflect the wire.
func (c *Comm) ProfileCollective(op string, bytes int64, dur time.Duration) {
	c.profile(op, bytes, dur)
}

// Send delivers a copy of data to dst with the given tag (blocking send
// semantics: the buffer may be reused on return). The copy lives in a
// pooled buffer recycled by the matching Recv, so steady-state traffic
// does not allocate.
func (c *Comm) Send(dst, tag int, data []float32) {
	if dst < 0 || dst >= c.world.size {
		panic(fmt.Sprintf("mpi: Send to invalid rank %d", dst))
	}
	cp := c.world.pool.get(len(data))
	copy(cp, data)
	c.world.sentBytes[c.rank].Add(int64(len(data)) * 4)
	msg := message{src: c.rank, tag: tag, data: cp}
	if p := c.world.plan; p != nil {
		seq := c.world.sendSeq[c.rank].Add(1)
		if p.DropRank == c.rank && seq > int64(p.DropAfter) {
			// Lost on the wire: the sender believes it succeeded; peers
			// find out through the receive deadline.
			c.world.pool.put(cp)
			return
		}
		if p.DelayRank == c.rank && p.Delay > 0 {
			mb := c.world.mailboxes[dst]
			time.AfterFunc(p.Delay, func() { mb.put(msg) })
			return
		}
	}
	c.world.mailboxes[dst].put(msg)
}

// Recv blocks until a message with the given source and tag arrives and
// copies it into buf, which must be exactly the message length.
//
// Recv is deadline-aware: if the world has a receive timeout and src
// stays silent past it — or src is already known to be down — Recv
// panics with a *RankError instead of hanging forever. The panic
// propagates the failure through whatever collective is running and is
// recovered at the rank boundary by World.Run (or by the Horovod
// engine's background loop), where it becomes an ordinary error.
func (c *Comm) Recv(src, tag int, buf []float32) {
	if src < 0 || src >= c.world.size {
		panic(fmt.Sprintf("mpi: Recv from invalid rank %d", src))
	}
	msg, err := c.world.mailboxes[c.rank].get(c.world, c.rank, src, tag)
	if err != nil {
		panic(err)
	}
	if len(msg.data) != len(buf) {
		panic(fmt.Sprintf("mpi: Recv buffer %d elements, message %d (src=%d tag=%d)",
			len(buf), len(msg.data), src, tag))
	}
	copy(buf, msg.data)
	c.world.pool.put(msg.data)
}

// Sendrecv exchanges buffers with two peers (send to dst, receive from
// src), the building block of ring algorithms. Send happens first so the
// ring cannot deadlock.
func (c *Comm) Sendrecv(dst, sendTag int, sendBuf []float32, src, recvTag int, recvBuf []float32) {
	c.Send(dst, sendTag, sendBuf)
	c.Recv(src, recvTag, recvBuf)
}

// profile reports one finished collective to the attached Tracer. op is
// the (possibly algorithm-qualified) span name.
func (c *Comm) profile(op string, bytes int64, dur time.Duration) {
	if c.Tracer != nil {
		c.Tracer.RecordSpan(op, bytes, dur)
	}
}
